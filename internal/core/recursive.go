package core

import (
	"fmt"

	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/qgm"
	"xnf/internal/semantics"
	"xnf/internal/types"
)

// RecursiveQuery is the compiled form of a cyclic CO (Sect. 2: "An XNF
// query may also specify a recursive CO being identified by a cycle in the
// query's schema graph"). The components and connections are evaluated
// over their *local* definitions, then reachability is computed by a
// breadth-first fixpoint from the root tuples along the connections.
type RecursiveQuery struct {
	Outputs []Output
	nodes   []recNode
	rels    []recRel
}

type recNode struct {
	name    string
	box     *qgm.Box
	keyCols []int
	root    bool
}

type recRel struct {
	name     string
	box      *qgm.Box
	parent   string
	children []string
	// connection-tuple layout: parent keys first, then each child's keys.
	parentKey []int
	childKeys [][]int
}

// buildRecursive prepares the fixpoint execution of a cyclic CO. The
// semantic-phase boxes are used unmodified (no reachability rewrite); the
// Top box is rebuilt to reference every component so compilation sees all
// of them.
func buildRecursive(g *qgm.Graph, xnfBox *qgm.Box, takes []semantics.TakeSpec) (*RecursiveQuery, error) {
	for _, t := range takes {
		if len(t.Columns) > 0 {
			return nil, fmt.Errorf("core: TAKE column projection is not supported on recursive COs")
		}
	}
	rq := &RecursiveQuery{}
	isChild := make(map[string]bool)
	for _, o := range xnfBox.XNFOutputs {
		if o.IsRel {
			for _, ch := range o.Children {
				isChild[up(ch)] = true
			}
		}
	}
	nodeKey := make(map[string][]int)
	var firstNode string
	anyRoot := false
	for _, o := range xnfBox.XNFOutputs {
		if o.IsRel {
			continue
		}
		if firstNode == "" {
			firstNode = o.Name
		}
		keys := semantics.ComponentKeyOrds(o.Box)
		nodeKey[up(o.Name)] = keys
		root := !isChild[up(o.Name)]
		if root {
			anyRoot = true
		}
		rq.nodes = append(rq.nodes, recNode{name: o.Name, box: o.Box, keyCols: keys, root: root})
	}
	if !anyRoot {
		// A pure cycle has no in-degree-zero node; the first component
		// anchors the CO (documented convention).
		for i := range rq.nodes {
			if rq.nodes[i].name == firstNode {
				rq.nodes[i].root = true
			}
		}
	}
	for _, o := range xnfBox.XNFOutputs {
		if !o.IsRel {
			continue
		}
		rr := recRel{name: o.Name, box: o.Box, parent: o.Parent, children: o.Children}
		at := 0
		pk := nodeKey[up(o.Parent)]
		rr.parentKey = seq(at, len(pk))
		at += len(pk)
		for _, ch := range o.Children {
			ck := nodeKey[up(ch)]
			rr.childKeys = append(rr.childKeys, seq(at, len(ck)))
			at += len(ck)
		}
		if at != len(o.Box.Head) {
			return nil, fmt.Errorf("core: recursive relationship %s: head arity mismatch", o.Name)
		}
		rq.rels = append(rq.rels, rr)
	}

	// Rebuild the Top to reference every component and connection box so
	// Reachable()/Validate see the whole graph.
	top := g.NewBox(qgm.Top, "")
	top.Limit = -1
	for _, t := range takes {
		o := t.Output
		q := g.NewQuant(top, qgm.ForEach, o.Name, o.Box)
		spec := qgm.TopOutput{Name: o.Name, CompID: len(rq.Outputs), Quant: q, IsRel: o.IsRel,
			Parent: o.Parent, Children: o.Children, Role: o.Role}
		out := Output{Name: o.Name, CompID: len(rq.Outputs), IsRel: o.IsRel,
			Parent: o.Parent, Children: o.Children, Role: o.Role, Box: o.Box}
		if o.IsRel {
			for _, rr := range rq.rels {
				if rr.name == o.Name {
					out.ParentKeyOrds = rr.parentKey
					out.ChildKeyOrds = rr.childKeys
				}
			}
		} else {
			out.KeyCols = nodeKey[up(o.Name)]
		}
		top.Outputs = append(top.Outputs, spec)
		rq.Outputs = append(rq.Outputs, out)
	}
	g.TopBox = top
	g.GC()
	fillOutputMeta(rq.Outputs, nil)
	return rq, nil
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// templates compiles the fixpoint's inputs: every local component, then
// every local connection, in definition order.
func (rq *RecursiveQuery) templates(comp *opt.Compiler) ([]exec.Plan, error) {
	var boxes []*qgm.Box
	for _, n := range rq.nodes {
		boxes = append(boxes, n.box)
	}
	for _, rr := range rq.rels {
		boxes = append(boxes, rr.box)
	}
	plans := make([]exec.Plan, len(boxes))
	for i, box := range boxes {
		plan, _, err := comp.CompileBox(box, nil)
		if err != nil {
			return nil, fmt.Errorf("core: compiling recursive CO input %s: %w", box.Name, err)
		}
		plans[i] = plan
	}
	return plans, nil
}

// execute runs the fixpoint over private clones of templates' plans:
// materialize local components and connections, seed the roots, propagate
// reachability along connections, then filter. It returns the reachable
// rows of each output.
func (rq *RecursiveQuery) execute(ctx *exec.Ctx, plans []exec.Plan) ([][]types.Row, error) {
	type nodeState struct {
		rec   *recNode
		rows  []types.Row
		byKey map[string]int
		reach map[string]bool
	}
	nodes := make(map[string]*nodeState)
	for i := range rq.nodes {
		n := &rq.nodes[i]
		rows, err := exec.Collect(ctx, plans[i])
		if err != nil {
			return nil, fmt.Errorf("core: recursive component %s: %w", n.name, err)
		}
		st := &nodeState{rec: n, rows: rows, byKey: make(map[string]int, len(rows)), reach: make(map[string]bool)}
		for ri, r := range rows {
			st.byKey[r.Key(n.keyCols)] = ri
		}
		nodes[up(n.name)] = st
	}
	type connSet struct {
		rec  *recRel
		rows []types.Row
		// byParent indexes connection rows by parent key.
		byParent map[string][]int
	}
	conns := make([]*connSet, len(rq.rels))
	for i := range rq.rels {
		rr := &rq.rels[i]
		rows, err := exec.Collect(ctx, plans[len(rq.nodes)+i])
		if err != nil {
			return nil, fmt.Errorf("core: recursive relationship %s: %w", rr.name, err)
		}
		cs := &connSet{rec: rr, rows: rows, byParent: make(map[string][]int)}
		for ri, r := range rows {
			k := r.Key(rr.parentKey)
			cs.byParent[k] = append(cs.byParent[k], ri)
		}
		conns[i] = cs
	}

	// Seed roots and propagate (breadth-first; terminates because the
	// reachable sets only grow within finite local populations).
	type item struct {
		node string
		key  string
	}
	var queue []item
	for _, st := range nodes {
		if !st.rec.root {
			continue
		}
		for _, r := range st.rows {
			k := r.Key(st.rec.keyCols)
			if !st.reach[k] {
				st.reach[k] = true
				queue = append(queue, item{node: up(st.rec.name), key: k})
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, cs := range conns {
			if up(cs.rec.parent) != cur.node {
				continue
			}
			for _, ri := range cs.byParent[cur.key] {
				row := cs.rows[ri]
				for ci, ch := range cs.rec.children {
					chState := nodes[up(ch)]
					ck := row.Key(cs.rec.childKeys[ci])
					if _, exists := chState.byKey[ck]; !exists {
						continue
					}
					if !chState.reach[ck] {
						chState.reach[ck] = true
						queue = append(queue, item{node: up(ch), key: ck})
					}
				}
			}
		}
	}

	reached := make([][]types.Row, len(rq.Outputs))
	for i, out := range rq.Outputs {
		if !out.IsRel {
			st := nodes[up(out.Name)]
			for _, r := range st.rows {
				if st.reach[r.Key(st.rec.keyCols)] {
					reached[i] = append(reached[i], r)
				}
			}
			continue
		}
		for _, cs := range conns {
			if cs.rec.name != out.Name {
				continue
			}
			pState := nodes[up(cs.rec.parent)]
			for _, r := range cs.rows {
				if pState.reach[r.Key(cs.rec.parentKey)] {
					reached[i] = append(reached[i], r)
				}
			}
		}
	}
	return reached, nil
}
