package exec

import "fmt"

// ClonePlan deep-copies a plan tree's structure so the clone can run
// concurrently with (and independently of) the original. Plans carry their
// iterator state in struct fields, so a compiled plan is reusable but not
// shareable between executions in flight; the plan cache hands every
// execution a private clone of the cached template.
//
// Shared nodes of a plan DAG (a SpoolPlan child consumed by several
// outputs) stay shared in the clone — the memo map preserves object
// identity. Expressions are immutable with one exception, Subplan, which
// embeds a nested plan; cloneExpr rebuilds every expression node on the
// path to a Subplan and shares the rest.
func ClonePlan(p Plan) Plan {
	return (&cloner{plans: make(map[Plan]Plan)}).plan(p)
}

// SelfCloner lets plan nodes defined outside this package (the vexec
// batch-pipeline operators) participate in ClonePlan: the node deep-copies
// itself, using cloneChild for any embedded row plans so DAG sharing and
// memoization stay intact.
type SelfCloner interface {
	Plan
	CloneWith(cloneChild func(Plan) Plan) Plan
}

// CloneExpr deep-copies an expression for an independent execution. Only
// Subplan-carrying trees are rebuilt (a Subplan embeds a stateful nested
// plan); pure expression trees are returned as-is, so the call is free for
// the common case. The prepared-DML path uses it to reuse compiled
// predicates and assignments across executions.
func CloneExpr(e Expr) Expr {
	return (&cloner{plans: make(map[Plan]Plan)}).expr(e)
}

// ExprHasSubplan reports whether the expression tree embeds a Subplan.
// The batch lowering pass refuses such expressions: subplans carry their
// own iterator state and stay on the row path.
func ExprHasSubplan(e Expr) bool { return containsSubplan(e) }

type cloner struct {
	plans map[Plan]Plan
}

func (c *cloner) plan(p Plan) Plan {
	if p == nil {
		return nil
	}
	if dup, ok := c.plans[p]; ok {
		return dup
	}
	var dup Plan
	switch n := p.(type) {
	case *ScanPlan:
		dup = &ScanPlan{Table: n.Table, Filter: c.expr(n.Filter), Cols: n.Cols}
	case *IndexLookupPlan:
		dup = &IndexLookupPlan{Table: n.Table, Index: n.Index, Keys: c.exprs(n.Keys), Filter: c.expr(n.Filter), Cols: n.Cols}
	case *ValuesPlan:
		rows := make([][]Expr, len(n.Rows))
		for i, r := range n.Rows {
			rows[i] = c.exprs(r)
		}
		dup = &ValuesPlan{Rows: rows, Cols: n.Cols}
	case *FilterPlan:
		dup = &FilterPlan{Child: c.plan(n.Child), Pred: c.expr(n.Pred)}
	case *ProjectPlan:
		dup = &ProjectPlan{Child: c.plan(n.Child), Exprs: c.exprs(n.Exprs), Cols: n.Cols}
	case *DistinctPlan:
		dup = &DistinctPlan{Child: c.plan(n.Child)}
	case *SortPlan:
		dup = &SortPlan{Child: c.plan(n.Child), Keys: c.exprs(n.Keys), Desc: n.Desc}
	case *LimitPlan:
		dup = &LimitPlan{Child: c.plan(n.Child), N: n.N}
	case *UnionPlan:
		children := make([]Plan, len(n.Children))
		for i, ch := range n.Children {
			children[i] = c.plan(ch)
		}
		dup = &UnionPlan{Children: children, Distinct: n.Distinct}
	case *SpoolPlan:
		dup = &SpoolPlan{ID: n.ID, Child: c.plan(n.Child)}
	case *NLJoinPlan:
		dup = &NLJoinPlan{Left: c.plan(n.Left), Right: c.plan(n.Right), Pred: c.expr(n.Pred), RightParams: c.exprs(n.RightParams)}
	case *HashJoinPlan:
		dup = &HashJoinPlan{Left: c.plan(n.Left), Right: c.plan(n.Right), LeftKeys: c.exprs(n.LeftKeys), RightKeys: c.exprs(n.RightKeys), Residual: c.expr(n.Residual)}
	case *AggPlan:
		aggs := make([]AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = AggSpec{Name: a.Name, Star: a.Star, Distinct: a.Distinct, Arg: c.expr(a.Arg)}
		}
		dup = &AggPlan{Child: c.plan(n.Child), Groups: c.exprs(n.Groups), Aggs: aggs, Cols: n.Cols}
	case SelfCloner:
		dup = n.CloneWith(c.plan)
	default:
		panic(fmt.Sprintf("exec: ClonePlan: unknown plan type %T", p))
	}
	c.plans[p] = dup
	return dup
}

// expr clones an expression: nodes that contain (or are) a Subplan are
// rebuilt, everything else is shared — Slot, Param, TailParam, Const and
// pure operator trees are stateless and safe to share between executions.
func (c *cloner) expr(e Expr) Expr {
	if e == nil || !containsSubplan(e) {
		return e
	}
	switch n := e.(type) {
	case *Subplan:
		return &Subplan{
			ID: n.ID, Mode: n.Mode, Plan: c.plan(n.Plan),
			Params: c.exprs(n.Params), Hashed: n.Hashed,
			Probe: c.exprs(n.Probe), Build: c.exprs(n.Build),
			InStyle: n.InStyle,
		}
	case *Bin:
		return &Bin{Op: n.Op, L: c.expr(n.L), R: c.expr(n.R)}
	case *Un:
		return &Un{Op: n.Op, X: c.expr(n.X)}
	case *ScalarFunc:
		return &ScalarFunc{Name: n.Name, Args: c.exprs(n.Args)}
	case *CaseExpr:
		whens := make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = CaseWhen{Cond: c.expr(w.Cond), Result: c.expr(w.Result)}
		}
		return &CaseExpr{Whens: whens, Else: c.expr(n.Else)}
	default:
		return e
	}
}

func (c *cloner) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

// containsSubplan reports whether the expression tree holds a Subplan.
func containsSubplan(e Expr) bool {
	found := false
	WalkSubplans(e, func(*Subplan) { found = true })
	return found
}
