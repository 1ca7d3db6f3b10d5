package core

import (
	"fmt"
	"sync"

	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// COResult is a fully extracted composite object: one row set per TAKEn
// output, in component order. Derived relationship outputs have a nil row
// set (the cache reconstructs their connections from the child rows).
type COResult struct {
	Outputs  []Output
	Rows     [][]types.Row
	Counters exec.Counters
}

// PlanTemplates compiles the multi-output plan set of the paper's Sect. 5.1
// in reusable template form: one physical plan per shipped output, or, for
// a recursive CO, one per local component and connection the fixpoint
// consumes. Templates carry no execution state of their own but plans hold
// iterator state in their nodes, so every execution runs private clones —
// Open makes them. The engine caches templates per catalog version (the CO
// analog of the SQL plan cache), and with vectorization enabled each
// output's scan→filter→project pipeline is lowered to the batch engine.
func (c *Compiled) PlanTemplates(store *storage.Store, opts opt.Options) ([]exec.Plan, error) {
	comp := opt.NewCompiler(store, c.Graph, opts)
	if c.Recursive {
		return c.Rec.templates(comp)
	}
	plans := make([]exec.Plan, len(c.Outputs))
	for i, out := range c.Outputs {
		if out.Box == nil {
			continue // derived relationship: nothing shipped
		}
		plan, err := comp.CompileOutput(out.Box)
		if err != nil {
			return nil, fmt.Errorf("core: compiling output %s: %w", out.Name, err)
		}
		plans[i] = plan
	}
	return plans, nil
}

// ExecuteTemplates materializes the CO from compiled plan templates: it
// opens a stream over a fresh execution context and drains it. With
// parallel set, one goroutine drives each output — the intra-query
// parallelism of the paper's Sect. 6 outlook; results are identical to the
// serial run. Templates are cloned, so callers may share them between
// concurrent executions.
func (c *Compiled) ExecuteTemplates(store *storage.Store, plans []exec.Plan, parallel bool) (*COResult, error) {
	s := c.Open(exec.NewCtx(store), plans, nil)
	if parallel {
		return s.DrainParallel()
	}
	return s.Drain()
}

// Execute materializes the CO set-oriented: every component table and
// every shipped connection table is produced by one multi-output plan over
// a single execution context.
func (c *Compiled) Execute(store *storage.Store, opts opt.Options) (*COResult, error) {
	plans, err := c.PlanTemplates(store, opts)
	if err != nil {
		return nil, err
	}
	return c.ExecuteTemplates(store, plans, false)
}

// COStream is the one execution path of a composite object: the
// heterogeneous, component-tagged tuple stream of the paper's Sect. 3,
// pulled from the CO's plan set one output at a time. Every plan runs on
// the stream's execution context, so boxes shared in the QGM DAG (parents
// used by their own output, by child reachability and by connections) are
// spooled exactly once (Sect. 5.1). Memory held per open stream is one
// operator pipeline, never the CO — except for a recursive CO, whose
// fixpoint materializes its local components at the first Next and then
// serves the reachable rows.
//
// The contract mirrors a cursor: Next returns (compID, row, nil) per tuple
// and (0, nil, nil) at the end of the stream; the first error is sticky.
// The stream owns its execution context: at the end, on error or on Close
// it closes the open plan, closes the context's memory accountant and runs
// the release hook handed to Open.
type COStream struct {
	outputs []Output
	plans   []exec.Plan
	ectx    *exec.Ctx
	release func()
	rec     *RecursiveQuery // nil unless the CO is recursive
	fixed   [][]types.Row   // recursive: the fixpoint's unserved rows

	idx    int  // output currently being served
	opened bool // plans[idx] is open
	done   bool
	err    error
}

// Open starts a stream over private clones of the CO's plan templates
// (PlanTemplates), executed on ectx. release, when non-nil, runs once when
// the stream shuts down. Nothing executes until the first Next or Drain.
func (c *Compiled) Open(ectx *exec.Ctx, templates []exec.Plan, release func()) *COStream {
	plans := make([]exec.Plan, len(templates))
	for i, p := range templates {
		if p != nil {
			plans[i] = exec.ClonePlan(p)
		}
	}
	return &COStream{outputs: c.Outputs, plans: plans, ectx: ectx, release: release, rec: c.Rec}
}

// Outputs returns the CO's output metadata, in component order.
func (s *COStream) Outputs() []Output { return s.outputs }

// HasRows reports whether output i ships rows (false for derived
// relationships, which the client reconstructs).
func (s *COStream) HasRows(i int) bool { return s.outputs[i].Box != nil }

// Next returns the next tagged tuple of the heterogeneous stream, or
// (0, nil, nil) once every output is drained. Outputs are served in
// component order (a tuple's compID is its output's index); each plan
// opens on first demand and closes at its end.
func (s *COStream) Next() (int, types.Row, error) {
	if s.err != nil || s.done {
		return 0, nil, s.err
	}
	if s.rec != nil {
		return s.nextFixed()
	}
	for ; s.idx < len(s.plans); s.idx++ {
		plan := s.plans[s.idx]
		if plan == nil {
			continue
		}
		if !s.opened {
			if err := s.ectx.Interrupted(); err != nil {
				return 0, nil, s.fail(err)
			}
			if err := plan.Open(s.ectx, nil); err != nil {
				return 0, nil, s.fail(s.outputErr(s.idx, err))
			}
			s.opened = true
		}
		row, err := plan.Next(s.ectx)
		if err != nil {
			return 0, nil, s.fail(s.outputErr(s.idx, err))
		}
		if row != nil {
			return s.outputs[s.idx].CompID, row, nil
		}
		s.plans[s.idx], s.opened = nil, false
		if err := plan.Close(s.ectx); err != nil {
			return 0, nil, s.fail(s.outputErr(s.idx, err))
		}
	}
	s.shutdown()
	return 0, nil, nil
}

// nextFixed serves a recursive CO: the fixpoint runs on the stream's own
// context at the first call, then its rows are handed out in order.
func (s *COStream) nextFixed() (int, types.Row, error) {
	if s.fixed == nil {
		if err := s.ectx.Interrupted(); err != nil {
			return 0, nil, s.fail(err)
		}
		rows, err := s.rec.execute(s.ectx, s.plans)
		if err != nil {
			return 0, nil, s.fail(err)
		}
		s.fixed = rows
	}
	for ; s.idx < len(s.fixed); s.idx++ {
		if rows := s.fixed[s.idx]; len(rows) > 0 {
			s.fixed[s.idx] = rows[1:]
			return s.outputs[s.idx].CompID, rows[0], nil
		}
	}
	s.shutdown()
	return 0, nil, nil
}

// Drain materializes the rest of the stream into a COResult and shuts the
// stream down. Output row sets with no rows stay nil.
func (s *COStream) Drain() (*COResult, error) {
	res := s.result()
	for {
		comp, row, err := s.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			res.Counters = s.ectx.Counters
			return res, nil
		}
		res.Rows[comp] = append(res.Rows[comp], row)
	}
}

// DrainParallel is Drain with one goroutine per output plan, all on the
// stream's context: shared boxes are still spooled exactly once (the
// context synchronizes the spool), so the run does the same total work as
// Drain with the independent outputs overlapped. It applies to a stream
// nothing has been pulled from; a recursive CO drains serially.
func (s *COStream) DrainParallel() (*COResult, error) {
	if s.rec != nil {
		return s.Drain()
	}
	if err := s.ectx.Interrupted(); err != nil {
		return nil, s.fail(err)
	}
	res := s.result()
	var wg sync.WaitGroup
	errs := make([]error, len(s.plans))
	for i, plan := range s.plans {
		if plan != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.Rows[i], errs[i] = exec.Collect(s.ectx, plan)
			}()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, s.fail(s.outputErr(i, err))
		}
	}
	s.shutdown()
	res.Counters = s.ectx.Counters
	return res, nil
}

func (s *COStream) result() *COResult {
	return &COResult{Outputs: s.outputs, Rows: make([][]types.Row, len(s.outputs))}
}

func (s *COStream) outputErr(i int, err error) error {
	return fmt.Errorf("core: executing output %s: %w", s.outputs[i].Name, err)
}

// fail records the first stream error and releases everything.
func (s *COStream) fail(err error) error {
	s.err = err
	s.shutdown()
	return err
}

// shutdown closes the currently open plan (never-opened clones hold no
// resources and are simply dropped), the context's accountant and the
// release hook.
func (s *COStream) shutdown() {
	if s.done {
		return
	}
	s.done = true
	if s.opened {
		if err := s.plans[s.idx].Close(s.ectx); err != nil && s.err == nil {
			s.err = err
		}
		s.opened = false
	}
	s.plans, s.fixed = nil, nil
	s.ectx.Mem.Close()
	if s.release != nil {
		s.release()
	}
}

// Close releases the stream's plans and memory reservations. Idempotent;
// safe at any point of the stream.
func (s *COStream) Close() error {
	s.shutdown()
	return s.err
}
