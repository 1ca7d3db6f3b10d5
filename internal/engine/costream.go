package engine

import (
	"context"
	"errors"

	"xnf/internal/core"
	"xnf/internal/exec"
	"xnf/internal/types"
)

// ErrCORecursive reports that a CO view runs the fixpoint executor and
// cannot stream; callers fall back to the materializing extraction.
var ErrCORecursive = errors.New("engine: recursive CO views cannot stream")

// COStream is a lazily driven CO view extraction: the per-output plans of
// the view are cloned from the engine's template cache and drained one
// output at a time as the consumer pulls, so server-side memory per
// extraction is one batch — never the CO. All plans share one execution
// context, so boxes shared in the QGM DAG (parents used by their own
// output, by child reachability and by connections) are still spooled
// exactly once, preserving the multiple-query optimization of the
// materializing path.
//
// The contract mirrors engine.Rows: Next returns (compID, row, nil) per
// tuple and (0, nil, nil) at the end of the stream; Close is idempotent and
// releases plan resources and memory reservations.
type COStream struct {
	outputs []core.Output
	plans   []exec.Plan
	ectx    *exec.Ctx
	cctx    context.Context
	idx     int  // output currently being drained
	opened  bool // plans[idx] is open
	done    bool
	err     error
}

// StreamCOView opens a streaming extraction of a stored CO view. The
// compilation and plan templates come from the engine's CO caches (compiled
// once per catalog version); only plan cloning and execution happen per
// call. Memory reservations charge the session accountant carried by ctx
// (WithMem), or the process accountant; ctx cancellation aborts the stream
// at the next batch boundary. Recursive views return ErrCORecursive.
func (db *Database) StreamCOView(ctx context.Context, name string) (*COStream, error) {
	compiled, err := db.CompileCOView(name)
	if err != nil {
		return nil, err
	}
	if compiled.Recursive {
		return nil, ErrCORecursive
	}
	templates, err := db.coPlanTemplates(name, compiled)
	if err != nil {
		return nil, err
	}
	plans := make([]exec.Plan, len(templates))
	for i, p := range templates {
		if p != nil {
			plans[i] = exec.ClonePlan(p)
		}
	}
	parent := memFromContext(ctx)
	if parent == nil {
		parent = db.mem
	}
	ectx := exec.NewCtx(db.store)
	ectx.Mem = parent.Child("co-stream", 0)
	ectx.Interrupt = ctx.Err
	return &COStream{outputs: compiled.Outputs, plans: plans, ectx: ectx, cctx: ctx}, nil
}

// Outputs returns the view's compiled output metadata.
func (s *COStream) Outputs() []core.Output { return s.outputs }

// HasRows reports whether output i ships rows (false for derived
// relationships, which have no plan).
func (s *COStream) HasRows(i int) bool { return s.plans[i] != nil }

// Next returns the next tagged tuple of the heterogeneous stream, or
// (0, nil, nil) once every output is drained. Outputs stream in component
// order; each plan opens on first demand and closes at its end.
func (s *COStream) Next() (int, types.Row, error) {
	if s.err != nil {
		return 0, nil, s.err
	}
	for !s.done {
		if s.idx >= len(s.plans) {
			s.shutdown()
			return 0, nil, nil
		}
		plan := s.plans[s.idx]
		if plan == nil {
			s.idx++
			continue
		}
		if !s.opened {
			if err := s.cctx.Err(); err != nil {
				return 0, nil, s.fail(err)
			}
			if err := plan.Open(s.ectx, nil); err != nil {
				return 0, nil, s.fail(err)
			}
			s.opened = true
		}
		row, err := plan.Next(s.ectx)
		if err != nil {
			return 0, nil, s.fail(err)
		}
		if row == nil {
			if err := plan.Close(s.ectx); err != nil {
				return 0, nil, s.fail(err)
			}
			s.plans[s.idx] = nil
			s.opened = false
			s.idx++
			continue
		}
		return s.outputs[s.idx].CompID, row, nil
	}
	return 0, nil, nil
}

// Counters snapshots the execution counters accumulated so far.
func (s *COStream) Counters() exec.Counters { return s.ectx.Counters }

// fail records the first stream error and releases everything.
func (s *COStream) fail(err error) error {
	s.err = err
	s.shutdown()
	return err
}

// shutdown closes the currently open plan (never-opened clones hold no
// resources and are simply dropped) and the stream's accountant.
func (s *COStream) shutdown() {
	if s.done {
		return
	}
	s.done = true
	if s.opened && s.idx < len(s.plans) && s.plans[s.idx] != nil {
		if cerr := s.plans[s.idx].Close(s.ectx); cerr != nil && s.err == nil {
			s.err = cerr
		}
	}
	s.opened = false
	for i := range s.plans {
		s.plans[i] = nil
	}
	s.ectx.Mem.Close()
}

// Close releases the stream's plans and memory reservations. Idempotent;
// safe at any point of the stream.
func (s *COStream) Close() error {
	s.shutdown()
	return s.err
}
