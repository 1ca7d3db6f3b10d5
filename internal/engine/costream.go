package engine

import (
	"context"

	"xnf/internal/core"
	"xnf/internal/exec"
)

// StreamCOView opens a streaming extraction of a stored CO view: the
// per-output plans are cloned from the engine's CO cache (compiled once per
// catalog version) and drained one output at a time as the consumer pulls,
// so server-side memory per extraction is one batch — never the CO. A
// recursive view runs its fixpoint at the first Next and then streams the
// reachable rows. Memory reservations charge the session accountant carried
// by ctx (WithMem), or the process accountant; ctx cancellation, or the
// default statement timeout when ctx has no deadline, aborts the stream at
// the next batch boundary.
func (db *Database) StreamCOView(ctx context.Context, name string) (*core.COStream, error) {
	e, err := db.coView(name)
	if err != nil {
		return nil, err
	}
	return db.openCO(ctx, e.compiled, e.plans), nil
}

// ExtractCOView extracts a stored CO view through its cached plan
// templates: the first extraction per catalog version (and optimizer
// options) runs opt once per output, later ones clone the templates and go
// straight to execution. It drains the same governed stream StreamCOView
// opens — one goroutine per output when parallel is set.
func (db *Database) ExtractCOView(name string, parallel bool) (*core.COResult, error) {
	e, err := db.coView(name)
	if err != nil {
		return nil, err
	}
	return drainCO(db.openCO(context.Background(), e.compiled, e.plans), parallel)
}

// ExtractCO extracts a compiled CO that is not a stored view (an inline
// XNF query): its plans are compiled per call under the database's
// optimizer options, then drained like ExtractCOView.
func (db *Database) ExtractCO(compiled *core.Compiled, parallel bool) (*core.COResult, error) {
	plans, err := compiled.PlanTemplates(db.store, db.OptOptions)
	if err != nil {
		return nil, err
	}
	return drainCO(db.openCO(context.Background(), compiled, plans), parallel)
}

// openCO opens a CO stream on a governed execution context: the statement
// timeout applies and the stream's reservations charge ctx's accountant.
func (db *Database) openCO(ctx context.Context, compiled *core.Compiled, templates []exec.Plan) *core.COStream {
	ctx, cancel := db.statementContext(ctx)
	return compiled.Open(db.execCtx(ctx, "co-stream"), templates, cancel)
}

func drainCO(s *core.COStream, parallel bool) (*core.COResult, error) {
	if parallel {
		return s.DrainParallel()
	}
	return s.Drain()
}
