package engine

import (
	"context"

	"xnf/internal/exec"
	"xnf/internal/resource"
)

// memKey carries a session-level accountant through a statement context.
type memKey struct{}

// WithMem returns a context whose statement executions charge their
// memory reservations to mem (typically a per-session child of the
// database's process accountant). Without it, statements charge the
// process accountant directly.
func WithMem(ctx context.Context, mem *resource.Accountant) context.Context {
	if mem == nil {
		return ctx
	}
	return context.WithValue(ctx, memKey{}, mem)
}

// statementContext arms the default statement timeout on ctx unless ctx
// already carries a deadline, so a per-session SET override (which arrives
// as a context deadline) fully replaces it. cancel is nil when no timeout
// was armed.
func (db *Database) statementContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := db.Options.StatementTimeout; d > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, d)
		}
	}
	return ctx, nil
}

// execCtx builds the governed execution context of one statement: its
// reservations charge a child of ctx's session accountant (WithMem), or of
// the process accountant, and ctx's end interrupts it.
func (db *Database) execCtx(ctx context.Context, name string) *exec.Ctx {
	parent, _ := ctx.Value(memKey{}).(*resource.Accountant)
	if parent == nil {
		parent = db.mem
	}
	ectx := exec.NewCtx(db.store)
	ectx.Mem = parent.Child(name, 0)
	ectx.Interrupt = ctx.Err
	return ectx
}

// MemRoot returns the process-level memory accountant. The wire server
// derives one child per session from it; SetMemBudget arms the budget.
func (db *Database) MemRoot() *resource.Accountant { return db.mem }

// SetMemBudget caps the bytes the engine's governed allocators (hash
// joins, sorts, distinct/aggregate tables, cursor blocks) may hold at
// once, process-wide. 0 disables enforcement; accounting always runs.
// Statements that would exceed the budget fail with an error wrapping
// resource.ErrResourceExhausted after degrading where possible.
func (db *Database) SetMemBudget(n int64) { db.mem.SetLimit(n) }

// MemBudget reports the process budget (0 = unlimited).
func (db *Database) MemBudget() int64 { return db.mem.Limit() }

// MemUsed reports the bytes currently reserved process-wide.
func (db *Database) MemUsed() int64 { return db.mem.Used() }
