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

// PlanTemplates compiles one physical plan per shipped output: the
// multi-output plan set of the paper's Sect. 5.1 in reusable template form.
// Templates carry no execution state of their own but plans hold iterator
// state in their nodes, so every execution must run private clones —
// ExecuteTemplates does that. The engine caches templates per catalog
// version (the CO analog of the SQL plan cache), and with vectorization
// enabled each leg's scan→filter→project pipeline is lowered to the batch
// engine.
func (c *Compiled) PlanTemplates(store *storage.Store, opts opt.Options) ([]exec.Plan, error) {
	if c.Recursive {
		return nil, fmt.Errorf("core: recursive COs run the fixpoint executor and have no plan templates")
	}
	comp := opt.NewCompiler(store, c.Graph, opts)
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

// ExecuteTemplates materializes the CO from compiled plan templates over a
// single execution context, so boxes shared in the QGM DAG (parents used
// by their own output, by child reachability and by connections) are
// spooled exactly once (Sect. 5.1's multiple-query optimization). Each
// template is cloned first, so callers may share templates between
// concurrent executions. With parallel set, one goroutine drives each
// output — the intra-query parallelism of the paper's Sect. 6 outlook;
// results are identical to the serial run.
func (c *Compiled) ExecuteTemplates(store *storage.Store, plans []exec.Plan, parallel bool) (*COResult, error) {
	clones := make([]exec.Plan, len(plans))
	for i, p := range plans {
		if p != nil {
			clones[i] = exec.ClonePlan(p)
		}
	}
	return c.executePlans(store, clones, parallel)
}

// executePlans drives plans that the caller owns outright (freshly
// compiled, or already cloned from shared templates).
func (c *Compiled) executePlans(store *storage.Store, clones []exec.Plan, parallel bool) (*COResult, error) {
	ctx := exec.NewCtx(store)
	res := &COResult{Outputs: c.Outputs, Rows: make([][]types.Row, len(c.Outputs))}
	if !parallel {
		for i, plan := range clones {
			if plan == nil {
				continue
			}
			rows, err := exec.Collect(ctx, plan)
			if err != nil {
				return nil, fmt.Errorf("core: executing output %s: %w", c.Outputs[i].Name, err)
			}
			res.Rows[i] = rows
		}
		res.Counters = ctx.Counters
		return res, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clones))
	for i := range clones {
		if clones[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := exec.Collect(ctx, clones[i])
			if err != nil {
				errs[i] = fmt.Errorf("core: executing output %s: %w", c.Outputs[i].Name, err)
				return
			}
			res.Rows[i] = rows
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Counters = ctx.Counters
	return res, nil
}

// Execute materializes the CO set-oriented: every component table and
// every shipped connection table is produced by one multi-output plan over
// a single execution context.
func (c *Compiled) Execute(store *storage.Store, opts opt.Options) (*COResult, error) {
	if c.Recursive {
		return c.Rec.execute(store, opts)
	}
	plans, err := c.PlanTemplates(store, opts)
	if err != nil {
		return nil, err
	}
	// Freshly compiled plans are private to this call: no clone needed.
	return c.executePlans(store, plans, false)
}

// ExecuteParallel materializes the CO with one goroutine per output.
// Shared boxes are spooled exactly once (the execution context
// synchronizes the spool), so the parallel run does the same total work as
// the serial one with the independent outputs overlapped.
func (c *Compiled) ExecuteParallel(store *storage.Store, opts opt.Options) (*COResult, error) {
	if c.Recursive {
		return c.Rec.execute(store, opts)
	}
	plans, err := c.PlanTemplates(store, opts)
	if err != nil {
		return nil, err
	}
	return c.executePlans(store, plans, true)
}
