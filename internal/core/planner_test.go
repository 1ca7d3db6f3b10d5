package core_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	. "xnf/internal/core"

	"xnf/internal/engine"
	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/workload"
)

// coLines renders a CO extraction as sorted "output:row" lines, so two
// extractions compare as multisets.
func coLines(res *COResult) []string {
	var lines []string
	for i, rows := range res.Rows {
		for _, r := range rows {
			lines = append(lines, fmt.Sprintf("%s:%s", res.Outputs[i].Name, r.String()))
		}
	}
	sort.Strings(lines)
	return lines
}

// TestPlannerDepsARCSharedBoxesOnce pins the set-oriented plan of
// deps_ARC: every hash join runs on the batch engine (no row HashJoin in
// any output or subplan), the hashed EXISTS subplans of xskills read the
// spools of the shared connection boxes instead of deriving them again,
// each shared box is materialized exactly once, and the result equals the
// naive, unrewritten extraction.
func TestPlannerDepsARCSharedBoxesOnce(t *testing.T) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 40, EmpsPerDept: 6, ProjsPerDept: 2,
		Skills: 60, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.5, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	c := compileDepsARC(t, db)
	plans, err := c.PlanTemplates(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rowJoin := regexp.MustCompile(`(?m)^\s*HashJoin `)
	subplan := regexp.MustCompile(`subplan #\d+:\n`)
	spooledSubplan := regexp.MustCompile(`subplan #\d+:\n\s*Spool #\d+ \(shared\)\n`)
	subplans := 0
	for i, p := range plans {
		if p == nil {
			continue
		}
		ex := p.Explain(0)
		if rowJoin.MatchString(ex) {
			t.Errorf("output %s has a row HashJoin:\n%s", c.Outputs[i].Name, ex)
		}
		n := len(subplan.FindAllString(ex, -1))
		if spooled := len(spooledSubplan.FindAllString(ex, -1)); spooled != n {
			t.Errorf("output %s: %d of %d subplans read a spool:\n%s", c.Outputs[i].Name, spooled, n, ex)
		}
		subplans += n
	}
	if subplans == 0 {
		t.Fatal("no subplan in any output; xskills should carry hashed EXISTS subplans")
	}

	shared := 0
	for _, n := range c.Graph.Consumers() {
		if n > 1 {
			shared++
		}
	}
	for _, parallel := range []bool{false, true} {
		res, err := c.ExecuteTemplates(db.Store(), plans, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters.SpoolMaterial; got != int64(shared) {
			t.Errorf("parallel=%v: %d spool materializations, want one per shared box (%d)", parallel, got, shared)
		}
		if res.Counters.SubplanRuns != 0 {
			t.Errorf("parallel=%v: %d subplan re-runs, want 0 (all subplans hashed)", parallel, res.Counters.SubplanRuns)
		}
	}

	naiveC, err := CompileView(db.Catalog(), "deps_ARC", rewrite.NoRewrite())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveC.Execute(db.Store(), opt.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(coLines(naive), "\n")
	rowOpts := opt.DefaultOptions()
	rowOpts.Vectorize = false
	for name, o := range map[string]opt.Options{"default": opt.DefaultOptions(), "row engine": rowOpts} {
		res, err := c.Execute(db.Store(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(coLines(res), "\n"); got != want {
			t.Errorf("%s extraction differs from the naive, unrewritten extraction", name)
		}
	}
}
