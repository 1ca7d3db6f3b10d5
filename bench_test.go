// Benchmarks regenerating every quantitative result of the paper, one
// family per experiment; cmd/xnfbench prints the same numbers as formatted
// tables.
//
//	BenchmarkTable1…           — Table 1 (derivation-cost comparison)
//	BenchmarkFig3…             — Fig. 3 / [39]: subquery→join rewrite
//	BenchmarkExtraction…       — Sect. 1: set-oriented vs fragmented
//	BenchmarkCacheTraversal…   — Sect. 5.2: >100k tuples/s cache traversal
//	BenchmarkShipping…         — Sect. 5.1/5.3: boundary-crossing costs
package xnf

import (
	"fmt"
	"testing"
	"time"

	"xnf/internal/bench"
	"xnf/internal/engine"
	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/wire"
	"xnf/internal/workload"
)

// --- Table 1 ---

// BenchmarkTable1Analysis times the derivation-cost analysis itself and
// asserts the paper's summary row (23/16/7).
func BenchmarkTable1Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if t.SQLTotal != 23 || t.ReplicatedTotal != 16 || t.XNFTotal != 7 {
			b.Fatalf("Table 1 = %d/%d/%d, paper reports 23/16/7", t.SQLTotal, t.ReplicatedTotal, t.XNFTotal)
		}
	}
}

// BenchmarkTable1Extraction measures the actual work ratio the table
// predicts: full CO extraction (shared DAG) vs per-component standalone
// extraction.
func BenchmarkTable1Extraction(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 50, EmpsPerDept: 20, ProjsPerDept: 5,
		Skills: 200, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.3, Seed: 2,
	}); err != nil {
		b.Fatal(err)
	}
	b.Run("xnf-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compiled, err := bench.CompileDepsARC(db)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := compiled.Execute(db.Store(), opt.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql-per-component", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bench.StandaloneComponents(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 3 ---

func fig3DB(b *testing.B, depts, emps int) *engine.Database {
	b.Helper()
	db, err := bench.Fig3DB(depts, emps)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkFig3 compares naive correlated-subquery execution against the
// E→F-rewritten join across scales; the paper reports "orders of
// magnitude" improvement.
func BenchmarkFig3(b *testing.B) {
	for _, scale := range []struct{ depts, emps int }{
		{20, 10}, {50, 20}, {100, 40},
	} {
		db := fig3DB(b, scale.depts, scale.emps)
		total := scale.depts * scale.emps
		b.Run(fmt.Sprintf("naive/emps=%d", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunFig3Once(db, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rewritten/emps=%d", total), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunFig3Once(db, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sect. 1: extraction strategies ---

// BenchmarkExtraction compares one-query CO extraction with per-parent
// fragmented navigation over a real TCP connection, across scales.
func BenchmarkExtraction(b *testing.B) {
	for _, depts := range []int{10, 50, 200} {
		p := workload.OrgParams{
			Depts: depts, EmpsPerDept: 10, ProjsPerDept: 3,
			Skills: 100, SkillsPerEmp: 3, SkillsPerProj: 2,
			ArcFraction: 0.5, Seed: 4,
		}
		addr, closer, err := bench.StartServer(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("set-oriented/depts=%d", depts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := wire.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.QueryCO("deps_ARC", wire.ShipWhole()); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
		b.Run(fmt.Sprintf("fragmented/depts=%d", depts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := wire.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := bench.FragmentedExtract(c); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
		closer()
	}
}

// --- Sect. 5.2: cache traversal ---

// BenchmarkCacheTraversal measures tuples/second through a pre-loaded XNF
// cache with the OO1 traversal (the paper reports >100,000/s).
func BenchmarkCacheTraversal(b *testing.B) {
	for _, parts := range []int{2000, 20000} {
		cache, _, err := bench.BuildOO1Cache(workload.OO1Params{Parts: parts, Conns: 3, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			visited := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visited += bench.RunTraversal(cache, 10, 7, int64(i))
			}
			b.StopTimer()
			rate := float64(visited) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "tuples/s")
			if rate < 100000 {
				b.Errorf("traversal rate %.0f tuples/s below the paper's 100k claim", rate)
			}
		})
	}
}

// BenchmarkCursorScan measures the independent-cursor scan rate over a
// cached component (the other half of the Sect. 5.2 access-rate claim).
func BenchmarkCursorScan(b *testing.B) {
	cache, _, err := bench.BuildOO1Cache(workload.OO1Params{Parts: 20000, Conns: 3, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		cur, err := cache.OpenCursor("xpart")
		if err != nil {
			b.Fatal(err)
		}
		for o := cur.Next(); o != nil; o = cur.Next() {
			visited++
		}
	}
	b.ReportMetric(float64(visited)/b.Elapsed().Seconds(), "tuples/s")
}

// --- Sect. 5.1/5.3: shipping ---

// BenchmarkShipping measures the ship modes' wall time at a simulated
// 50µs per-round-trip cost.
func BenchmarkShipping(b *testing.B) {
	p := workload.OrgParams{
		Depts: 30, EmpsPerDept: 10, ProjsPerDept: 3,
		Skills: 100, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.5, Seed: 4,
	}
	addr, closer, err := bench.StartServer(p)
	if err != nil {
		b.Fatal(err)
	}
	defer closer()
	for _, cfg := range []struct {
		name string
		mode wire.ShipMode
	}{
		{"whole", wire.ShipWhole()},
		{"block100", wire.ShipBlocks(100)},
		{"tuple", wire.ShipTupleAtATime()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := wire.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				c.Latency = 50 * time.Microsecond
				if _, err := c.QueryCO("deps_ARC", cfg.mode); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Stats.RoundTrips), "roundtrips")
				c.Close()
			}
		})
	}
}

// --- Ablations: one optimizer choice switched off at a time ---

// BenchmarkAblationCSE isolates the common-subexpression sharing (spool)
// win during CO extraction.
func BenchmarkAblationCSE(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 40, EmpsPerDept: 15, ProjsPerDept: 4,
		Skills: 150, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.4, Seed: 6,
	}); err != nil {
		b.Fatal(err)
	}
	compiled, err := bench.CompileDepsARC(db)
	if err != nil {
		b.Fatal(err)
	}
	withSpool := opt.DefaultOptions()
	noSpool := opt.DefaultOptions()
	noSpool.Spool = false
	b.Run("spool-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Execute(db.Store(), withSpool); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spool-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Execute(db.Store(), noSpool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationJoinStrategies isolates hash joins and index
// nested-loop joins on the Fig. 3 shape.
func BenchmarkAblationJoinStrategies(b *testing.B) {
	db := fig3DB(b, 100, 40)
	if _, err := db.Exec("CREATE INDEX emp_edno ON EMP (edno)"); err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		o    opt.Options
	}{
		{"hash+index", opt.DefaultOptions()},
		{"hash-only", opt.Options{HashJoin: true, HashedSubplans: true, Spool: true, JoinOrdering: true}},
		{"index-only", opt.Options{IndexNL: true, HashedSubplans: true, Spool: true, JoinOrdering: true}},
		{"nested-loop", opt.Options{HashedSubplans: true, Spool: true, JoinOrdering: true}},
	}
	const q = `SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'`
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			db.OptOptions = cfg.o
			db.RewriteOptions = rewrite.DefaultOptions()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	db.OptOptions = opt.DefaultOptions()
}

// BenchmarkAblationParallelExtraction measures the Sect. 6 outlook
// extension: one goroutine per CO output, shared fragments spooled once.
func BenchmarkAblationParallelExtraction(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 60, EmpsPerDept: 20, ProjsPerDept: 5,
		Skills: 200, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.4, Seed: 8,
	}); err != nil {
		b.Fatal(err)
	}
	compiled, err := bench.CompileDepsARC(db)
	if err != nil {
		b.Fatal(err)
	}
	plans, err := compiled.PlanTemplates(db.Store(), opt.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiled.ExecuteTemplates(db.Store(), plans, parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheBuild measures workspace construction (swizzling) alone.
func BenchmarkCacheBuild(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.DefaultOrg()); err != nil {
		b.Fatal(err)
	}
	compiled, err := bench.CompileDepsARC(db)
	if err != nil {
		b.Fatal(err)
	}
	res, err := compiled.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildCache(res); err != nil {
			b.Fatal(err)
		}
	}
}
