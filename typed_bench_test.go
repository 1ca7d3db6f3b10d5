package xnf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/types"
)

// typedBenchDB builds a column-stored wide table for the typed-kernel and
// zone-map benchmarks: integer key (sorted by insertion — the shape zone
// maps exploit), low-cardinality group, an int64 measure and a float64
// measure.
func typedBenchDB(tb testing.TB, n int) *engine.Database {
	tb.Helper()
	db := engine.Open()
	if err := db.ExecScript(`CREATE TABLE TY (id INT NOT NULL, grp INT, v2 INT, val FLOAT, PRIMARY KEY (id))`); err != nil {
		tb.Fatal(err)
	}
	td, err := db.Store().Table("TY")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 97)),
			types.NewInt(int64(i % 1000)),
			types.NewFloat(float64(i%1000) / 10),
		}
		if _, err := td.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE TY SET STORAGE COLUMN"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// The two benchmark shapes of this PR: kernelQ is a scan→filter→agg over
// int64/float64 columns (the typed-kernel target — every operator of the
// pipeline has an unboxed form), pruneQ is a selective range filter on the
// sorted id column (the zone-map target: only the tail segments can hold
// qualifying rows).
const (
	typedBenchRows = 200_000
	kernelQ        = "SELECT grp, COUNT(*), SUM(v2), SUM(val) FROM TY WHERE v2 > 250 GROUP BY grp"
	pruneQ         = "SELECT COUNT(*), SUM(val) FROM TY WHERE id >= 190000"
	// typedOverRowFloor is the smallest typed-kernel speedup over the row
	// executor on kernelQ that the gate accepts.
	typedOverRowFloor = 4.0
)

func runTypedBench(b *testing.B, db *engine.Database, q string) {
	stmt, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	res, err := stmt.Query()
	if err != nil {
		b.Fatal(err)
	}
	nres := len(res.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stmt.Query()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != nres {
			b.Fatalf("result drifted: %d vs %d rows", len(res.Rows), nres)
		}
	}
	b.ReportMetric(float64(typedBenchRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// typedBenchConfig sets one measured configuration; every run executes on
// one worker so the comparison isolates kernels and pruning, not morsels.
// typed=false runs the row executor, the reference interpreter.
func typedBenchConfig(db *engine.Database, typed, pruning bool) {
	db.OptOptions.ParallelScan = false
	db.OptOptions.Vectorize = typed
	db.OptOptions.ZonePruning = pruning
}

// BenchmarkTypedKernels compares the row executor against typed kernels
// over the same column-store segments, and zone-map pruning against a full
// scan, on cached prepared plans — pure execution.
func BenchmarkTypedKernels(b *testing.B) {
	db := typedBenchDB(b, typedBenchRows)
	b.Run("kernel-row", func(b *testing.B) { typedBenchConfig(db, false, false); runTypedBench(b, db, kernelQ) })
	b.Run("kernel-typed", func(b *testing.B) { typedBenchConfig(db, true, false); runTypedBench(b, db, kernelQ) })
	b.Run("prune-off", func(b *testing.B) { typedBenchConfig(db, true, false); runTypedBench(b, db, pruneQ) })
	b.Run("prune-on", func(b *testing.B) { typedBenchConfig(db, true, true); runTypedBench(b, db, pruneQ) })
}

// typedBenchResult is one measured configuration in BENCH_typed.json.
type typedBenchResult struct {
	Query   string  `json:"query"`
	NsPerOp int64   `json:"ns_per_op"`
	MRowsPS float64 `json:"mrows_per_s"`
	Typed   bool    `json:"typed_kernels"` // false = row executor
	Pruning bool    `json:"zone_pruning"`
}

// TestTypedBenchGate measures typed kernels against the row executor and
// pruned vs unpruned selective scans, writes BENCH_typed.json, and fails
// when typed kernels are less than typedOverRowFloor times the row
// executor, when pruning loses to scanning, or when the zone maps skip
// fewer than half the segments on the selective range filter. Guarded by
// TYPED_BENCH_GATE=1 so ordinary `go test ./...` stays fast; CI runs it as
// a dedicated step and uploads the JSON as an artifact.
func TestTypedBenchGate(t *testing.T) {
	if os.Getenv("TYPED_BENCH_GATE") == "" {
		t.Skip("set TYPED_BENCH_GATE=1 to run the benchmark gate")
	}
	db := typedBenchDB(t, typedBenchRows)
	measure := func(q string, typed, pruning bool) typedBenchResult {
		typedBenchConfig(db, typed, pruning)
		r := testing.Benchmark(func(b *testing.B) { runTypedBench(b, db, q) })
		return typedBenchResult{
			Query:   q,
			NsPerOp: r.NsPerOp(),
			MRowsPS: float64(typedBenchRows) / (float64(r.NsPerOp()) / 1e9) / 1e6,
			Typed:   typed,
			Pruning: pruning,
		}
	}

	kernelRow := measure(kernelQ, false, false)
	kernelTyped := measure(kernelQ, true, false)
	pruneOff := measure(pruneQ, true, false)
	pruneOn := measure(pruneQ, true, true)

	// Pruned-segment fraction of the selective range filter.
	typedBenchConfig(db, true, true)
	res, err := db.Query(pruneQ)
	if err != nil {
		t.Fatal(err)
	}
	td, err := db.Store().Table("TY")
	if err != nil {
		t.Fatal(err)
	}
	totalSegs := int64(td.Segments())
	pruned := res.Counters.SegmentsPruned
	prunedFrac := float64(pruned) / float64(totalSegs)

	speedup := func(base, fast typedBenchResult) float64 {
		return float64(base.NsPerOp) / float64(fast.NsPerOp)
	}
	kernelSpeedup := speedup(kernelRow, kernelTyped)
	pruneSpeedup := speedup(pruneOff, pruneOn)

	report := map[string]any{
		"benchmark":   "BenchmarkTypedKernels / TestTypedBenchGate (typed_bench_test.go)",
		"description": fmt.Sprintf("Typed kernels vs the row executor, and zone-map pruning vs full scan, on the %d-row column-stored TY(id,grp,v2,val); cached prepared plans, one worker, pure execution. kernel = scan→filter→agg over int64/float64 columns; prune = selective range filter on the insertion-sorted id column.", typedBenchRows),
		"machine":     fmt.Sprintf("GOMAXPROCS=%d, %s/%s, %s", runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		"results": map[string]any{
			"kernel_row":   kernelRow,
			"kernel_typed": kernelTyped,
			"prune_off":    pruneOff,
			"prune_on":     pruneOn,
		},
		"speedups": map[string]float64{
			"typed_over_row_kernels": kernelSpeedup,
			"pruned_over_full_scan":  pruneSpeedup,
		},
		"pruning": map[string]any{
			"segments_total":  totalSegs,
			"segments_pruned": pruned,
			"pruned_fraction": prunedFrac,
		},
	}
	kernelPass := kernelSpeedup >= typedOverRowFloor
	prunePass := pruneOn.NsPerOp <= pruneOff.NsPerOp
	fracPass := prunedFrac >= 0.5
	report["acceptance"] = fmt.Sprintf(
		"typed kernels >=%.0fx the row executor: %s (%.2fx); pruning not slower than full scan: %s (%.2fx); >=50%% of segments pruned: %s (%.0f%%)",
		typedOverRowFloor, pass(kernelPass), kernelSpeedup, pass(prunePass), pruneSpeedup, pass(fracPass), prunedFrac*100)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_typed.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("kernel: row %v, typed %v (%.2fx)", kernelRow.NsPerOp, kernelTyped.NsPerOp, kernelSpeedup)
	t.Logf("prune: off %v, on %v (%.2fx), %d/%d segments pruned (%.0f%%)",
		pruneOff.NsPerOp, pruneOn.NsPerOp, pruneSpeedup, pruned, totalSegs, prunedFrac*100)
	if !kernelPass {
		t.Errorf("typed kernels only %.2fx the row executor, want >= %.0fx: %d ns/op vs %d ns/op",
			kernelSpeedup, typedOverRowFloor, kernelTyped.NsPerOp, kernelRow.NsPerOp)
	}
	if !prunePass {
		t.Errorf("zone-map pruning slower than the full scan: %d ns/op vs %d ns/op", pruneOn.NsPerOp, pruneOff.NsPerOp)
	}
	if !fracPass {
		t.Errorf("zone maps pruned only %d of %d segments (%.0f%%), want >= 50%%", pruned, totalSegs, prunedFrac*100)
	}
}

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
