package xnf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/types"
	"xnf/internal/vexec"
)

// joinBenchDB builds a column-stored star shape for the join benchmarks: a
// CUST dimension joined from an ORD fact on a non-indexed key (so the
// planner picks a hash join rather than an index nested-loop), with
// selective filters on both sides and a grouped aggregate on top.
func joinBenchDB(tb testing.TB, custN, ordN int) *engine.Database {
	tb.Helper()
	db := engine.Open()
	if err := db.ExecScript(`
CREATE TABLE CUST (id INT NOT NULL, ckey INT, region INT, PRIMARY KEY (id));
CREATE TABLE ORD (id INT NOT NULL, cust INT, status INT, amount FLOAT, PRIMARY KEY (id));
`); err != nil {
		tb.Fatal(err)
	}
	cust, err := db.Store().Table("CUST")
	if err != nil {
		tb.Fatal(err)
	}
	ord, err := db.Store().Table("ORD")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < custN; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i)), types.NewInt(int64(i % 50))}
		if _, err := cust.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < ordN; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64((i * 7) % custN)),
			types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i%500) / 4),
		}
		if _, err := ord.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		tb.Fatal(err)
	}
	for _, tbl := range []string{"CUST", "ORD"} {
		if _, err := db.Exec("ALTER TABLE " + tbl + " SET STORAGE COLUMN"); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// The benchmark query: scan → hash join → grouped aggregate, with a
// selective filter on each side and a float measure through the join.
const (
	joinBenchCust = 20_000
	joinBenchOrd  = 200_000
	joinQ         = "SELECT c.region, COUNT(*), SUM(o.amount) FROM ORD o, CUST c WHERE o.cust = c.ckey AND o.status < 3 AND c.region < 20 GROUP BY c.region"
)

func runJoinBench(b *testing.B, db *engine.Database) {
	stmt, err := db.Prepare(joinQ)
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
	b.ReportMetric(float64(joinBenchOrd)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// joinBenchConfig sets one measured configuration.
func joinBenchConfig(db *engine.Database, vectorize, parallel bool) {
	db.OptOptions.Vectorize = vectorize
	db.OptOptions.ParallelScan = parallel
	db.OptOptions.ParallelWorkers = 0 // pool default
}

// BenchmarkBatchJoin compares the row hash join against the batch hash
// join (sequential and morsel-parallel build) on the same cached plans.
func BenchmarkBatchJoin(b *testing.B) {
	db := joinBenchDB(b, joinBenchCust, joinBenchOrd)
	b.Run("row", func(b *testing.B) { joinBenchConfig(db, false, false); runJoinBench(b, db) })
	b.Run("batch", func(b *testing.B) { joinBenchConfig(db, true, false); runJoinBench(b, db) })
	b.Run("batch-parallel", func(b *testing.B) { joinBenchConfig(db, true, true); runJoinBench(b, db) })
}

// joinBenchResult is one measured configuration in BENCH_join.json.
type joinBenchResult struct {
	Query     string  `json:"query"`
	NsPerOp   int64   `json:"ns_per_op"`
	MRowsPS   float64 `json:"mrows_per_s"`
	Vectorize bool    `json:"vectorize"`
	Parallel  bool    `json:"parallel"`
}

// TestJoinBenchGate measures the row executor's hash join against the
// batch hash join, writes BENCH_join.json, and fails when the batch join
// is under 3x the row join on the scan→join→agg shape. It then runs 100
// concurrent statements against a 4-worker pool and fails if the pool's
// peak occupancy ever exceeds the configured bound. Guarded by
// JOIN_BENCH_GATE=1 so ordinary `go test ./...` stays fast; CI runs it as
// a dedicated step and uploads the JSON as an artifact.
func TestJoinBenchGate(t *testing.T) {
	if os.Getenv("JOIN_BENCH_GATE") == "" {
		t.Skip("set JOIN_BENCH_GATE=1 to run the benchmark gate")
	}
	db := joinBenchDB(t, joinBenchCust, joinBenchOrd)
	measure := func(vectorize, parallel bool) joinBenchResult {
		joinBenchConfig(db, vectorize, parallel)
		r := testing.Benchmark(func(b *testing.B) { runJoinBench(b, db) })
		return joinBenchResult{
			Query:     joinQ,
			NsPerOp:   r.NsPerOp(),
			MRowsPS:   float64(joinBenchOrd) / (float64(r.NsPerOp()) / 1e9) / 1e6,
			Vectorize: vectorize,
			Parallel:  parallel,
		}
	}
	row := measure(false, false)
	batch := measure(true, false)
	batchPar := measure(true, true)

	speedup := float64(row.NsPerOp) / float64(batch.NsPerOp)
	parSpeedup := float64(row.NsPerOp) / float64(batchPar.NsPerOp)

	// Admission-control check: 100 concurrent statements against a pool
	// bounded at 4 extra workers, with the admission threshold forced to 1
	// so every statement asks for parallelism. The pool's peak occupancy
	// must never exceed the bound; saturated requesters fall back to
	// sequential execution instead of queueing goroutines.
	const poolBound = 4
	vexec.SetWorkers(poolBound)
	defer vexec.SetWorkers(0)
	vexec.Shared.ResetStats()
	joinBenchConfig(db, true, true)
	db.OptOptions.ParallelMinRows = 1
	// Request more workers than the pool holds so admission control — not
	// the per-query default (GOMAXPROCS, possibly 1 in CI) — is what bounds
	// concurrency.
	db.OptOptions.ParallelWorkers = 2 * poolBound
	stmt, err := db.Prepare(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for g := 0; g < 100; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := stmt.Query()
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != len(want.Rows) {
				errs <- fmt.Errorf("statement %d: %d groups, want %d", g, len(res.Rows), len(want.Rows))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := vexec.Shared.Stats()

	report := map[string]any{
		"benchmark":   "BenchmarkBatchJoin / TestJoinBenchGate (join_bench_test.go)",
		"description": fmt.Sprintf("Row hash join vs batch hash join on scan→join→agg: ORD(%d rows) ⋈ CUST(%d rows) on a non-indexed key with selective filters on both sides and a grouped aggregate on top; column storage, cached prepared plans. The parallel configuration adds a morsel-parallel hash build admitted by the shared worker pool. The concurrency check runs 100 simultaneous statements against a %d-worker pool.", joinBenchOrd, joinBenchCust, poolBound),
		"machine":     fmt.Sprintf("GOMAXPROCS=%d, %s/%s, %s", runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		"results": map[string]any{
			"row_join":            row,
			"batch_join":          batch,
			"batch_join_parallel": batchPar,
		},
		"speedups": map[string]float64{
			"batch_over_row":          speedup,
			"batch_parallel_over_row": parSpeedup,
		},
		"pool": map[string]any{
			"bound":                poolBound,
			"peak_in_use":          st.Peak,
			"admissions":           st.Admits,
			"workers_granted":      st.Granted,
			"sequential_fallbacks": st.Fallbacks,
		},
	}
	speedPass := speedup >= 3
	poolPass := st.Peak <= poolBound
	report["acceptance"] = fmt.Sprintf(
		"batch join >= 3x row join: %s (%.2fx); 100 concurrent statements never exceed the %d-worker pool bound: %s (peak %d)",
		pass(speedPass), speedup, poolBound, pass(poolPass), st.Peak)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_join.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("join: row %v, batch %v (%.2fx), batch-parallel %v (%.2fx)",
		row.NsPerOp, batch.NsPerOp, speedup, batchPar.NsPerOp, parSpeedup)
	t.Logf("pool: peak %d/%d, %d admissions, %d granted, %d fallbacks",
		st.Peak, poolBound, st.Admits, st.Granted, st.Fallbacks)
	if !speedPass {
		t.Errorf("batch join only %.2fx over the row join, want >= 3x", speedup)
	}
	if !poolPass {
		t.Errorf("pool peak %d exceeded the configured bound %d", st.Peak, poolBound)
	}
	if st.Admits == 0 && st.Fallbacks == 0 {
		t.Error("concurrency check never touched the pool — the bound was not exercised")
	}
}
