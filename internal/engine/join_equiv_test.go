package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xnf/internal/types"
	"xnf/internal/vexec"
)

// joinEquivCorpus is the row-vs-batch corpus for the operators that lower
// natively since the batch join/sort/distinct work: hash joins (NULL keys,
// duplicate keys, empty build sides, mixed int/float and string keys,
// residual predicates), ORDER BY asc/desc over NULLs with LIMIT, DISTINCT,
// UNION / UNION ALL, and joins feeding grouped aggregates.
var joinEquivCorpus = []string{
	// Basic equi-joins; EMP e5 has a NULL edno that must never join.
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
	"SELECT e.eno, p.pno FROM EMP e, PROJ p WHERE e.edno = p.pdno",
	// Duplicate keys on both sides (dept 1 employs two, locs repeat).
	"SELECT d1.dname, d2.dname FROM DEPT d1, DEPT d2 WHERE d1.loc = d2.loc",
	"SELECT e1.ename, e2.ename FROM EMP e1, EMP e2 WHERE e1.edno = e2.edno",
	// Empty build side: the pushed-down filter kills every build row.
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'NOWHERE'",
	// Float keys, and int-vs-float key comparisons (2 joins 2.0).
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.sal = p.budget * 10",
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.eno = p.budget / 10",
	// Residual predicates evaluated over the joined row.
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND e.sal > d.dno * 100",
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.edno = p.pdno AND e.sal + p.budget > 120",
	// Multi-way joins (string and int keys through link tables).
	"SELECT e.ename, s.sname FROM EMP e, EMPSKILLS es, SKILLS s WHERE e.eno = es.eseno AND es.essno = s.sno",
	"SELECT s.sname, p.pname FROM SKILLS s, PROJSKILLS ps, PROJ p WHERE s.sno = ps.pssno AND ps.pspno = p.pno",
	// Sorts: asc and desc over a NULL-bearing key, compound keys, LIMIT.
	"SELECT ename, edno FROM EMP ORDER BY edno",
	"SELECT ename, edno FROM EMP ORDER BY edno DESC",
	"SELECT ename FROM EMP ORDER BY edno DESC, sal",
	"SELECT ename FROM EMP ORDER BY sal DESC LIMIT 2",
	"SELECT ename, sal FROM EMP WHERE sal > 150 ORDER BY sal",
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno ORDER BY e.sal DESC",
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno ORDER BY d.dname, e.ename LIMIT 3",
	// DISTINCT over scans and join outputs.
	"SELECT DISTINCT edno FROM EMP",
	"SELECT DISTINCT d.loc FROM DEPT d, EMP e WHERE e.edno = d.dno",
	"SELECT DISTINCT sal > 250 FROM EMP",
	// UNION dedups across children, UNION ALL concatenates.
	"SELECT ename FROM EMP WHERE sal < 200 UNION SELECT ename FROM EMP WHERE sal > 400",
	"SELECT edno FROM EMP UNION SELECT dno FROM DEPT",
	"SELECT edno FROM EMP UNION ALL SELECT dno FROM DEPT",
	"SELECT dno FROM DEPT UNION ALL SELECT dno FROM DEPT",
	// Joins feeding grouped aggregates end-to-end in batch form.
	"SELECT d.dname, COUNT(*), SUM(e.sal) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.dname",
	"SELECT d.loc, COUNT(DISTINCT e.eno) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.loc",
	"SELECT p.pname, MIN(e.sal), MAX(e.sal) FROM EMP e, PROJ p WHERE e.edno = p.pdno GROUP BY p.pname HAVING COUNT(*) >= 1",
}

// TestJoinSortDistinctEquivalence runs the corpus through both executors on
// row storage and column storage; ORDER BY / LIMIT queries compare
// positionally, the rest as multisets.
func TestJoinSortDistinctEquivalence(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := "row-storage"
		if columnar {
			name = "column-storage"
		}
		t.Run(name, func(t *testing.T) {
			db := orgDB(t)
			if columnar {
				toColumnStorage(t, db)
			}
			for _, q := range joinEquivCorpus {
				rowRes, batchRes, ordered := runBoth(t, db, q)
				if ordered {
					if fmt.Sprint(rowRes) != fmt.Sprint(batchRes) {
						t.Errorf("%q: ordered results differ\nrow:   %v\nbatch: %v", q, rowRes, batchRes)
					}
					continue
				}
				sortedEqual(t, batchRes, rowRes)
			}
		})
	}
}

// TestJoinLowering pins that representative shapes actually lower to the
// batch operators (rather than silently riding the row fallback, which the
// equivalence test would not notice).
func TestJoinLowering(t *testing.T) {
	db := orgDB(t)
	cases := []struct{ q, op string }{
		{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno", "BatchHashJoin"},
		{"SELECT ename FROM EMP ORDER BY sal DESC", "BatchSort"},
		{"SELECT DISTINCT edno FROM EMP", "BatchDistinct"},
		{"SELECT edno FROM EMP UNION SELECT dno FROM DEPT", "BatchUnion"},
		{"SELECT d.dname, COUNT(*) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.dname", "BatchHashJoin"},
	}
	for _, c := range cases {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.q, err)
		}
		if !strings.Contains(plan, c.op) {
			t.Errorf("%q did not lower to %s:\n%s", c.q, c.op, plan)
		}
	}
}

// TestJoinEquivalencePrepared exercises parameterized joins through cloned
// cached plans, with parameters in keys, pushed-down build filters, and
// residuals.
func TestJoinEquivalencePrepared(t *testing.T) {
	db := orgDB(t)
	cases := []struct {
		q    string
		args [][]types.Value
	}{
		{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = ?", [][]types.Value{
			{types.NewString("ARC")}, {types.NewString("HQ")}, {types.NewString("NOWHERE")},
		}},
		{"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND e.sal > ?", [][]types.Value{
			{types.NewFloat(150)}, {types.NewFloat(1e6)},
		}},
		{"SELECT ename FROM EMP WHERE sal > ? ORDER BY sal DESC", [][]types.Value{
			{types.NewFloat(0)}, {types.NewFloat(250)},
		}},
	}
	for _, c := range cases {
		for _, args := range c.args {
			rowRes, batchRes, ordered := runBoth(t, db, c.q, args...)
			if ordered {
				if fmt.Sprint(rowRes) != fmt.Sprint(batchRes) {
					t.Errorf("%q %v: ordered results differ\nrow:   %v\nbatch: %v", c.q, args, rowRes, batchRes)
				}
				continue
			}
			sortedEqual(t, batchRes, rowRes)
		}
	}
}

// TestBatchJoinBigTables pushes the batch join past several batch
// boundaries on both sides, with skew (one hot key), NULL keys scattered
// through both inputs, and a parallel build over a column-stored build
// side.
func TestBatchJoinBigTables(t *testing.T) {
	db := Open()
	if err := db.ExecScript(`
CREATE TABLE FACT (id INT NOT NULL, k INT, v INT, PRIMARY KEY (id));
CREATE TABLE DIM (k INT NOT NULL, name VARCHAR, grp INT, PRIMARY KEY (k));
`); err != nil {
		t.Fatal(err)
	}
	fact, err := db.Store().Table("FACT")
	if err != nil {
		t.Fatal(err)
	}
	dim, err := db.Store().Table("DIM")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := dim.Insert(types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i)), types.NewInt(int64(i % 5)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7000; i++ {
		k := types.NewInt(int64(i % 900)) // ~1/3 of probe keys miss
		if i%10 == 0 {
			k = types.NewInt(7) // hot key
		}
		if i%37 == 0 {
			k = types.Null
		}
		if _, err := fact.Insert(types.Row{types.NewInt(int64(i)), k, types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE DIM SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE FACT SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT f.id, d.name FROM FACT f, DIM d WHERE f.k = d.k AND d.grp = 2",
		"SELECT d.grp, COUNT(*), SUM(f.v) FROM FACT f, DIM d WHERE f.k = d.k GROUP BY d.grp",
		"SELECT COUNT(*) FROM FACT f, DIM d WHERE f.k = d.k AND f.v > d.grp * 10",
	}
	run := func(parallel bool) {
		prev := db.OptOptions
		defer func() { db.OptOptions = prev }()
		db.OptOptions.ParallelScan = parallel
		db.OptOptions.ParallelWorkers = 4
		db.OptOptions.ParallelMinRows = 1
		for _, q := range queries {
			rowRes, batchRes, _ := runBoth(t, db, q)
			sortedEqual(t, batchRes, rowRes)
		}
	}
	run(false)
	run(true) // morsel-parallel hash build over the column-stored build side
}

// TestJoinParallelMinRows pins the admission threshold: joins over tables
// below Options.ParallelMinRows must not touch the worker pool even with
// parallelism enabled, while a large build side above the threshold does.
func TestJoinParallelMinRows(t *testing.T) {
	db := orgDB(t) // tiny tables
	toColumnStorage(t, db)
	db.OptOptions.ParallelScan = true
	db.OptOptions.ParallelWorkers = 4
	// Default ParallelMinRows (16384) far exceeds every org table.
	res, err := db.Query("SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno")
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PoolWorkers != 0 || res.Counters.PoolFallbacks != 0 {
		t.Fatalf("tiny join touched the worker pool: %+v", res.Counters)
	}

	// Join on non-indexed keys so the planner picks a hash join (a PK key
	// would compile to an index nested-loop instead).
	big := Open()
	if err := big.ExecScript(`
CREATE TABLE F (id INT NOT NULL, k INT, PRIMARY KEY (id));
CREATE TABLE D (id INT NOT NULL, k INT, PRIMARY KEY (id));
`); err != nil {
		t.Fatal(err)
	}
	ftd, err := big.Store().Table("F")
	if err != nil {
		t.Fatal(err)
	}
	dtd, err := big.Store().Table("D")
	if err != nil {
		t.Fatal(err)
	}
	// The planner builds on the smaller input, D: give it two column-store
	// segments so the build has more than one morsel to hand out.
	for i := 0; i < 12000; i++ {
		if _, err := ftd.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 6000))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		if _, err := dtd.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"F", "D"} {
		if _, err := big.Exec("ALTER TABLE " + tbl + " SET STORAGE COLUMN"); err != nil {
			t.Fatal(err)
		}
	}
	big.OptOptions.ParallelScan = true
	big.OptOptions.ParallelWorkers = 4
	big.OptOptions.ParallelMinRows = 1
	res, err = big.Query("SELECT COUNT(*) FROM F f, D d WHERE f.k = d.k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PoolWorkers == 0 && res.Counters.PoolFallbacks == 0 {
		t.Fatalf("large parallel join never requested pool workers: %+v", res.Counters)
	}
	if res.Counters.JoinBuildRows != 6000 || res.Counters.JoinProbeRows != 12000 {
		t.Fatalf("join_build=%d join_probe=%d, want 6000 and 12000 (counters: %+v)",
			res.Counters.JoinBuildRows, res.Counters.JoinProbeRows, res.Counters)
	}
}

// TestJoinCountersRowBatchParity checks that both executors account the
// same build/probe row counts (NULL keys excluded on both sides).
func TestJoinCountersRowBatchParity(t *testing.T) {
	db := orgDB(t)
	const q = "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno"
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	db.OptOptions.Vectorize = false
	rowRes, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.OptOptions.Vectorize = true
	batchRes, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The planner builds on the smaller input, DEPT (3 rows), and probes
	// with EMP (5 rows, one NULL edno → 4 keyed); both executors must
	// account identically.
	for _, res := range []*Result{rowRes, batchRes} {
		if res.Counters.JoinBuildRows != 3 {
			t.Fatalf("join_build=%d, want 3 (counters: %+v)", res.Counters.JoinBuildRows, res.Counters)
		}
		if res.Counters.JoinProbeRows != 4 {
			t.Fatalf("join_probe=%d, want 4 (counters: %+v)", res.Counters.JoinProbeRows, res.Counters)
		}
	}
}

// TestBatchJoinConcurrentRace hammers one cached batch-join plan from many
// goroutines against a bounded shared pool with the admission threshold
// forced to 1, so parallel builds, pool admission and sequential fallbacks
// all interleave under the race detector.
func TestBatchJoinConcurrentRace(t *testing.T) {
	vexec.SetWorkers(4)
	defer vexec.SetWorkers(0)

	db := Open()
	if err := db.ExecScript(`
CREATE TABLE FACT (id INT NOT NULL, k INT, v INT, PRIMARY KEY (id));
CREATE TABLE DIM (k INT NOT NULL, grp INT, PRIMARY KEY (k));
`); err != nil {
		t.Fatal(err)
	}
	fact, _ := db.Store().Table("FACT")
	dim, _ := db.Store().Table("DIM")
	for i := 0; i < 400; i++ {
		if _, err := dim.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		if _, err := fact.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 500)), types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE DIM SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE FACT SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	db.OptOptions.ParallelScan = true
	db.OptOptions.ParallelWorkers = 4
	db.OptOptions.ParallelMinRows = 1
	stmt, err := db.Prepare("SELECT d.grp, COUNT(*), SUM(f.v) FROM FACT f, DIM d WHERE f.k = d.k AND f.v >= ? GROUP BY d.grp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Query(types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := stmt.Query(types.NewInt(0))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("goroutine %d: %d groups, want %d", g, len(res.Rows), len(want.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := vexec.Shared.Stats(); st.Peak > 4 {
		t.Fatalf("pool peak %d exceeded configured bound 4", st.Peak)
	}
}
