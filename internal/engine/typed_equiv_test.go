package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xnf/internal/types"
)

// typedCorpus extends the golden corpus with shapes the typed kernels
// specialize: NULL-heavy columns, int64 overflow (wrapping must match the
// row executor bit for bit), mixed int/float comparisons and arithmetic,
// string and boolean columns, and null-bitmap-driven IS [NOT] NULL.
var typedCorpus = []string{
	"SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM TT",
	"SELECT g, COUNT(*), SUM(f), MIN(f), MAX(f) FROM TT GROUP BY g",
	"SELECT COUNT(*) FROM TT WHERE v > 500",
	"SELECT COUNT(*) FROM TT WHERE f > 25.5",
	"SELECT COUNT(*) FROM TT WHERE v > f",              // int column vs float column
	"SELECT COUNT(*) FROM TT WHERE v >= 10 AND f < 80", // two prunable conjuncts
	"SELECT COUNT(*) FROM TT WHERE v > 3.5",            // int column vs float literal
	"SELECT COUNT(*) FROM TT WHERE f = 10",             // float column vs int literal
	"SELECT ok, COUNT(g) FROM TT GROUP BY ok",          // NULL-skipping COUNT(col)
	"SELECT COUNT(*) FROM TT WHERE g IS NULL",
	"SELECT COUNT(*) FROM TT WHERE g IS NOT NULL AND v < 300",
	"SELECT SUM(v + big), SUM(big * 3) FROM TT",        // int64 overflow wraps identically
	"SELECT SUM(v * 2 + 1), SUM(f / 2) FROM TT",        // typed arithmetic chains
	"SELECT MIN(s), MAX(s), COUNT(DISTINCT s) FROM TT", // string column aggregates
	"SELECT COUNT(*) FROM TT WHERE s >= 'tag3'",
	"SELECT ok, COUNT(*) FROM TT GROUP BY ok", // boolean group keys
	"SELECT COUNT(*) FROM TT WHERE ok = TRUE",
	"SELECT -v, -f FROM TT WHERE v < 5",
	"SELECT v - big FROM TT WHERE v > 995",
	"SELECT g + 1 FROM TT WHERE v < 10",       // NULL propagation through typed arith
	"SELECT COUNT(*) FROM TT WHERE v % 7 = 0", // typed modulo
	"SELECT COUNT(*) FROM TT WHERE 100 > v",   // scalar on the left
}

// typedDB builds a column-stored table covering every kernel type: int key,
// nullable int group, float measure, string tag, boolean flag, and an int
// column near the int64 limits for overflow parity.
func typedDB(t testing.TB, n int) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript("CREATE TABLE TT (v INT NOT NULL, g INT, f FLOAT, s VARCHAR, ok BOOLEAN, big INT, PRIMARY KEY (v))"); err != nil {
		t.Fatal(err)
	}
	td, err := db.Store().Table("TT")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g := types.NewInt(int64(i % 11))
		if i%7 == 0 {
			g = types.Null
		}
		big := types.NewInt((int64(1) << 62) + int64(i)) // SUM wraps
		row := types.Row{
			types.NewInt(int64(i)),
			g,
			types.NewFloat(float64(i%97) / 1.7),
			types.NewString(fmt.Sprintf("tag%d", i%13)),
			types.NewBool(i%3 == 0),
			big,
		}
		if _, err := td.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE TT SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTypedKernelEquivalence is the typed-vs-row gate: every query runs
// (1) on the row executor, the reference interpreter, and (2) batched over
// typed segment views — both must agree exactly, on both the base corpus
// tables and the typed table.
func TestTypedKernelEquivalence(t *testing.T) {
	check := func(t *testing.T, db *Database, queries []string) {
		t.Helper()
		prev := db.OptOptions
		defer func() { db.OptOptions = prev }()
		for _, q := range queries {
			db.OptOptions.Vectorize = false
			want := queryStrings(t, db, q)
			db.OptOptions.Vectorize = true
			typed := queryStrings(t, db, q)
			sortedEqual(t, typed, want)
		}
	}
	t.Run("org-corpus", func(t *testing.T) {
		db := orgDB(t)
		toColumnStorage(t, db)
		check(t, db, equivCorpus)
	})
	t.Run("typed-corpus", func(t *testing.T) {
		check(t, typedDB(t, 2000), typedCorpus)
	})
	t.Run("typed-corpus-parallel", func(t *testing.T) {
		db := typedDB(t, 2000)
		db.OptOptions.ParallelMinRows = 1
		db.OptOptions.ParallelWorkers = 4
		check(t, db, typedCorpus)
	})
}

// TestTypedKernelErrorParity pins typed-vs-row error behavior: division
// by zero inside typed arithmetic must surface (or stay guarded) exactly
// like the row path, and comparing incompatible types must error
// identically instead of being silently mis-pruned or mis-compared.
func TestTypedKernelErrorParity(t *testing.T) {
	db := typedDB(t, 100)
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	cases := []struct {
		q       string
		wantErr bool
	}{
		{"SELECT COUNT(*) FROM TT WHERE v / (v - v) > 0", true},
		{"SELECT COUNT(*) FROM TT WHERE v - v <> 0 AND v / (v - v) > 0", false},
		{"SELECT COUNT(*) FROM TT WHERE s > 5", true},  // VARCHAR vs INTEGER comparison
		{"SELECT COUNT(*) FROM TT WHERE ok > 1", true}, // BOOLEAN vs INTEGER comparison
		{"SELECT SUM(s + 1) FROM TT", true},            // arithmetic on strings
		{"SELECT COUNT(*) FROM TT WHERE f % 2 = 0", true},
	}
	for _, c := range cases {
		for _, typed := range []bool{false, true} {
			db.OptOptions.Vectorize = typed
			_, err := db.Query(c.q)
			if c.wantErr && err == nil {
				t.Errorf("typed=%v %q: expected an error", typed, c.q)
			}
			if !c.wantErr && err != nil {
				t.Errorf("typed=%v %q: unexpected error %v", typed, c.q, err)
			}
		}
	}
}

// pruneDB builds a multi-segment column table whose id column is sorted by
// insertion order — the shape zone maps exploit.
func pruneDB(t testing.TB, n int) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript("CREATE TABLE P (id INT NOT NULL, grp INT, val FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	td, err := db.Store().Table("P")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 13)), types.NewFloat(float64(i) / 3)}
		if _, err := td.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE P SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	return db
}

// queryWithCounters runs a query and returns rendered rows plus counters.
func queryWithCounters(t *testing.T, db *Database, q string, args ...types.Value) ([]string, int64) {
	t.Helper()
	res, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r.String())
	}
	return out, res.Counters.SegmentsPruned
}

// TestZoneMapPruning checks that selective range and equality filters on a
// sorted-ish column skip whole segments — and that pruned results agree
// exactly with pruning disabled, including through prepared statements with
// parameters and NULL parameters.
func TestZoneMapPruning(t *testing.T) {
	const n = 20000 // 5 segments of 4096
	db := pruneDB(t, n)
	segs, _ := db.Store().Table("P")
	total := segs.Segments()
	if total < 4 {
		t.Fatalf("expected a multi-segment table, got %d segments", total)
	}
	cases := []struct {
		q         string
		minPruned int64
	}{
		{"SELECT COUNT(*), SUM(val) FROM P WHERE id >= 18000", int64(total) - 1},
		{"SELECT COUNT(*) FROM P WHERE id < 3000", int64(total) - 1},
		{"SELECT grp, COUNT(*) FROM P WHERE id > 4096 AND id <= 8192 GROUP BY grp", int64(total) - 2},
		// Equality pruning on a non-indexed column (the PK takes the index
		// path and never reaches the scan): val grows with id, so one
		// segment covers any given value.
		{"SELECT COUNT(*) FROM P WHERE val = 1000", int64(total) - 1},
		{"SELECT COUNT(*) FROM P WHERE id >= 999999", int64(total)}, // nothing qualifies anywhere
	}
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	for _, c := range cases {
		db.OptOptions.ZonePruning = false
		want, pruned0 := queryWithCounters(t, db, c.q)
		if pruned0 != 0 {
			t.Fatalf("%q: pruned %d segments with pruning disabled", c.q, pruned0)
		}
		db.OptOptions.ZonePruning = true
		got, pruned := queryWithCounters(t, db, c.q)
		sortedEqual(t, got, want)
		if pruned < c.minPruned {
			t.Errorf("%q: pruned %d segments, want >= %d (of %d)", c.q, pruned, c.minPruned, total)
		}
	}

	// Prepared statements resolve bounds from the parameter frame at Open.
	stmt, err := db.Prepare("SELECT COUNT(*) FROM P WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(types.NewInt(18000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SegmentsPruned < int64(total)-1 {
		t.Errorf("prepared: pruned %d segments, want >= %d", res.Counters.SegmentsPruned, total-1)
	}
	if res.Rows[0][0].I != 2000 {
		t.Errorf("prepared: COUNT = %v, want 2000", res.Rows[0][0])
	}
	// A NULL parameter makes the comparison Unknown everywhere: every
	// segment prunes and the result is an empty aggregate input.
	res, err = stmt.Query(types.Null)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SegmentsPruned != int64(total) {
		t.Errorf("NULL param: pruned %d segments, want all %d", res.Counters.SegmentsPruned, total)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("NULL param: COUNT = %v, want 0", res.Rows[0][0])
	}
}

// TestZoneMapPruningUnderDML drives pruning correctness while the table
// mutates: updates widen zones incrementally, deletes stay conservative,
// rolled-back statements must leave zones that never prune live rows, and
// ANALYZE re-tightens. Every probe compares pruned vs unpruned results.
func TestZoneMapPruningUnderDML(t *testing.T) {
	db := pruneDB(t, 13000) // 4 segments
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	probes := []string{
		"SELECT COUNT(*), SUM(val) FROM P WHERE id >= 12000",
		"SELECT COUNT(*) FROM P WHERE id < 100",
		"SELECT grp, COUNT(*) FROM P WHERE id > 999900 GROUP BY grp",
		"SELECT COUNT(*) FROM P WHERE id = 1000000",
	}
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			db.OptOptions.ZonePruning = false
			want, _ := queryWithCounters(t, db, q)
			db.OptOptions.ZonePruning = true
			got, _ := queryWithCounters(t, db, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after %s, %q: pruned %v, unpruned %v", step, q, got, want)
			}
		}
	}
	check("initial")

	// Move a row from the first segment out past every zone: the first
	// segment's zone widens (no stale pruning), and id = 1000000 must be
	// found even though it lives in a segment whose original range was
	// [0, 4095].
	if _, err := db.Exec("UPDATE P SET id = 1000000 WHERE id = 50"); err != nil {
		t.Fatal(err)
	}
	check("update widening first segment")
	db.OptOptions.ZonePruning = true
	got, _ := queryWithCounters(t, db, "SELECT COUNT(*) FROM P WHERE id = 1000000")
	if got[0] != "1" {
		t.Fatalf("widened row not found under pruning: %v", got)
	}

	// Delete the tail range; conservative zones may stop pruning but must
	// never drop rows. ANALYZE then recomputes exact zones.
	if _, err := db.Exec("DELETE FROM P WHERE id >= 12000 AND id < 13000"); err != nil {
		t.Fatal(err)
	}
	check("tail delete")
	if _, err := db.Exec("ANALYZE P"); err != nil {
		t.Fatal(err)
	}
	check("analyze after delete")

	// A failing multi-row INSERT (duplicate PK in the second row) rolls
	// back the first row; the revive/undo path widens zones, so the
	// transient row must neither survive nor corrupt pruning.
	if _, err := db.Exec("INSERT INTO P VALUES (2000000, 1, 1.0), (100, 1, 1.0)"); err == nil {
		t.Fatal("duplicate key insert unexpectedly succeeded")
	}
	check("rolled-back insert")
	db.OptOptions.ZonePruning = true
	got, _ = queryWithCounters(t, db, "SELECT COUNT(*) FROM P WHERE id = 2000000")
	if got[0] != "0" {
		t.Fatalf("rolled-back row visible under pruning: %v", got)
	}

	// Fresh inserts into the tail keep qualifying.
	if _, err := db.Exec("INSERT INTO P VALUES (3000000, 2, 9.5)"); err != nil {
		t.Fatal(err)
	}
	probes = append(probes, "SELECT COUNT(*) FROM P WHERE id >= 3000000")
	check("fresh tail insert")
}

// TestDeletedSegmentSkipAndCompact covers the delete-heavy satellite: scans
// skip fully-deleted segments without decoding them, ANALYZE hollows their
// payload (slot space preserved), and the table keeps answering correctly —
// including fresh inserts that land in a hollowed tail segment.
func TestDeletedSegmentSkipAndCompact(t *testing.T) {
	db := pruneDB(t, 13000) // 4 segments: [0,4096) [4096,8192) [8192,12288) [12288,13000)
	td, _ := db.Store().Table("P")

	// Wipe out the second segment entirely, plus the partial tail.
	if _, err := db.Exec("DELETE FROM P WHERE id >= 4096 AND id < 8192"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM P WHERE id >= 12288"); err != nil {
		t.Fatal(err)
	}
	want := queryStrings(t, db, "SELECT COUNT(*), MIN(id), MAX(id) FROM P")
	if want[0] != fmt.Sprintf("%d|%d|%d", 2*4096, 0, 12287) {
		t.Fatalf("unexpected baseline after deletes: %v", want)
	}

	if _, err := db.Exec("ANALYZE P"); err != nil {
		t.Fatal(err)
	}
	if h := td.HollowSegments(); h != 2 {
		t.Fatalf("ANALYZE hollowed %d segments, want 2", h)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT COUNT(*), MIN(id), MAX(id) FROM P"), want)

	// Appends land in the hollowed tail segment: storage is rebuilt on
	// demand and the rows are immediately visible.
	if _, err := db.Exec("INSERT INTO P VALUES (12500, 5, 1.5), (12501, 5, 2.5)"); err != nil {
		t.Fatal(err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT id FROM P WHERE id >= 12288"),
		[]string{"12500", "12501"})
	// The reused tail is live again; the fully-deleted middle segment stays hollow.
	if h := td.HollowSegments(); h != 1 {
		t.Fatalf("expected 1 hollow segment after tail reuse, got %d", h)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT COUNT(*) FROM P WHERE id >= 4096 AND id < 8192"), []string{"0"})
}

// TestVexecPoolRace hammers cached typed and parallel plans from many
// goroutines against concurrent DML: the shared slice pools must never
// leak one execution's data into another (reset-on-put), which the race
// detector and the result sanity checks verify together. Once the writer
// stops, the typed plans must agree with the row executor.
func TestVexecPoolRace(t *testing.T) {
	db := typedDB(t, 6000)
	db.OptOptions.ParallelMinRows = 1
	db.OptOptions.ParallelWorkers = 4
	stmtTyped, err := db.Prepare("SELECT g, COUNT(*), SUM(v), SUM(f) FROM TT WHERE v >= ? GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	stmtProj, err := db.Prepare("SELECT v * 2, s, v + f FROM TT WHERE v < ?")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec("UPDATE TT SET f = f + 1 WHERE v = ?", types.NewInt(int64(i%6000))); err != nil {
				errs <- err
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				res, err := stmtTyped.Query(types.NewInt(int64(100 * (g % 4))))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) == 0 {
					errs <- fmt.Errorf("goroutine %d: empty aggregate", g)
					return
				}
				pres, err := stmtProj.Query(types.NewInt(50))
				if err != nil {
					errs <- err
					return
				}
				if len(pres.Rows) != 50 {
					errs <- fmt.Errorf("goroutine %d: projection returned %d rows, want 50", g, len(pres.Rows))
					return
				}
				for _, r := range pres.Rows {
					if !strings.HasPrefix(r[1].S, "tag") {
						errs <- fmt.Errorf("goroutine %d: corrupted string column %q", g, r[1].S)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// No float SUM here: the parallel fold may differ from the sequential
	// row fold by an ulp.
	for _, q := range []string{
		"SELECT g, COUNT(*), SUM(v), MIN(f), MAX(f) FROM TT WHERE v >= 100 GROUP BY g",
		"SELECT v * 2, s, v + f FROM TT WHERE v < 50",
	} {
		typed := queryStrings(t, db, q)
		db.OptOptions.Vectorize = false
		sortedEqual(t, typed, queryStrings(t, db, q))
		db.OptOptions.Vectorize = true
	}
}
