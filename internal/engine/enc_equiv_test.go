package engine

import (
	"fmt"
	"testing"

	"xnf/internal/colstore"
	"xnf/internal/types"
)

// encCorpus stresses the shapes segment encodings specialize: equality and
// ranges on a low-cardinality dictionary column (probe keys present and
// absent from the dictionary), a high-cardinality column that must stay
// raw, narrow / negative / wide int ranges (bit-packing and its refusal),
// NULL-bearing dict columns, grouping and joining on encoded keys.
var encCorpus = []string{
	// Dictionary strings: equality, both sides of a range, absent keys.
	"SELECT COUNT(*) FROM ET WHERE lc = 'val3'",
	"SELECT COUNT(*) FROM ET WHERE lc <> 'val3'",
	"SELECT COUNT(*) FROM ET WHERE lc >= 'val2' AND lc < 'val7'",
	"SELECT COUNT(*) FROM ET WHERE lc = 'absent'",
	"SELECT COUNT(*) FROM ET WHERE lc > 'val'",  // between dictionary entries
	"SELECT COUNT(*) FROM ET WHERE lc < 'val0'", // below every entry
	"SELECT COUNT(*) FROM ET WHERE lc >= 'zzz'", // above every entry
	"SELECT COUNT(*) FROM ET WHERE lc <= 'val4'",
	"SELECT lc, COUNT(*) FROM ET GROUP BY lc",
	"SELECT COUNT(DISTINCT lc), MIN(lc), MAX(lc) FROM ET",
	// High cardinality: stays raw, results must agree regardless.
	"SELECT COUNT(*) FROM ET WHERE hc = 'u123'",
	"SELECT COUNT(DISTINCT hc) FROM ET",
	// Packed ints: narrow, negative, and a range too wide to pack.
	"SELECT COUNT(*) FROM ET WHERE nar = 3",
	"SELECT SUM(nar), MIN(nar), MAX(nar), AVG(nar) FROM ET",
	"SELECT COUNT(*) FROM ET WHERE nar > 2.5", // packed int vs float literal
	"SELECT COUNT(*) FROM ET WHERE neg < -10",
	"SELECT SUM(neg) FROM ET WHERE neg >= -50 AND neg < 0",
	"SELECT MIN(wide), MAX(wide), SUM(wide) FROM ET",
	"SELECT COUNT(*) FROM ET WHERE wide > 0",
	"SELECT nar, COUNT(*), SUM(neg) FROM ET GROUP BY nar",
	// NULLs ride the dictionary's null bitmap, never a sentinel value.
	"SELECT COUNT(*) FROM ET WHERE lcn IS NULL",
	"SELECT COUNT(*) FROM ET WHERE lcn IS NOT NULL AND lcn <= 'n2'",
	"SELECT COUNT(*) FROM ET WHERE lcn = 'n1'",
	"SELECT lcn, COUNT(*) FROM ET GROUP BY lcn",
	// Hash join keyed on encoded columns (dict string, packed int).
	"SELECT a.lc, COUNT(*) FROM ET a, ET b WHERE a.lc = b.lc AND a.id = b.id GROUP BY a.lc",
	"SELECT COUNT(*) FROM ET a, ET b WHERE a.nar = b.nar AND a.id < 100 AND b.id < 100",
	// Mixed predicates across encodings.
	"SELECT lc, SUM(nar) FROM ET WHERE neg < -5 AND lc >= 'val1' GROUP BY lc",
	"SELECT COUNT(*) FROM ET WHERE lc = 'val5' AND nar = 5",
}

// encDB builds a column-stored table covering every encoding decision:
// a low-cardinality string (dictionary), a high-cardinality string (raw),
// a narrow int (packed), a negative range (frame-of-reference packing), a
// range wider than MaxPackBits (raw), and a NULL-bearing low-card string.
// ANALYZE runs Maintain, which encodes full segments — or leaves them raw
// when SetSegmentEncoding(false) is in effect.
func encDB(t testing.TB, n int) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript("CREATE TABLE ET (id INT NOT NULL, lc VARCHAR, hc VARCHAR, nar INT, neg INT, wide INT, lcn VARCHAR, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	td, err := db.Store().Table("ET")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lcn := types.NewString(fmt.Sprintf("n%d", i%5))
		if i%3 == 0 {
			lcn = types.Null
		}
		wide := int64(1) << 60 // spread > 2^48: packing must refuse
		if i%2 == 0 {
			wide = -wide + int64(i)
		}
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("val%d", i%9)),
			types.NewString(fmt.Sprintf("u%d", i)),
			types.NewInt(int64(i % 10)),
			types.NewInt(-int64(i%100) - 1),
			types.NewInt(wide),
			lcn,
		}
		if _, err := td.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE ET SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEncodedKernelEquivalence is the encoded-vs-raw-vs-row gate: the same
// corpus runs on (1) the row executor, (2) a column store whose segments
// were kept raw (encoding disabled at Maintain), and (3) a column store
// with encoded segments, each batched over typed segment views — every
// path must agree exactly.
func TestEncodedKernelEquivalence(t *testing.T) {
	defer colstore.SetSegmentEncoding(colstore.SetSegmentEncoding(false))
	rawDB := encDB(t, colstore.SegRows+1500)
	if td, _ := rawDB.Store().Table("ET"); td != nil {
		if d, p := td.EncodedColumns(); d != 0 || p != 0 {
			t.Fatalf("encoding disabled but dict=%d pack=%d columns encoded", d, p)
		}
	}
	colstore.SetSegmentEncoding(true)
	encDB := encDB(t, colstore.SegRows+1500)
	td, _ := encDB.Store().Table("ET")
	if d, p := td.EncodedColumns(); d == 0 || p == 0 {
		t.Fatalf("expected both encodings in play, dict=%d pack=%d", d, p)
	}

	prevRaw, prevEnc := rawDB.OptOptions, encDB.OptOptions
	defer func() { rawDB.OptOptions, encDB.OptOptions = prevRaw, prevEnc }()
	for _, q := range encCorpus {
		encDB.OptOptions.Vectorize = false
		want := queryStrings(t, encDB, q)

		rawDB.OptOptions.Vectorize = false
		sortedEqual(t, queryStrings(t, rawDB, q), want)
		rawDB.OptOptions.Vectorize = true
		sortedEqual(t, queryStrings(t, rawDB, q), want)

		encDB.OptOptions.Vectorize = true
		sortedEqual(t, queryStrings(t, encDB, q), want)
	}
}

// TestEncodedDMLReencode interleaves DML with Maintain re-encoding: updates
// and deletes force encoded segments back to raw in place, fresh inserts
// land in the unencoded tail, ANALYZE re-encodes what refilled — and after
// every step the typed path over whatever mix of encoded/raw segments
// exists must agree with the row engine.
func TestEncodedDMLReencode(t *testing.T) {
	db := encDB(t, 2*colstore.SegRows+300)
	td, _ := db.Store().Table("ET")
	if d, _ := td.EncodedColumns(); d == 0 {
		t.Fatal("fixture did not encode")
	}
	probes := []string{
		"SELECT lc, COUNT(*) FROM ET GROUP BY lc",
		"SELECT COUNT(*), SUM(nar) FROM ET WHERE lc >= 'val4'",
		"SELECT COUNT(*) FROM ET WHERE lcn IS NULL",
		"SELECT MIN(neg), MAX(wide) FROM ET",
		"SELECT COUNT(*) FROM ET WHERE lc = 'patched'",
	}
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			db.OptOptions.Vectorize = false
			want := queryStrings(t, db, q)
			db.OptOptions.Vectorize = true
			got := queryStrings(t, db, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after %s, %q: typed %v, row %v", step, q, got, want)
			}
		}
	}
	check("initial encode")

	// In-place update inside an encoded segment: the column reverts to raw
	// (a value outside the dictionary must be storable) without disturbing
	// its neighbors.
	if _, err := db.Exec("UPDATE ET SET lc = 'patched' WHERE id >= 100 AND id < 160"); err != nil {
		t.Fatal(err)
	}
	check("update inside encoded segment")

	// Deletes mark rows dead; surviving encoded rows must still decode.
	if _, err := db.Exec("DELETE FROM ET WHERE id >= 4000 AND id < 4200"); err != nil {
		t.Fatal(err)
	}
	check("delete straddling a segment boundary")

	// Fresh inserts go to the unencoded tail.
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO ET VALUES (%d, 'val1', 'ux', 4, -7, 12, 'n2')", 10_000_000)); err != nil {
		t.Fatal(err)
	}
	check("tail insert")

	// Maintain re-encodes whatever is full and intact again.
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	if d, p := td.EncodedColumns(); d == 0 || p == 0 {
		t.Fatalf("re-encode after DML left dict=%d pack=%d", d, p)
	}
	check("re-analyze")

	// Second wave: mutate a re-encoded segment again, then re-encode again.
	if _, err := db.Exec("UPDATE ET SET nar = 77 WHERE id >= 5000 AND id < 5050"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	check("second mutate and re-analyze")
}
