package wire

import (
	"net"
	"testing"
	"testing/quick"

	"xnf/internal/engine"
	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/types"
	"xnf/internal/workload"
)

// testServer starts an org-database server. Configure funcs run before
// Serve starts, so tests tweaking Server fields (timeouts, options) never
// race the connection goroutines reading them.
func testServer(t testing.TB, configure ...func(*Server)) (*Server, string) {
	t.Helper()
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 8, EmpsPerDept: 4, ProjsPerDept: 2,
		Skills: 20, SkillsPerEmp: 2, SkillsPerProj: 1,
		ArcFraction: 0.5, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	for _, f := range configure {
		f(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null, types.NewInt(0), types.NewInt(-1234567890123),
		types.NewFloat(3.25), types.NewFloat(-0.0), types.NewString(""),
		types.NewString("hello 'world'"), types.NewBool(true), types.NewBool(false),
	}
	for _, v := range vals {
		buf := appendValue(nil, v)
		got, rest, err := decodeValue(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode(%v): %v, rest=%d", v, err, len(rest))
		}
		if got.T != v.T || !types.Equal(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestRowCodecQuick(t *testing.T) {
	f := func(ints []int64, strs []string, f64 float64) bool {
		var row types.Row
		for _, i := range ints {
			row = append(row, types.NewInt(i))
		}
		for _, s := range strs {
			row = append(row, types.NewString(s))
		}
		row = append(row, types.NewFloat(f64), types.Null)
		in := []TaggedRow{{CompID: 3, Row: row}, {CompID: 0, Row: types.Row{}}}
		out, err := decodeRows(encodeRows(in))
		if err != nil || len(out) != 2 || out[0].CompID != 3 {
			return false
		}
		if !types.EqualRows(out[0].Row, row) {
			return false
		}
		// Exact type preservation matters for keys.
		for i := range row {
			if out[0].Row[i].T != row[i].T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueryCOOverTCP(t *testing.T) {
	_, addr := testServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cache, err := client.QueryCO("deps_ARC", ShipWhole())
	if err != nil {
		t.Fatal(err)
	}
	xdept, ok := cache.Component("xdept")
	if !ok || xdept.Len() != 4 {
		t.Fatalf("xdept len = %d, want 4 ARC departments", xdept.Len())
	}
	xemp, _ := cache.Component("xemp")
	if xemp.Len() != 16 {
		t.Errorf("xemp len = %d", xemp.Len())
	}
	// Every employee is connected to its department.
	for _, e := range xemp.Objects() {
		if len(e.Parents("employment")) != 1 {
			t.Fatalf("employee %s has %d departments", e.Key(), len(e.Parents("employment")))
		}
	}
	if client.Stats.RoundTrips > 3 {
		t.Errorf("whole-CO shipping took %d round trips, want <= 3", client.Stats.RoundTrips)
	}
}

// TestQueryCOFollowsDBOptions checks that CO extraction over the wire runs
// under the database's optimizer options: a database switched to the naive
// strategy compiles its plan templates once and serves later QueryCOs from
// the cache, with the same CO as the default options produce.
func TestQueryCOFollowsDBOptions(t *testing.T) {
	count := func(addr string) int {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		cache, err := client.QueryCO("deps_ARC", ShipWhole())
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, comp := range cache.Components() {
			total += comp.Len()
		}
		for _, rel := range cache.Relationships() {
			total += rel.Connections()
		}
		return total
	}
	_, defAddr := testServer(t)
	want := count(defAddr)

	srv, addr := testServer(t, func(s *Server) {
		s.DB.OptOptions = opt.NaiveOptions()
		s.DB.RewriteOptions = rewrite.NoRewrite()
	})
	for i := 0; i < 3; i++ {
		if got := count(addr); got != want {
			t.Fatalf("naive extraction %d: %d tuples+connections, default %d", i, got, want)
		}
	}
	if n := srv.DB.Metrics.COPlanCompiles.Load(); n != 1 {
		t.Errorf("compiled %d plan-template sets for 3 QueryCOs, want 1", n)
	}
	if n := srv.DB.Metrics.COPlanCacheHits.Load(); n != 2 {
		t.Errorf("plan-template cache hits = %d, want 2", n)
	}
}

func TestShipModesAgreeAndCountRoundTrips(t *testing.T) {
	_, addr := testServer(t)

	fetch := func(mode ShipMode) (*Client, int) {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		cache, err := client.QueryCO("deps_ARC", mode)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, comp := range cache.Components() {
			total += comp.Len()
		}
		for _, rel := range cache.Relationships() {
			total += rel.Connections()
		}
		return client, total
	}

	whole, wholeTotal := fetch(ShipWhole())
	block, blockTotal := fetch(ShipBlocks(10))
	tuple, tupleTotal := fetch(ShipTupleAtATime())
	if wholeTotal != blockTotal || wholeTotal != tupleTotal {
		t.Fatalf("ship modes disagree: %d %d %d", wholeTotal, blockTotal, tupleTotal)
	}
	if !(tuple.Stats.RoundTrips > block.Stats.RoundTrips && block.Stats.RoundTrips > whole.Stats.RoundTrips) {
		t.Errorf("round trips should be tuple(%d) > block(%d) > whole(%d)",
			tuple.Stats.RoundTrips, block.Stats.RoundTrips, whole.Stats.RoundTrips)
	}
	if tuple.Stats.TuplesRecv == 0 || tuple.Stats.RoundTrips < tuple.Stats.TuplesRecv {
		t.Errorf("tuple-at-a-time: %d round trips for %d tuples", tuple.Stats.RoundTrips, tuple.Stats.TuplesRecv)
	}
}

func TestRemoteSQLAndExec(t *testing.T) {
	_, addr := testServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rows, err := client.Query("SELECT dno FROM DEPT WHERE loc = 'ARC' ORDER BY dno")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0][0].I != 1 {
		t.Fatalf("remote query rows = %v", rows)
	}
	n, err := client.Exec("UPDATE EMP SET sal = sal + 1 WHERE eno = 1")
	if err != nil || n != 1 {
		t.Fatalf("remote exec: %d, %v", n, err)
	}
	// Write-back path: cache changes applied through the wire.
	cache, err := client.QueryCO("deps_ARC", ShipWhole())
	if err != nil {
		t.Fatal(err)
	}
	xemp, _ := cache.Component("xemp")
	e := xemp.Objects()[0]
	if err := cache.Set(e, "ename", types.NewString("remote")); err != nil {
		t.Fatal(err)
	}
	if err := cache.SaveChanges(func(sql string) error {
		_, err := client.Exec(sql)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rows, err = client.Query("SELECT COUNT(*) FROM EMP WHERE ename = 'remote'")
	if err != nil || rows[0][0].I != 1 {
		t.Fatalf("write-back over wire failed: %v, %v", rows, err)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := testServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.QueryCO("nosuch", ShipWhole()); err == nil {
		t.Error("unknown view should fail")
	}
	// The connection survives an error frame.
	if _, err := client.Query("SELECT dno FROM DEPT WHERE dno = 1"); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
	if _, err := client.Query("SELECT broken FROM nowhere"); err == nil {
		t.Error("bad SQL should fail")
	}
}
