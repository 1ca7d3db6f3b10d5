package main

import (
	"fmt"
	"math/rand"
	"time"

	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/types"
	"xnf/internal/wire"
)

// scan_agg is a reporting workload on the column store: each operation is
// a report of three prepared queries over a generated fact table, streamed
// through the cursor protocol. One session, closed loop.

const (
	factRows   = 250_000
	factGroups = 64 // distinct grp values, one dimension row each
	factTags   = 12
	regions    = 8
	// windowRows is the key range of q1, a quarter of the table, so zone
	// maps can skip most segments.
	windowRows = factRows / 4
	argChoices = 8 // distinct argument values per parameterized query; at most factTags
)

var scanQueries = [3]string{
	"SELECT grp, COUNT(*), SUM(val) FROM F WHERE id >= ? AND id < ? GROUP BY grp",
	"SELECT region, COUNT(*), SUM(val) FROM F, D WHERE grp = gid AND val < ? GROUP BY region",
	"SELECT COUNT(*) FROM F WHERE tag = ?",
}

// factRow is one generated fact row. val is a multiple of 0.25 below
// 1000, so every sum of them is exact in float64 whatever the order.
type factRow struct {
	id, grp int64
	val     float64
	tag     string
}

type scanData struct {
	facts   []factRow
	regions [factGroups]string // region of each group
	// args[q][c] binds query q with argument choice c.
	args [3][argChoices][]types.Value
	// want[q][c] is the expected answer, keyed by the group column
	// (q1: grp, q2: region, q3: "").
	want [3][argChoices]map[string]aggCell
}

type aggCell struct {
	count int64
	sum   float64
}

func tagName(i int) string { return fmt.Sprintf("tag%02d", i) }

// genScanData generates the tables and computes every expected answer in
// Go from the generated rows.
func genScanData(seed int64) *scanData {
	r := rand.New(rand.NewSource(seed))
	d := &scanData{facts: make([]factRow, factRows)}
	for i := range d.facts {
		d.facts[i] = factRow{id: int64(i), grp: r.Int63n(factGroups), val: float64(r.Intn(4000)) / 4, tag: tagName(r.Intn(factTags))}
	}
	for g := range d.regions {
		d.regions[g] = fmt.Sprintf("region%d", r.Intn(regions))
	}
	// The argument values do not depend on the seed, so every run does the
	// same amount of work and only the data differs.
	for c := 0; c < argChoices; c++ {
		lo := int64(c) * (factRows - windowRows) / (argChoices - 1)
		d.args[0][c] = []types.Value{types.NewInt(lo), types.NewInt(lo + windowRows)}
		d.args[1][c] = []types.Value{types.NewFloat(float64(480 + 5*c))}
		d.args[2][c] = []types.Value{types.NewString(tagName(c))}
		for q := range d.want {
			d.want[q][c] = make(map[string]aggCell)
		}
		for _, f := range d.facts {
			if f.id >= lo && f.id < lo+windowRows {
				addCell(d.want[0][c], fmt.Sprint(f.grp), f.val)
			}
			if f.val < d.args[1][c][0].F {
				addCell(d.want[1][c], d.regions[f.grp], f.val)
			}
			if f.tag == d.args[2][c][0].S {
				addCell(d.want[2][c], "", 0)
			}
		}
	}
	return d
}

func addCell(m map[string]aggCell, key string, val float64) {
	c := m[key]
	c.count++
	c.sum += val
	m[key] = c
}

// check compares one query's rows with the expected answer.
func (d *scanData) check(q, c int, rows []types.Row) error {
	want := d.want[q][c]
	got := make(map[string]aggCell, len(rows))
	for _, row := range rows {
		switch {
		case q == 2 && len(row) == 1:
			got[""] = aggCell{count: row[0].I}
		case q < 2 && len(row) == 3:
			got[row[0].String()] = aggCell{count: row[1].I, sum: row[2].F}
		default:
			return fmt.Errorf("q%d: unexpected row shape %v", q+1, row)
		}
	}
	if q == 2 && len(want) == 0 {
		want = map[string]aggCell{"": {}}
	}
	if len(got) != len(want) {
		return fmt.Errorf("q%d args %v: %d groups, want %d", q+1, d.args[q][c], len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("q%d args %v: group %q = %+v, want %+v", q+1, d.args[q][c], k, got[k], w)
		}
	}
	return nil
}

type scanInst struct {
	db     *engine.Database
	srv    *server
	client *wire.Client
	stmts  [3]*wire.ClientStmt
}

// setupScan loads the fact and dimension tables into the column store,
// analyzes them (which encodes full segments and builds zone maps) and
// starts the server.
func setupScan(d *scanData) (*scanInst, error) {
	db := engine.Open()
	if err := db.ExecScript(`CREATE TABLE F (id INT NOT NULL, grp INT, val FLOAT, tag VARCHAR, PRIMARY KEY (id));
CREATE TABLE D (gid INT NOT NULL, region VARCHAR, PRIMARY KEY (gid))`); err != nil {
		return nil, err
	}
	ft, err := db.Store().Table("F")
	if err != nil {
		return nil, err
	}
	for _, f := range d.facts {
		if _, err := ft.Insert(types.Row{types.NewInt(f.id), types.NewInt(f.grp), types.NewFloat(f.val), types.NewString(f.tag)}); err != nil {
			return nil, err
		}
	}
	dt, err := db.Store().Table("D")
	if err != nil {
		return nil, err
	}
	for g, reg := range d.regions {
		if _, err := dt.Insert(types.Row{types.NewInt(int64(g)), types.NewString(reg)}); err != nil {
			return nil, err
		}
	}
	if err := db.ExecScript("ALTER TABLE F SET STORAGE COLUMN; ALTER TABLE D SET STORAGE COLUMN"); err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	srv, err := startServer(db)
	if err != nil {
		return nil, err
	}
	cs, err := srv.dial(1)
	if err != nil {
		srv.stop()
		return nil, err
	}
	si := &scanInst{db: db, srv: srv, client: cs[0]}
	for q, sql := range scanQueries {
		if si.stmts[q], err = si.client.Prepare(sql); err != nil {
			si.close()
			return nil, err
		}
	}
	return si, nil
}

func (si *scanInst) close() {
	if si == nil {
		return
	}
	si.client.Close()
	si.srv.stop()
}

// drainRows reads a streamed result to the end.
func drainRows(rows *wire.Rows) ([]types.Row, error) {
	defer rows.Close()
	var out []types.Row
	for {
		row, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// scanObs is what a traced report measured at the layer boundaries.
type scanObs struct {
	comparable time.Duration
	vexec      [3]time.Duration
	counters   [3]exec.Counters
	roundTrips int
	bytesRecv  int
}

// report runs the three queries over the wire with the argument choices
// picks and checks every answer. With a tracer it first runs each query
// in-process as a probe of the engine's batch executor, reading its
// counters.
func (si *scanInst) report(d *scanData, tr *tracer, id int, picks [3]int, o *outcome, obs *scanObs) (time.Duration, error) {
	start := time.Now()
	root := tr.begin(id, -1, "op")
	var probes time.Duration
	if tr != nil {
		t0 := time.Now()
		for q, sql := range scanQueries {
			s := tr.begin(id, root, fmt.Sprintf("vexec.q%d", q+1))
			rows, counters, err := si.inProcess(sql, d.args[q][picks[q]])
			tr.end(s)
			obs.vexec[q] = tr.spans[s].dur()
			if err != nil {
				return 0, err
			}
			obs.counters[q] = counters
			if err := d.check(q, picks[q], rows); err != nil {
				o.fail("report %d in-process: %v", id, err)
			}
		}
		probes = time.Since(t0)
	}
	stats := si.client.Stats
	var results [3][]types.Row
	for q, st := range si.stmts {
		s := tr.begin(id, root, fmt.Sprintf("wire.q%d", q+1))
		rows, err := st.QueryRows(d.args[q][picks[q]]...)
		if err == nil {
			results[q], err = drainRows(rows)
		}
		tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("q%d: %w", q+1, err)
		}
	}
	tr.end(root)
	elapsed := time.Since(start)
	for q := range results {
		if err := d.check(q, picks[q], results[q]); err != nil {
			o.fail("report %d: %v", id, err)
		}
	}
	if tr != nil {
		obs.comparable = elapsed - probes
		obs.roundTrips = si.client.Stats.RoundTrips - stats.RoundTrips
		obs.bytesRecv = si.client.Stats.BytesRecv - stats.BytesRecv
	}
	return elapsed, nil
}

// inProcess runs one query on the engine directly and returns its rows and
// execution counters.
func (si *scanInst) inProcess(sql string, args []types.Value) ([]types.Row, exec.Counters, error) {
	st, err := si.db.Prepare(sql)
	if err != nil {
		return nil, exec.Counters{}, err
	}
	rows, err := st.QueryRows(args...)
	if err != nil {
		return nil, exec.Counters{}, err
	}
	defer rows.Close()
	var out []types.Row
	for {
		row, err := rows.Next()
		if err != nil {
			return nil, exec.Counters{}, err
		}
		if row == nil {
			return out, rows.Counters(), nil
		}
		out = append(out, row)
	}
}

func runScanAgg(cfg config) (*outcome, error) {
	d := genScanData(cfg.seed)
	si, setups, err := timedSetups(cfg, func() (*scanInst, error) { return setupScan(d) }, (*scanInst).close)
	defer si.close()
	if err != nil {
		return nil, err
	}
	o := &outcome{env: map[string]any{
		"sessions": 1, "loop": "closed", "flush_policy": "none: in-memory database",
		"scale": fmt.Sprintf("fact %d rows (column store), dimension %d rows", factRows, factGroups),
	}}
	// Report i binds each query with the next argument choice of a seeded
	// cycle, so every run uses all choices equally often.
	r := rand.New(rand.NewSource(cfg.seed + 17))
	var order [3][]int
	for q := range order {
		order[q] = r.Perm(argChoices)
	}
	pick := func(i int) [3]int {
		var p [3]int
		for q := range p {
			p[q] = order[q][i%argChoices]
		}
		return p
	}
	plain := func(i int) (time.Duration, error) { return si.report(d, nil, i, pick(i), o, nil) }
	for i := 0; i < 2; i++ {
		if _, err := plain(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	mw := startMemWindow()
	lat, elapsed := closedLoop(cfg.phase(), o, plain)
	mem := mw.finish()
	untracedMetrics(o, cfg.trace, setups, lat, elapsed, mem)
	if !cfg.trace {
		return o, nil
	}

	tr := newTracer(0, time.Now())
	var obs []scanObs
	closedLoop(cfg.phase(), o, func(i int) (time.Duration, error) {
		var ob scanObs
		dur, err := si.report(d, tr, i, pick(i), o, &ob)
		if err == nil {
			obs = append(obs, ob)
		}
		return dur, err
	})
	o.spans = []*tracer{tr}
	col := func(f func(scanObs) float64) float64 {
		vs := make([]float64, len(obs))
		for i, ob := range obs {
			vs[i] = f(ob)
		}
		return median(vs)
	}
	var comparable []time.Duration
	var scanned, pruned, segs, encCmp float64
	var busy time.Duration
	for _, ob := range obs {
		comparable = append(comparable, ob.comparable)
		for q, c := range ob.counters {
			scanned += float64(c.RowsScanned)
			pruned += float64(c.SegmentsPruned)
			segs += float64(c.SegmentsPruned + c.SegmentsScanned)
			encCmp += float64(c.EncodedCmpRows)
			busy += ob.vexec[q]
		}
	}
	traceOverhead(o, lat, comparable)
	o.add("wire.round_trips_per_op", col(func(b scanObs) float64 { return float64(b.roundTrips) }), "count")
	o.add("wire.bytes_recv_per_op", col(func(b scanObs) float64 { return float64(b.bytesRecv) }), "B")
	for q := range scanQueries {
		o.add(fmt.Sprintf("vexec.query_ms.q%d", q+1), col(func(b scanObs) float64 { return b.vexec[q].Seconds() * 1e3 }), "ms")
	}
	sum := func(f func(exec.Counters) int64) func(scanObs) float64 {
		return func(b scanObs) float64 {
			var n int64
			for _, c := range b.counters {
				n += f(c)
			}
			return float64(n)
		}
	}
	o.add("vexec.rows_scanned_per_s", ratio(scanned, busy.Seconds()), "1/s")
	o.add("vexec.join_build_rows_per_op", col(sum(func(c exec.Counters) int64 { return c.JoinBuildRows })), "count")
	o.add("vexec.join_probe_rows_per_op", col(sum(func(c exec.Counters) int64 { return c.JoinProbeRows })), "count")
	o.add("vexec.pool_workers_per_op", col(sum(func(c exec.Counters) int64 { return c.PoolWorkers })), "count")
	o.add("vexec.pool_fallbacks_per_op", col(sum(func(c exec.Counters) int64 { return c.PoolFallbacks })), "count")
	o.add("colstore.segments_pruned_frac", ratio(pruned, segs), "frac")
	o.add("enc.encoded_cmp_frac", ratio(encCmp, scanned), "frac")
	_, resident := si.db.Store().ColStoreStats()
	o.add("colstore.bytes_resident_per_row", float64(resident)/float64(factRows+factGroups), "B")
	o.add("resource.mem_reserved_kb_per_op", col(sum(func(c exec.Counters) int64 { return c.MemReserved }))/1024, "KiB")
	return o, nil
}
