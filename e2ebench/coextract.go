package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"xnf/internal/cocache"
	"xnf/internal/core"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/types"
	"xnf/internal/wire"
	"xnf/internal/workload"
)

// co_extract is the paper's own workload: set-oriented extraction of the
// deps_ARC composite object (Fig. 1), shipped whole over the wire, built
// into the client-side cache and navigated. One session, closed loop.

const coView = "deps_ARC"

func coParams(seed int64) workload.OrgParams {
	return workload.OrgParams{
		Depts: 200, EmpsPerDept: 10, ProjsPerDept: 3,
		Skills: 100, SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.5, Seed: seed,
	}
}

type coInst struct {
	db     *engine.Database
	srv    *server
	client *wire.Client
}

// setupCO loads and analyzes the org database and starts the server.
func setupCO(p workload.OrgParams) (*coInst, error) {
	db, err := workload.NewOrgDB(p)
	if err != nil {
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
	return &coInst{db: db, srv: srv, client: cs[0]}, nil
}

func (ci *coInst) close() {
	if ci == nil {
		return
	}
	ci.client.Close()
	ci.srv.stop()
}

// coExpect is what every extraction must reproduce: the reference
// extraction's digest, the cache's connection count, and what a full
// navigation visits.
type coExpect struct {
	digest      coDigest
	connections int
	visited     int
	keySum      int64
}

// navigate walks every dept→emp→skill and dept→proj→skill path of the
// cache, counting the objects it visits and summing the skill keys.
func navigate(c *cocache.Cache) (visited int, keySum int64, err error) {
	depts, ok := c.Component("xdept")
	if !ok {
		return 0, 0, fmt.Errorf("cache has no xdept component")
	}
	for _, d := range depts.Objects() {
		visited++
		for _, path := range [][2]string{{"employment", "empproperty"}, {"ownership", "projproperty"}} {
			for _, mid := range d.Children(path[0]) {
				visited++
				for _, s := range mid.Children(path[1]) {
					visited++
					keySum += s.Row[0].I
				}
			}
		}
	}
	return visited, keySum, nil
}

func connections(c *cocache.Cache) int {
	n := 0
	for _, r := range c.Relationships() {
		n += r.Connections()
	}
	return n
}

// reference extracts the view in-process, without the wire, and builds and
// navigates its cache.
func (ci *coInst) reference() (coExpect, error) {
	res, err := ci.db.ExtractCOView(coView, false)
	if err != nil {
		return coExpect{}, err
	}
	c, err := cocache.Build(res)
	if err != nil {
		return coExpect{}, err
	}
	visited, keySum, err := navigate(c)
	if err != nil {
		return coExpect{}, err
	}
	return coExpect{digest: digestCO(res), connections: connections(c), visited: visited, keySum: keySum}, nil
}

// coObs is what a traced operation measured at the layer boundaries.
type coObs struct {
	comparable    time.Duration // the operation without the in-process probes
	plan, execute time.Duration // PlanTemplates, ExecuteTemplates
	fetch         time.Duration
	executeAllocs uint64 // PlanTemplates + ExecuteTemplates
	buildAllocs   uint64
	counters      exec.Counters
	tuples        int
	roundTrips    int
	bytesRecv     int
	visited       int
}

// op runs one extraction over the wire, builds and navigates the cache and
// checks the result. It returns the time of the operation itself. With a
// tracer it first compiles, plans and executes the view in-process, as
// probes of the core and exec layers, and records a span around each call.
func (ci *coInst) op(tr *tracer, id int, want coExpect, o *outcome, obs *coObs) (time.Duration, error) {
	start := time.Now()
	root := tr.begin(id, -1, "op")
	var probes time.Duration
	if tr != nil {
		t0 := time.Now()
		s := tr.begin(id, root, "core.compile")
		compiled, err := core.CompileView(ci.db.Catalog(), coView, ci.db.RewriteOptions)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		m0 := mallocs()
		s = tr.begin(id, root, "core.plan_templates")
		plans, err := compiled.PlanTemplates(ci.db.Store(), ci.db.OptOptions)
		tr.end(s)
		obs.plan = tr.spans[s].dur()
		if err != nil {
			return 0, err
		}
		s = tr.begin(id, root, "core.execute_templates")
		res, err := compiled.ExecuteTemplates(ci.db.Store(), plans, false)
		tr.end(s)
		obs.execute = tr.spans[s].dur()
		if err != nil {
			return 0, err
		}
		obs.executeAllocs = mallocs() - m0
		obs.counters = res.Counters
		if d := digestCO(res); !d.equal(want.digest) {
			o.fail("op %d: in-process extraction differs from the reference", id)
		}
		probes = time.Since(t0)
	}
	stats := ci.client.Stats
	s := tr.begin(id, root, "wire.fetch_co")
	res, err := ci.client.FetchCO(coView, wire.ShipWhole())
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		obs.fetch = tr.spans[s].dur()
	}
	var m1 uint64
	if tr != nil {
		m1 = mallocs()
	}
	s = tr.begin(id, root, "cocache.build")
	cache, err := cocache.Build(res)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		obs.buildAllocs = mallocs() - m1
	}
	s = tr.begin(id, root, "cocache.navigate")
	visited, keySum, err := navigate(cache)
	tr.end(s)
	tr.end(root)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}

	d := digestCO(res)
	if !d.equal(want.digest) || connections(cache) != want.connections || visited != want.visited || keySum != want.keySum {
		o.fail("op %d: extraction differs from the reference (tuples %d want %d, connections %d want %d, visited %d want %d)",
			id, d.total(), want.digest.total(), connections(cache), want.connections, visited, want.visited)
	}
	if tr != nil {
		obs.comparable = elapsed - probes
		obs.tuples = d.total()
		obs.roundTrips = ci.client.Stats.RoundTrips - stats.RoundTrips
		obs.bytesRecv = ci.client.Stats.BytesRecv - stats.BytesRecv
		obs.visited = visited
	}
	return elapsed, nil
}

func runCOExtract(cfg config) (*outcome, error) {
	ci, setups, err := timedSetups(cfg, func() (*coInst, error) { return setupCO(coParams(cfg.seed)) }, (*coInst).close)
	defer ci.close()
	if err != nil {
		return nil, err
	}
	want, err := ci.reference()
	if err != nil {
		return nil, fmt.Errorf("reference extraction: %w", err)
	}
	o := &outcome{env: map[string]any{
		"sessions": 1, "loop": "closed", "flush_policy": "none: in-memory database",
		"scale": fmt.Sprintf("org depts=200 emps/dept=10 projs/dept=3 skills=100 arc=0.5, %d CO tuples", want.digest.total()),
	}}
	plain := func(i int) (time.Duration, error) { return ci.op(nil, i, want, o, nil) }
	for i := 0; i < 3; i++ { // warm the plan caches and the heap
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
	var obs []coObs
	closedLoop(cfg.phase(), o, func(i int) (time.Duration, error) {
		var ob coObs
		d, err := ci.op(tr, i, want, o, &ob)
		if err == nil {
			obs = append(obs, ob)
		}
		return d, err
	})
	o.spans = []*tracer{tr}
	ix := indexSpans(tr)
	col := func(f func(coObs) float64) float64 {
		vs := make([]float64, len(obs))
		for i, ob := range obs {
			vs[i] = f(ob)
		}
		return median(vs)
	}
	var comparable []time.Duration
	for _, ob := range obs {
		comparable = append(comparable, ob.comparable)
	}
	traceOverhead(o, lat, comparable)
	o.add("wire.round_trips_per_op", col(func(b coObs) float64 { return float64(b.roundTrips) }), "count")
	o.add("wire.bytes_recv_per_op", col(func(b coObs) float64 { return float64(b.bytesRecv) }), "B")
	// The server reuses cached plan templates, so only ExecuteTemplates is
	// the in-process counterpart of the server's share of FetchCO.
	o.add("wire.fetch_self_ms", col(func(b coObs) float64 { return (b.fetch - b.execute).Seconds() * 1e3 }), "ms")
	o.add("cocache.build_ms", ix.medianMs("cocache.build"), "ms")
	o.add("cocache.build_allocs", col(func(b coObs) float64 { return float64(b.buildAllocs) }), "count")
	o.add("cocache.navigate_us", ix.medianMs("cocache.navigate")*1e3, "us")
	o.add("cocache.tuples_visited_per_op", col(func(b coObs) float64 { return float64(b.visited) }), "count")
	o.add("core.compile_ms", ix.medianMs("core.compile"), "ms")
	o.add("core.execute_ms", col(func(b coObs) float64 { return (b.plan + b.execute).Seconds() * 1e3 }), "ms")
	o.add("core.execute_allocs", col(func(b coObs) float64 { return float64(b.executeAllocs) }), "count")
	o.add("exec.subplan_runs_per_op", col(func(b coObs) float64 { return float64(b.counters.SubplanRuns) }), "count")
	o.add("exec.spools_per_op", col(func(b coObs) float64 { return float64(b.counters.SpoolMaterial) }), "count")
	o.add("exec.rows_scanned_per_tuple", col(func(b coObs) float64 {
		return ratio(float64(b.counters.RowsScanned), float64(b.tuples))
	}), "ratio")
	return o, nil
}

// rowHash hashes one tuple of component comp.
func rowHash(comp string, row types.Row) uint64 {
	h := fnv.New64a()
	h.Write([]byte(comp))
	var b [9]byte
	for _, v := range row {
		b[0] = byte(v.T)
		u := uint64(v.I)
		switch v.T {
		case types.FloatType:
			u = math.Float64bits(v.F)
		case types.StringType:
			h.Write(b[:1])
			h.Write([]byte(v.S))
			continue
		}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// coDigest summarises an extracted CO independently of row order: tuples
// per output and a sum of tuple hashes.
type coDigest struct {
	tuples []int
	sum    uint64
}

func digestCO(res *core.COResult) coDigest {
	d := coDigest{tuples: make([]int, len(res.Outputs))}
	for i, rows := range res.Rows {
		for _, r := range rows {
			d.sum += rowHash(res.Outputs[i].Name, r)
		}
		d.tuples[i] = len(rows)
	}
	return d
}

func (d coDigest) equal(o coDigest) bool {
	if d.sum != o.sum || len(d.tuples) != len(o.tuples) {
		return false
	}
	for i := range d.tuples {
		if d.tuples[i] != o.tuples[i] {
			return false
		}
	}
	return true
}

func (d coDigest) total() int {
	n := 0
	for _, t := range d.tuples {
		n += t
	}
	return n
}
