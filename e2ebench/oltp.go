package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"xnf/internal/ast"
	"xnf/internal/engine"
	"xnf/internal/parser"
	"xnf/internal/types"
	"xnf/internal/wire"
	"xnf/internal/workload"
)

// oltp_mixed serves point reads and single-row writes on a durable
// database: 65% prepared primary-key lookups, 20% ad hoc literal lookups
// (distinct texts, far more than the 256-entry plan cache holds) and 15%
// prepared UPDATEs, from two sessions in a closed loop.

const (
	oltpDepts       = 256
	oltpEmpsPerDept = 64
	oltpEmps        = oltpDepts * oltpEmpsPerDept
	oltpSessions    = 2
	// oltpCheckpointEvery fires the background checkpoint several times
	// per run.
	oltpCheckpointEvery = 2 * time.Second
	// oltpProbes is how many times the traced run calls each in-process
	// probe after its traced phase.
	oltpProbes = 200

	lookupSQL = "SELECT eno, ename, edno, sal FROM EMP WHERE eno = ?"
	adhocSQL  = "SELECT eno, ename, edno, sal FROM EMP WHERE eno = %d"
	updateSQL = "UPDATE EMP SET sal = ? WHERE eno = ?"
)

type reqKind int

const (
	kindLookup reqKind = iota
	kindAdhoc
	kindUpdate
)

var kindNames = [...]string{"lookup", "adhoc", "update"}

type oltpReq struct {
	kind reqKind
	eno  int64
	sal  float64 // the UPDATE's new value
}

// oltpDeck is the request mix: each block of len(oltpDeck) requests of a
// session holds exactly these kinds, in a shuffled order.
// An exact mix keeps the slow UPDATEs at a fixed share of the samples, so
// op_p90_ms sits inside the UPDATE latencies on every run instead of
// flipping between reads and writes with the sampled share.
var oltpDeck = [20]reqKind{
	kindLookup, kindLookup, kindLookup, kindLookup, kindLookup, kindLookup, kindLookup,
	kindLookup, kindLookup, kindLookup, kindLookup, kindLookup, kindLookup,
	kindAdhoc, kindAdhoc, kindAdhoc, kindAdhoc,
	kindUpdate, kindUpdate, kindUpdate,
}

// reqGen generates one session's requests from the seed. UPDATEs of
// session k touch only employees with eno%2 != k, so each employee has one
// writer and its last acknowledged value is well defined.
type reqGen struct {
	r    *rand.Rand
	k, i int
	deck [len(oltpDeck)]reqKind
}

func newReqGen(seed int64, k int) *reqGen {
	return &reqGen{r: rand.New(rand.NewSource(seed*7919 + int64(k))), k: k, deck: oltpDeck}
}

func (g *reqGen) next() oltpReq {
	if g.i%len(g.deck) == 0 {
		g.r.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	q := oltpReq{kind: g.deck[g.i%len(g.deck)], eno: 1 + g.r.Int63n(oltpEmps)}
	if q.kind == kindUpdate {
		q.eno = 2*g.r.Int63n(oltpEmps/2) + 1 + int64(g.k)
		// Unique per session and request, and exact in float64.
		q.sal = float64(1_000_000+2*g.i+g.k) + 0.25
	}
	g.i++
	return q
}

func oltpParams(seed int64) workload.OrgParams {
	p := workload.DefaultOrg()
	p.Depts, p.EmpsPerDept, p.Seed = oltpDepts, oltpEmpsPerDept, seed
	return p
}

type oltpSession struct {
	client *wire.Client
	lookup *wire.ClientStmt
	update *wire.ClientStmt
	acked  map[int64]float64 // eno → last acknowledged sal
}

type oltpInst struct {
	dir        string
	db         *engine.Database
	srv        *server
	sessions   []*oltpSession
	probeAcked map[int64]float64 // durable UPDATEs made by the probes
}

func (oi *oltpInst) sessionAcked() []map[int64]float64 {
	var out []map[int64]float64
	for _, s := range oi.sessions {
		out = append(out, s.acked)
	}
	return out
}

// setupOLTP opens a durable database in a fresh directory, loads and
// analyzes the org data, checkpoints it (the bulk load bypasses the log)
// and starts the server with two prepared sessions.
func setupOLTP(p workload.OrgParams) (*oltpInst, error) {
	dir, err := os.MkdirTemp(workDir, "oltp-")
	if err != nil {
		return nil, err
	}
	oi := &oltpInst{dir: dir, probeAcked: make(map[int64]float64)}
	oi.db, err = engine.OpenDirOptions(dir, engine.DurabilityOptions{GroupCommit: true, CheckpointInterval: oltpCheckpointEvery})
	if err != nil {
		oi.close()
		return nil, err
	}
	if err := workload.LoadOrg(oi.db, p); err != nil {
		oi.close()
		return nil, err
	}
	if err := oi.db.Checkpoint(); err != nil {
		oi.close()
		return nil, err
	}
	if oi.srv, err = startServer(oi.db); err != nil {
		oi.close()
		return nil, err
	}
	clients, err := oi.srv.dial(oltpSessions)
	if err != nil {
		oi.close()
		return nil, err
	}
	for _, c := range clients {
		s := &oltpSession{client: c, acked: make(map[int64]float64)}
		oi.sessions = append(oi.sessions, s)
		if s.lookup, err = c.Prepare(lookupSQL); err != nil {
			oi.close()
			return nil, err
		}
		if s.update, err = c.Prepare(updateSQL); err != nil {
			oi.close()
			return nil, err
		}
	}
	return oi, nil
}

// stopServing closes the sessions and the server, then the database.
func (oi *oltpInst) stopServing() error {
	for _, s := range oi.sessions {
		s.client.Close()
	}
	oi.sessions = nil
	if oi.srv != nil {
		oi.srv.stop()
		oi.srv = nil
	}
	if oi.db == nil {
		return nil
	}
	err := oi.db.Close()
	oi.db = nil
	return err
}

func (oi *oltpInst) close() {
	if oi == nil {
		return
	}
	oi.stopServing()
	os.RemoveAll(oi.dir)
}

// checkRow checks that a lookup returned exactly the requested employee.
func checkRow(rows []types.Row, eno int64) error {
	if len(rows) != 1 || len(rows[0]) == 0 || rows[0][0].I != eno {
		return fmt.Errorf("lookup of eno %d returned %d rows, first %v", eno, len(rows), rows)
	}
	return nil
}

// serve sends one request over session s and checks its answer.
func (s *oltpSession) serve(q oltpReq) error {
	switch q.kind {
	case kindLookup:
		rows, err := s.lookup.Query(types.NewInt(q.eno))
		if err != nil {
			return err
		}
		return checkRow(rows, q.eno)
	case kindAdhoc:
		rows, err := s.client.Query(fmt.Sprintf(adhocSQL, q.eno))
		if err != nil {
			return err
		}
		return checkRow(rows, q.eno)
	default:
		n, err := s.update.Exec(types.NewFloat(q.sal), types.NewInt(q.eno))
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("update of eno %d affected %d rows", q.eno, n)
		}
		s.acked[q.eno] = q.sal
		return nil
	}
}

// oltpRec is one request's result.
type oltpRec struct {
	kind reqKind
	dur  time.Duration
	err  error
}

// oltpPhase is one closed-loop window over both sessions.
type oltpPhase struct {
	recs    [][]oltpRec // per session
	elapsed time.Duration
	tracers []*tracer
}

// closedLoop runs both sessions back to back for window, each sending its
// next request as soon as the previous one is answered.
func (oi *oltpInst) closedLoop(gens []*reqGen, window time.Duration, traced bool) oltpPhase {
	ph := oltpPhase{recs: make([][]oltpRec, len(oi.sessions)), tracers: make([]*tracer, len(oi.sessions))}
	origin := time.Now()
	var wg sync.WaitGroup
	for k, s := range oi.sessions {
		if traced {
			ph.tracers[k] = newTracer(k, origin)
		}
		wg.Add(1)
		go func(k int, s *oltpSession, tr *tracer) {
			defer wg.Done()
			for i := 0; time.Since(origin) < window; i++ {
				q := gens[k].next()
				root := tr.begin(i, -1, "op")
				c := tr.begin(i, root, "wire."+kindNames[q.kind])
				start := time.Now()
				err := s.serve(q)
				d := time.Since(start)
				tr.end(c)
				tr.end(root)
				ph.recs[k] = append(ph.recs[k], oltpRec{kind: q.kind, dur: d, err: err})
			}
		}(k, s, ph.tracers[k])
	}
	wg.Wait()
	ph.elapsed = time.Since(origin)
	return ph
}

// count adds the phase's requests to the outcome and returns the latencies
// of the successful ones, overall and per kind.
func (ph oltpPhase) count(o *outcome) (all []time.Duration, byKind [3][]time.Duration) {
	for k, recs := range ph.recs {
		for i, r := range recs {
			o.attempted++
			if r.err != nil {
				o.fail("session %d request %d (%s): %v", k, i, kindNames[r.kind], r.err)
				continue
			}
			all = append(all, r.dur)
			byKind[r.kind] = append(byKind[r.kind], r.dur)
		}
	}
	return all, byKind
}

// durabilityCheck closes the database, reopens it from its directory and
// checks that every acknowledged UPDATE's last value survived. It returns
// the reopen (recovery) time.
func (oi *oltpInst) durabilityCheck(o *outcome, acked map[int64]float64) (time.Duration, error) {
	if err := oi.stopServing(); err != nil {
		return 0, fmt.Errorf("closing the database: %w", err)
	}
	start := time.Now()
	db, err := engine.OpenDir(oi.dir)
	recovery := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reopening the database: %w", err)
	}
	defer db.Close()
	st, err := db.Prepare("SELECT sal FROM EMP WHERE eno = ?")
	if err != nil {
		return 0, err
	}
	for eno, sal := range acked {
		res, err := st.Query(types.NewInt(eno))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].F != sal {
			o.fail("after reopen, eno %d has %v, acknowledged %v", eno, res.Rows, sal)
		}
	}
	o.note("durability_checked_rows", float64(len(acked)), "count")
	return recovery, nil
}

func runOLTP(cfg config) (*outcome, error) {
	p := oltpParams(cfg.seed)
	oi, setups, err := timedSetups(cfg, func() (*oltpInst, error) { return setupOLTP(p) }, (*oltpInst).close)
	defer oi.close()
	if err != nil {
		return nil, err
	}
	o := &outcome{env: map[string]any{
		"sessions": oltpSessions, "loop": "closed",
		"flush_policy":          "group commit, fsync on every commit group",
		"checkpoint_interval_s": oltpCheckpointEvery.Seconds(),
		"scale":                 fmt.Sprintf("org depts=%d emps/dept=%d (%d EMP rows)", oltpDepts, oltpEmpsPerDept, oltpEmps),
	}}
	var gens []*reqGen
	for k, s := range oi.sessions {
		gens = append(gens, newReqGen(cfg.seed, k))
		// Warm the plan cache, the statements and the heap with reads.
		warm := newReqGen(cfg.seed-1, k)
		for i := 0; i < 200; i++ {
			if q := warm.next(); q.kind != kindUpdate {
				if err := s.serve(q); err != nil {
					return nil, fmt.Errorf("warm-up request %d: %w", i, err)
				}
			}
		}
	}

	mw := startMemWindow()
	ph := oi.closedLoop(gens, cfg.phase(), false)
	mem := mw.finish()
	all, byKind := ph.count(o)
	untracedMetrics(o, cfg.trace, setups, all, ph.elapsed, mem,
		metric{"op_p99_ms", percentile(millis(all), 99), "ms"},
		metric{"lookup_p50_ms", percentile(millis(byKind[kindLookup]), 50), "ms"},
		metric{"adhoc_p50_ms", percentile(millis(byKind[kindAdhoc]), 50), "ms"},
		metric{"update_p50_ms", percentile(millis(byKind[kindUpdate]), 50), "ms"},
		metric{"update_p99_ms", percentile(millis(byKind[kindUpdate]), 99), "ms"})
	o.note("update_samples", float64(len(byKind[kindUpdate])), "count")
	if cfg.trace {
		if o.spans, err = oi.tracedPhase(cfg, o, gens, all); err != nil {
			return nil, err
		}
	}

	// Each session writes its own employees and the probes run after the
	// sessions stop, so merging in this order keeps every last write.
	acked := make(map[int64]float64)
	for _, m := range append(oi.sessionAcked(), oi.probeAcked) {
		for eno, sal := range m {
			acked[eno] = sal
		}
	}
	recovery, err := oi.durabilityCheck(o, acked)
	if err != nil {
		return nil, err
	}
	failFrac := ratio(float64(o.failed), float64(o.attempted))
	if cfg.trace {
		o.add("wal.recovery_ms", recovery.Seconds()*1e3, "ms")
		o.add("fail_frac", failFrac, "frac")
	} else {
		o.note("fail_frac", failFrac, "frac")
	}
	return o, nil
}

// tracedPhase runs the sessions again with spans around every wire call,
// then probes the parser, optimizer, engine and WAL in-process.
func (oi *oltpInst) tracedPhase(cfg config, o *outcome, gens []*reqGen, untraced []time.Duration) ([]*tracer, error) {
	reg := oi.db.Registry()
	val := func(name string) float64 { v, _ := reg.Value(name); return float64(v) }
	hits0, misses0, compiles0 := val("xnf_plan_cache_hits_total"), val("xnf_plan_cache_misses_total"), val("xnf_compiles_total")
	wal0 := oi.db.WALStats()
	ph := oi.closedLoop(gens, cfg.phase(), true)
	wal1 := oi.db.WALStats()
	hits, misses, compiles := val("xnf_plan_cache_hits_total")-hits0, val("xnf_plan_cache_misses_total")-misses0, val("xnf_compiles_total")-compiles0
	all, _ := ph.count(o)

	ix := indexSpans(ph.tracers...)
	traceOverhead(o, untraced, ix.durs("op"))
	var service []time.Duration
	for _, name := range []string{"wire.lookup", "wire.adhoc", "wire.update"} {
		service = append(service, ix.durs(name)...)
	}
	o.add("wire.client_stmt_p50_us", medianDur(service)*1e6, "us")
	stats, err := oi.sessions[0].client.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("reading server stats: %w", err)
	}
	for _, s := range stats {
		if s.Name == "xnf_statement_latency_ns_p50" {
			o.add("wire.server_stmt_p50_us", s.Value/1e3, "us")
		}
	}
	o.add("engine.plan_cache_hit_ratio", ratio(hits, hits+misses), "frac")
	o.add("engine.compiles_per_op", ratio(compiles, float64(len(all))), "count")
	commits := float64(wal1.Commits - wal0.Commits)
	fsyncs := float64(wal1.Fsyncs - wal0.Fsyncs)
	o.add("wal.fsyncs_per_commit", ratio(fsyncs, commits), "ratio")
	o.add("wal.group_size_mean", ratio(float64(wal1.GroupSum-wal0.GroupSum), fsyncs), "count")
	o.add("wal.bytes_per_commit", ratio(float64(wal1.Bytes-wal0.Bytes), commits), "B")
	o.add("wal.checkpoints", float64(wal1.Checkpoints-wal0.Checkpoints), "count")

	probe, err := oi.probe(cfg.seed)
	if err != nil {
		return nil, err
	}
	pix := indexSpans(probe.tracer)
	o.add("parser.parse_us", pix.medianMs("parser.parse")*1e3, "us")
	o.add("opt.compile_us", pix.medianMs("opt.compile")*1e3, "us")
	o.add("engine.prepare_miss_us", pix.medianMs("engine.prepare_miss")*1e3, "us")
	o.add("engine.lookup_us", pix.medianMs("engine.lookup")*1e3, "us")
	o.add("engine.update_us", pix.medianMs("engine.update")*1e3, "us")
	o.add("engine.update_rows_scanned", probe.updateRowsScanned, "count")
	o.add("wal.commit_wait_ms", pix.medianMs("engine.update_durable")-pix.medianMs("engine.update"), "ms")
	o.add("wal.checkpoint_ms", pix.medianMs("wal.checkpoint"), "ms")
	return append(ph.tracers, probe.tracer), nil
}

type oltpProbe struct {
	tracer            *tracer
	updateRowsScanned float64
}

// probe calls the layers under the wire in-process, oltpProbes times each:
// parse and compile an ad hoc text, prepare a text the plan cache has not
// seen, run the prepared lookup, and run the prepared UPDATE on an
// in-memory copy of the data and on the durable database. The durable
// UPDATEs become part of what the durability check expects.
func (oi *oltpInst) probe(seed int64) (oltpProbe, error) {
	mem, err := workload.NewOrgDB(oltpParams(seed))
	if err != nil {
		return oltpProbe{}, err
	}
	lookup, err := oi.db.Prepare(lookupSQL)
	if err != nil {
		return oltpProbe{}, err
	}
	updMem, err := mem.Prepare(updateSQL)
	if err != nil {
		return oltpProbe{}, err
	}
	updDur, err := oi.db.Prepare(updateSQL)
	if err != nil {
		return oltpProbe{}, err
	}
	tr := newTracer(oltpSessions, time.Now())
	r := rand.New(rand.NewSource(seed * 31))
	scanned0, _ := mem.Registry().Value("xnf_rows_scanned_total")
	for j := 0; j < oltpProbes; j++ {
		eno := 1 + r.Int63n(oltpEmps)
		text := fmt.Sprintf(adhocSQL, eno)
		root := tr.begin(j, -1, "probe")
		s := tr.begin(j, root, "parser.parse")
		stmt, err := parser.Parse(text)
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		sel, ok := stmt.(*ast.SelectStmt)
		if !ok {
			return oltpProbe{}, fmt.Errorf("%q did not parse as a SELECT", text)
		}
		s = tr.begin(j, root, "opt.compile")
		_, err = oi.db.CompileSelect(sel)
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		misses := oi.db.Metrics.CacheMisses.Load()
		s = tr.begin(j, root, "engine.prepare")
		_, err = oi.db.Prepare(text)
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		if oi.db.Metrics.CacheMisses.Load() == misses+1 {
			tr.spans[s].Name = "engine.prepare_miss"
		}
		s = tr.begin(j, root, "engine.lookup")
		res, err := lookup.Query(types.NewInt(eno))
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		if err := checkRow(res.Rows, eno); err != nil {
			return oltpProbe{}, err
		}
		sal := float64(2_000_000+j) + 0.5
		s = tr.begin(j, root, "engine.update")
		_, err = updMem.Exec(types.NewFloat(sal), types.NewInt(eno))
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		s = tr.begin(j, root, "engine.update_durable")
		n, err := updDur.Exec(types.NewFloat(sal), types.NewInt(eno))
		tr.end(s)
		if err != nil {
			return oltpProbe{}, err
		}
		if n != 1 {
			return oltpProbe{}, fmt.Errorf("probe update of eno %d affected %d rows", eno, n)
		}
		oi.probeAcked[eno] = sal
		tr.end(root)
	}
	scanned1, _ := mem.Registry().Value("xnf_rows_scanned_total")
	for j := 0; j < 3; j++ {
		root := tr.begin(oltpProbes+j, -1, "probe")
		s := tr.begin(oltpProbes+j, root, "wal.checkpoint")
		err := oi.db.Checkpoint()
		tr.end(s)
		tr.end(root)
		if err != nil {
			return oltpProbe{}, err
		}
	}
	return oltpProbe{tracer: tr, updateRowsScanned: float64(scanned1-scanned0) / oltpProbes}, nil
}
