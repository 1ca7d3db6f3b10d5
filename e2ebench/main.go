// Command e2ebench is the end-to-end benchmark of the xnf engine. It runs
// one workload against an in-process wire server on 127.0.0.1, driven by
// client sessions in the same process, checks every result, and prints
// the metrics named in BENCHMARK.json at the repository root:
//
//	e2ebench --workload co_extract --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload for half the window untraced and half with spans around the
// calls into each layer, and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// It must run from the repository root; run.sh builds and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir holds the benchmark's trace files and temporary databases,
// relative to the repository root the benchmark runs from.
const workDir = ".bench_build/e2ebench"

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// phase is the length of one measured phase. A traced run splits its
// window between an untraced phase and a traced one, so it takes as long
// as an untraced run.
func (c config) phase() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one reported measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // first few failed checks, for the log
	metrics   []metric // end-to-end (untraced) or per-layer (traced)
	extra     []metric // printed for the reader, not in the JSON result
	env       map[string]any
	spans     []*tracer
}

// fail records a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) note(name string, value float64, unit string) {
	o.extra = append(o.extra, metric{name, value, unit})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"co_extract": runCOExtract,
	"oltp_mixed": runOLTP,
	"scan_agg":   runScanAgg,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: co_extract, oltp_mixed or scan_agg")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose results failed a check; the result
// line is still printed.
var errIncorrect = errors.New("results failed their checks")

func run(cfg config, stdout io.Writer) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := environment(cfg)

	out, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for k, v := range out.env {
		env[k] = v
	}
	if cfg.trace {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeTrace(path, out.spans...); err != nil {
			return err
		}
		env["trace_file"] = path
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	metrics, err := conform(out.metrics, want, cfg.trace)
	if err != nil {
		return err
	}

	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	for _, m := range append(append([]metric(nil), metrics...), out.extra...) {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted < 1 {
		return errIncorrect
	}
	return nil
}

// specMetric is a metric as BENCHMARK.json declares it.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the metric list: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// conform orders got as want declares it and checks names and units. Every
// end-to-end metric must have been measured. A per-layer metric of a layer
// the workload does not exercise reads 0: that layer did no work.
func conform(got []metric, want []specMetric, zeroMissing bool) ([]metric, error) {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		if _, dup := byName[m.name]; dup {
			return nil, fmt.Errorf("metric %s measured twice", m.name)
		}
		byName[m.name] = m
	}
	out := make([]metric, 0, len(want))
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok && !zeroMissing:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case !ok:
			m = metric{w.Name, 0, w.Unit}
		case m.unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		}
		delete(byName, w.Name)
		out = append(out, m)
	}
	if len(byName) > 0 {
		var names []string
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(names, ", "))
	}
	return out, nil
}

// environment records what every result depends on besides the code.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	digest, err := sourceDigest(".")
	if err != nil {
		digest = "unavailable: " + err.Error()
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": digest,
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// closedLoop runs op back to back until window has elapsed. op returns
// the time of the operation proper; checking its result is not timed. A
// failed operation counts as attempted and failed, and is not timed.
func closedLoop(window time.Duration, o *outcome, op func(i int) (time.Duration, error)) ([]time.Duration, time.Duration) {
	var lat []time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		o.attempted++
		d, err := op(i)
		if err != nil {
			o.fail("op %d: %v", i, err)
			continue
		}
		lat = append(lat, d)
	}
	return lat, time.Since(start)
}

// An untraced run sets its workload up at least minSetups times and for at
// least minSetupTime in all, so that setup_s is the median of many setups
// even where one takes milliseconds.
const (
	minSetups    = 5
	minSetupTime = time.Second
)

// timedSetups runs setup repeatedly (once in a traced run, which does not
// report setup_s) and keeps the last instance; the others are torn down.
// It returns every setup's wall time.
func timedSetups[T any](cfg config, setup func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var inst T
	var times []time.Duration
	var total time.Duration
	for len(times) == 0 || !cfg.trace && (len(times) < minSetups || total < minSetupTime) {
		if len(times) > 0 {
			teardown(inst)
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(start))
		total += times[len(times)-1]
	}
	return inst, times, nil
}

// untracedMetrics reports what the untraced window measured. An untraced
// run reports the gated end-to-end metrics and prints the ungated ones:
// latency and throughput, which move with host interference by more than
// any bound allows, and the workload's own extras. A traced run reports the
// ungated ones and the runtime's share as per-layer metrics.
func untracedMetrics(o *outcome, traced bool, setups, lat []time.Duration, elapsed time.Duration, mem memResult, extras ...metric) {
	ms := millis(lat)
	n := float64(len(lat))
	ungated := append([]metric{
		{"op_p50_ms", percentile(ms, 50), "ms"},
		{"op_p90_ms", percentile(ms, 90), "ms"},
		{"ops_per_s", n / elapsed.Seconds(), "1/s"},
	}, extras...)
	if traced {
		o.metrics = append(o.metrics, ungated...)
		o.add("runtime.gc_cycles_per_op", ratio(float64(mem.gcCycles), n), "count")
		o.add("runtime.gc_pause_frac", ratio(mem.gcPause.Seconds(), elapsed.Seconds()), "frac")
		return
	}
	o.add("setup_s", medianDur(setups), "s")
	o.add("alloc_kb_per_op", ratio(float64(mem.allocBytes)/1024, n), "KiB")
	o.add("peak_heap_mb", float64(mem.peakHeap)/(1<<20), "MiB")
	o.extra = append(o.extra, ungated...)
	o.note("samples", n, "count")
	if p := tailPercentile(len(lat), 90, 99, 99.9); p > 0 {
		o.note(fmt.Sprintf("op_tail_ms(p%g)", p), percentile(ms, p), "ms")
	}
}

// traceOverhead compares the traced phase's operations, with the probe
// spans that the untraced operations do not run taken out, against the
// untraced phase's operations.
func traceOverhead(o *outcome, untraced, tracedComparable []time.Duration) {
	o.add("bench.trace_overhead_frac", ratio(medianDur(tracedComparable), medianDur(untraced))-1, "frac")
}
