// Command perfbench is the repository's benchmark. It runs one of three
// named workloads against the library's public surface, checks every
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 320, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the run is the separate traced run and
// the metrics are the per-layer ledger. See README.md in this directory
// for the workloads, the metrics and the layer map.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 35 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every simulated run's RefScale (sweeps run at
	// sweepScale × scale, the daemon profiles at scale): 1 in benchmark
	// runs, smaller in the package's own short test.
	scale   float64
	workDir string
	commit  string
	nproc   int
}

// outcome is what a workload run measured and checked.
type outcome struct {
	setup   []time.Duration // host time of each set-up repetition
	wall    time.Duration   // time of the fixed work
	repeats int             // how many times the run measured its units of work
	ops     []time.Duration // latency of every op measured
	// host holds the run's yardstick samples. Every time metric is
	// scaled by their factor; advisord-mix's wall and goodput, which its
	// fixed schedule sets, are left as measured.
	host *hostSpeed
	// windows, when above 1, splits ops into that many consecutive
	// windows; the op percentiles are then the median over the
	// windows' percentiles, so a burst of host contention in one
	// window does not move the figure.
	windows   int
	goodput   float64 // ops within the latency limit per second
	attempted int64
	failed    int64
	failures  []string // check failures, for the human-readable report
	digest    string   // sim_digest of the run's ops
	params    map[string]any
	// layer is the per-layer ledger (traced runs only); spans are the
	// traced run's recorded spans, written out at the end.
	layer map[string]float64
	spans []span
}

// fail records a failed check that fails ops more ops, capped at the
// ops attempted.
func (o *outcome) fail(ops int64, format string, args ...any) {
	o.failed = min(o.failed+ops, o.attempted)
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(*options) (*outcome, error){
	"fig4-sweep":   func(o *options) (*outcome, error) { return runSweepWorkload(o, fig4Grid) },
	"online-shift": func(o *options) (*outcome, error) { return runSweepWorkload(o, onlineGrid) },
	"advisord-mix": runAdvisordMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{nproc: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "", "workload: fig4-sweep | online-shift | advisord-mix")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 35, "how long to measure")
	trace := fs.Int("trace", 0, "1 = the traced run that reports the per-layer ledger")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on every workload's access volume (digests are pinned at 1)")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for temporary caches and span files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the benchmarked tree was built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	fn, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fig4-sweep|online-shift|advisord-mix, --trace 0|1, positive --seconds and --scale\n")
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := fn(&o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := report(&o, out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report checks the digest, writes the spans of a traced run, prints
// the human-readable lines and assembles the JSON result.
func report(o *options, out *outcome, w io.Writer) (*result, error) {
	want, pinned := expectedDigest(o.workload, o.seed)
	pinned = pinned && o.scale == 1
	if pinned && out.digest != want {
		out.fail(out.attempted-out.failed, "sim_digest %s, expected %s for seed %d", out.digest, want, o.seed)
		out.goodput = 0 // every op failed
	}
	man := manifest(o, out)
	manJSON, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "manifest %s\n", manJSON)
	if o.trace {
		path, err := writeSpans(o, manJSON, out.spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans %d written to %s\n", len(out.spans), path)
	}

	e2e := endToEnd(out)
	res := &result{Correct: out.failed == 0 && len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	for _, d := range metricDefs {
		var v float64
		switch {
		case d.layer == "" && !o.trace:
			v = e2e[d.name]
			// error_rate is printed here; the result carries it as its
			// failed/attempted fields.
			if d.name != "error_rate" {
				res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
			}
		case d.layer != "" && o.trace:
			v = out.layer[d.name]
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		default:
			continue
		}
		fmt.Fprintf(w, "metric %-36s %14s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	fmt.Fprintf(w, "samples op_latency=%d windows=%d repeats=%d setup_host_s=%.3f\n", len(out.ops), max(out.windows, 1), out.repeats, seconds(out.setup))
	if h := out.host; h != nil && len(h.samples) > 0 {
		fmt.Fprintf(w, "yardstick samples=%d median_s=%.4f min_s=%.4f max_s=%.4f factor=%.4f (reference %.3f s)\n",
			len(h.samples), median(h.samples), slices.Min(h.samples), slices.Max(h.samples), h.factor(), refYardstickS)
	}
	if !pinned {
		want = "none (seed not pinned)"
	}
	fmt.Fprintf(w, "sim_digest %s expected %s\n", out.digest, want)
	for _, f := range out.failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	return res, nil
}

// endToEnd reduces an outcome to the end-to-end metrics.
func endToEnd(out *outcome) map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(seconds(out.setup)) * out.host.factor(),
		"wall_s":      out.wall.Seconds(),
		"op_p50_ms":   opPercentile(out, 0.50),
		"op_p90_ms":   opPercentile(out, 0.90),
		"goodput_rps": out.goodput,
		"peak_rss_mb": peakRSSMB(),
	}
	if out.attempted > 0 {
		m["error_rate"] = float64(out.failed) / float64(out.attempted)
	}
	return m
}

// opPercentile is the q-quantile of the op latencies in ms, or the
// median of the windows' q-quantiles.
func opPercentile(out *outcome, q float64) float64 {
	ms := millis(out.ops)
	if out.windows <= 1 {
		return percentile(ms, q)
	}
	n := len(ms) / out.windows
	var ps []float64
	for w := 0; w < out.windows; w++ {
		ps = append(ps, percentile(ms[w*n:(w+1)*n], q))
	}
	return median(ps)
}

// metricDef names one metric. layer is "" for the end-to-end metrics;
// exact marks per-layer counts that must repeat exactly for a seed.
type metricDef struct {
	name, unit, layer string
	exact             bool
}

// metricDefs is every metric the benchmark reports, in print order.
// BENCHMARK.json lists the same names and units (the package test
// holds the two together); error_rate is printed but carried in the
// result's failed/attempted fields, because a metric that is 0 on a
// healthy run cannot carry a relative bound.
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{name: "setup_s", unit: "s"},
		{name: "wall_s", unit: "s"},
		{name: "op_p50_ms", unit: "ms"},
		{name: "op_p90_ms", unit: "ms"},
		{name: "goodput_rps", unit: "1/s"},
		{name: "error_rate", unit: "frac"},
		{name: "peak_rss_mb", unit: "MB"},

		{"sweep.profile_memo_hits", "count", "sweep", true},
		{"sweep.profile_memo_misses", "count", "sweep", true},
		{"sweep.distinct_placement_frac", "frac", "sweep", true},
		{"sweep.worker_busy_frac", "frac", "sweep", false},
	}
	for _, k := range engineKinds {
		defs = append(defs,
			metricDef{"engine." + k + ".calls", "count", "engine", true},
			metricDef{"engine." + k + ".busy_s", "s", "engine", false},
			metricDef{"engine." + k + ".mrefs_per_s", "Mrefs/s", "engine", false})
	}
	defs = append(defs,
		metricDef{"engine.refs_computed", "count", "engine", true},
		metricDef{"engine.monitor_overhead_pct", "%", "engine", false},

		metricDef{"cache.llc_accesses_per_ref", "1/ref", "cache", true},
		metricDef{"cache.llc_miss_frac", "frac", "cache", true},
		metricDef{"cache.mcdram_hit_frac", "frac", "cache", true},
		metricDef{"mem.pagetable_last_hits_per_ref", "1/ref", "mem", true},
		metricDef{"mem.pagetable_placements", "count", "mem", true},
		metricDef{"alloc.reuse_frac", "frac", "alloc", true},
		metricDef{"alloc.failures", "count", "alloc", true},
		metricDef{"interpose.placement_failures", "count", "interpose", true},
		metricDef{"pebs.samples", "count", "pebs", true},

		metricDef{"paramedir.analyze.calls", "count", "paramedir", true},
		metricDef{"paramedir.analyze.busy_ms", "ms", "paramedir", false},
		metricDef{"paramedir.records_per_s", "1/s", "paramedir", false},

		metricDef{"advisor.advise.calls", "count", "advisor", true},
		metricDef{"advisor.advise.busy_ms", "ms", "advisor", false},
		metricDef{"advisor.degraded", "count", "advisor", true},

		metricDef{"online.epochs", "count", "online", true},
		metricDef{"online.solver_resolves", "count", "online", true},
		metricDef{"online.warm_hit_frac", "frac", "online", true},
		metricDef{"online.migrations", "count", "online", true},
		metricDef{"online.migrated_mb", "MB", "online", true},
		metricDef{"online.overhead_pct", "%", "online", false},
	)
	for _, a := range attributions {
		defs = append(defs,
			metricDef{"advisord." + a + ".count", "count", "advisord", true},
			metricDef{"advisord." + a + ".p50_ms", "ms", "advisord", false},
			metricDef{"advisord." + a + ".p90_ms", "ms", "advisord", false})
	}
	defs = append(defs,
		metricDef{"advisord.ping.p50_us", "us", "advisord", false},
		metricDef{"advisord.profiles_computed", "count", "advisord", true},
		metricDef{"advisord.advises_computed", "count", "advisord", true},

		metricDef{"loadgen.offered_rps", "1/s", "loadgen", true},
		metricDef{"loadgen.late_p90_ms", "ms", "loadgen", false},
		metricDef{"bench.trace_overhead_pct", "%", "bench", false},
	)
	return defs
}

// engineKinds are the engine run kinds the ledger splits host time by.
var engineKinds = []string{kindProfile, kindExecute, kindBaselineFlat, kindBaselineCache, kindOnline}

const (
	kindProfile       = "profile"
	kindExecute       = "execute"
	kindBaselineFlat  = "baseline_flat"
	kindBaselineCache = "baseline_cachemode"
	kindOnline        = "online"
)

// newLedger returns a per-layer ledger with every layer metric at 0,
// the value of a layer the workload does not exercise.
func newLedger() map[string]float64 {
	m := map[string]float64{}
	for _, d := range metricDefs {
		if d.layer != "" {
			m[d.name] = 0
		}
	}
	return m
}

// manifest is the run manifest stamped into every output.
func manifest(o *options, out *outcome) map[string]any {
	return map[string]any{
		"benchmark":  "perfbench",
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"scale":      o.scale,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      o.nproc,
		"cpu_model":  cpuModel(),
		"commit":     o.commit,
		"params":     out.params,
		"model_note": "simulated statistics are not validated against hardware; no accuracy figure is reported",
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeSpans writes the traced run's spans as JSONL after the manifest.
func writeSpans(o *options, manJSON []byte, spans []span) (string, error) {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.workDir, o.workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "%s\n", manJSON)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return "", err
	}
	return path, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// percentile is the nearest-rank q-quantile (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
