// Command perfbench is the repository's benchmark: it runs the simulator's
// public entry points on three workloads and reports host cost end to end
// (set-up, wall, CPU, memory, throughput) next to the simulated results it
// checks (virtual time, weak-scaling efficiency, error norms), or, with
// -trace 1, per-layer spans and counters. README.md explains the workloads
// and what each metric should move.
//
//	go build -o perfbench . && ./perfbench -workload weak-rd -seed 1 -seconds 25 -trace 0
//
// Every workload run executes in a child process of this binary, so each
// run's peak RSS and allocation count belong to that run alone. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the simulator sees, gated by
// BENCHMARK.json. Virtual times are in modelled platform seconds
// ("virtual_s"); they are deterministic for a given seed.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"steady_rank_steps_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"virtual_iter_s", "virtual_s"},
	{"weak_efficiency", "ratio"},
	{"l2_err", "norm"},
}

// wastedMetric is printed for every workload but not gated: it is zero on
// the fault-free workloads, and a zero median cannot bound a regression.
var wastedMetric = metric{"wasted_virtual_s", "virtual_s"}

// spanNames are the layer boundaries the traced runs time; countedSpans
// also carry the virtual clock's flop and byte counts.
var (
	spanNames = []string{
		"core.job", "mesh.local", "fem.space", "fem.assemble", "fem.assemble_values",
		"sparse.pattern", "sparse.pattern_like", "sparse.set_values", "sparse.spmv_halo",
		"sparse.halo", "krylov.ilu0_setup", "krylov.ilu0_apply", "krylov.cg", "krylov.bicgstab",
		"mp.allreduce", "checkpoint.encode", "checkpoint.decode", "checkpoint.mirror",
		"mp.shrink", "mp.grow", "obs.journal_encode", "obs.journal_parse",
	}
	countedSpans = []string{
		"fem.assemble_values", "sparse.spmv_halo", "krylov.ilu0_apply", "krylov.cg", "krylov.bicgstab",
	}
	counterMetrics = []metric{
		{"mp.messages", "count"}, {"mp.message_bytes", "B"}, {"mp.mailbox_highwater", "count"},
		{"sparse.halo_bytes", "B"}, {"sparse.halo_exchanges", "count"}, {"krylov.iters_per_solve", "count"},
		{"vclock.assembly_s", "virtual_s"}, {"vclock.precond_s", "virtual_s"}, {"vclock.solve_s", "virtual_s"},
		{"vclock.other_s", "virtual_s"}, {"vclock.comm_frac", "ratio"},
		{"bench.shrink.agree_s", "virtual_s"}, {"bench.shrink.redistribute_s", "virtual_s"},
		{"bench.shrink.buddy_overhead_s", "virtual_s"}, {"bench.shrink.buddy_bytes", "B"},
		{"bench.shrink.revoked_msgs", "count"}, {"bench.migrate.copy_s", "virtual_s"},
		{"bench.migrate.copy_bytes", "B"}, {"bench.backoff_s", "virtual_s"}, {"bench.attempts", "count"},
		{"bench.wasted_virtual_s", "virtual_s"},
		{"obs.journal_lines", "count"}, {"obs.journal_bytes", "B"}, {"checkpoint.bytes", "B"},
		{"trace.overhead_s", "s"},
	}
)

// perLayer lists every metric a traced run reports, in print order.
func perLayer() []metric {
	var out []metric
	for _, s := range spanNames {
		out = append(out, metric{s + ".busy_s", "s"}, metric{s + ".calls", "count"})
	}
	for _, s := range countedSpans {
		out = append(out, metric{s + ".flops", "flop_computed"}, metric{s + ".bytes", "B_computed"})
	}
	return append(out, counterMetrics...)
}

// Run-count floors: medians of five untraced runs keep the host metrics
// steady on a shared 2-core box; a traced measurement needs one untraced
// and one traced run to difference.
const (
	minPlainRuns  = 5
	minTracedRuns = 1
	// maxElapsed stops starting new runs well inside the 180 s budget.
	maxElapsed = 150 * time.Second
)

func main() {
	workload := flag.String("workload", "weak-rd", "weak-rd, steady-ns, storm-recovery or all")
	seed := flag.Uint64("seed", 1, "input seed: picks the PDE start time")
	seconds := flag.Float64("seconds", 25, "measure for this long (at least the minimum run counts)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced runs")
	spansDir := flag.String("spans-dir", "", "write traced runs' spans here as JSON lines")
	child := flag.String("child", "", "internal: run one plain, traced or layers run and print it")
	flag.Parse()

	if *child != "" {
		if err := runChild(os.Stdout, *child, *workload, *seed, *spansDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		if _, ok := fullSizes[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		res, err := measure(name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spansDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.print(os.Stdout)
	}
}

// runChild performs one run in this process and writes its iterResult.
func runChild(w io.Writer, mode, workload string, seed uint64, spansDir string) error {
	sz, ok := fullSizes[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	var tr *tracer
	if mode != "plain" {
		tr = newTracer()
	}
	it, err := timedRun(mode, workload, sz, seed, tr)
	if err != nil {
		return err
	}
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d-%s.jsonl", workload, seed, mode))
		if err := tr.write(path); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(it)
}

// timedRun performs one plain, traced or layers run and adds the host
// measurements: wall and CPU time, heap bytes allocated, and peak RSS
// (the process's, which is why each run gets its own process).
func timedRun(mode, workload string, sz sizes, seed uint64, tr *tracer) (*iterResult, error) {
	var ru0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	alloc0 := heapAllocs()
	start := time.Now()
	var it *iterResult
	var err error
	switch mode {
	case "plain", "traced":
		it, err = runWorkload(workload, sz, seed, tr)
	case "layers":
		it, err = runLayers(workload, sz, tr)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return nil, err
	}
	it.WallS = time.Since(start).Seconds()
	it.AllocMB = float64(heapAllocs()-alloc0) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	it.CPUS = cpuSeconds(ru) - cpuSeconds(ru0)
	it.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	tr.totals(it.Layer)
	return it, nil
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// spawn runs one child run of this binary and decodes its report.
func spawn(mode, workload string, seed uint64, spansDir string) (*iterResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-spans-dir", spansDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s run: %w", workload, mode, err)
	}
	var it iterResult
	if err := json.Unmarshal(out.Bytes(), &it); err != nil {
		return nil, fmt.Errorf("%s %s run: %w", workload, mode, err)
	}
	return &it, nil
}

// result is one workload's aggregated measurement.
type result struct {
	workload  string
	seed      uint64
	trace     bool
	runs      int
	attempted int
	failed    int
	failures  []string
	digest    string
	walls     []float64
	metrics   map[string]float64
	units     []metric
	wasted    float64
}

// measure repeats child runs of workload until the time is spent and
// reduces them to medians. Untraced runs give the end-to-end metrics;
// traced runs alternate with untraced ones, and one layer-pass run
// follows, for the per-layer metrics.
func measure(workload string, seed uint64, seconds time.Duration, traced bool, spansDir string) (*result, error) {
	start := time.Now()
	var plain, tracedRuns []*iterResult
	for {
		el := time.Since(start)
		enough := len(plain) >= minPlainRuns
		if traced {
			enough = len(plain) >= minTracedRuns && len(tracedRuns) >= minTracedRuns
		}
		if enough && (el >= seconds || el >= maxElapsed) {
			break
		}
		it, err := spawn("plain", workload, seed, spansDir)
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)
		if traced {
			it, err := spawn("traced", workload, seed, spansDir)
			if err != nil {
				return nil, err
			}
			tracedRuns = append(tracedRuns, it)
		}
	}
	var layers *iterResult
	if traced {
		var err error
		if layers, err = spawn("layers", workload, seed, spansDir); err != nil {
			return nil, err
		}
	}
	return reduce(workload, seed, plain, tracedRuns, layers)
}

// reduce turns a workload's runs into its result. With traced runs and a
// layer pass it reports the per-layer metrics, else the end-to-end ones.
func reduce(workload string, seed uint64, plain, tracedRuns []*iterResult, layers *iterResult) (*result, error) {
	traced := layers != nil
	res := &result{workload: workload, seed: seed, trace: traced, runs: len(plain), metrics: map[string]float64{}}
	all := append(append([]*iterResult{}, plain...), tracedRuns...)
	if traced {
		all = append(all, layers)
	}
	for _, it := range all {
		res.attempted += it.Attempted
		res.failed += it.Failed
		res.failures = append(res.failures, it.Failures...)
	}
	// Equal seeds must reproduce every stable simulated statistic: each
	// run after the first that disagrees counts as a failed attempt.
	for _, group := range [][]*iterResult{plain, tracedRuns} {
		for _, it := range group[min(1, len(group)):] {
			res.attempted++
			if it.StableDigest != group[0].StableDigest {
				res.failed++
				res.failures = append(res.failures, "stable digest differs between equal-seed runs")
			}
		}
	}
	res.digest = plain[0].SimDigest
	for _, it := range plain {
		res.walls = append(res.walls, it.WallS)
	}
	res.wasted = plain[0].WastedS

	if !traced {
		res.units = endToEnd
		for _, m := range endToEnd {
			res.metrics[m.name] = median(plain, func(it *iterResult) float64 { return field(it, m.name) })
		}
		return res, res.finite()
	}
	res.units = perLayer()
	layer := map[string]float64{}
	for k, v := range tracedRuns[len(tracedRuns)-1].Layer {
		layer[k] = v
	}
	// Busy times are the traced runs' medians; the layer pass supplies
	// every span the workload runs do not make.
	for _, k := range []string{"core.job.busy_s", "obs.journal_encode.busy_s", "obs.journal_parse.busy_s"} {
		layer[k] = median(tracedRuns, func(it *iterResult) float64 { return it.Layer[k] })
	}
	for k, v := range layers.Layer {
		if _, ok := layer[k]; !ok {
			layer[k] = v
		}
	}
	layer["trace.overhead_s"] = median(tracedRuns, func(it *iterResult) float64 { return it.WallS }) -
		median(plain, func(it *iterResult) float64 { return it.WallS })
	res.digest = tracedRuns[0].SimDigest
	for _, m := range res.units {
		v, ok := layer[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: traced runs did not report %s", workload, m.name)
		}
		res.metrics[m.name] = v
	}
	return res, res.finite()
}

// finite rejects a NaN or infinite metric, which JSON cannot carry.
func (r *result) finite() error {
	for k, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, k, v)
		}
	}
	return nil
}

// field reads an end-to-end metric from one run.
func field(it *iterResult, name string) float64 {
	switch name {
	case "setup_s":
		return it.SetupS
	case "wall_s":
		return it.WallS
	case "cpu_s":
		return it.CPUS
	case "steady_rank_steps_per_s":
		return it.SteadyRate
	case "peak_rss_mb":
		return it.PeakRSSMB
	case "alloc_mb":
		return it.AllocMB
	case "virtual_iter_s":
		return it.VirtualIterS
	case "weak_efficiency":
		return it.WeakEff
	case "l2_err":
		return it.L2Err
	}
	panic("perfbench: no end-to-end metric " + name)
}

func median(runs []*iterResult, get func(*iterResult) float64) float64 {
	v := make([]float64, len(runs))
	for i, it := range runs {
		v[i] = get(it)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// print writes the human-readable block, then the JSON result line.
func (r *result) print(w io.Writer) {
	kind := "end-to-end, median of untraced runs"
	if r.trace {
		kind = "per-layer, from traced runs and one layer pass"
	}
	fmt.Fprintf(w, "workload %s seed %d: %d untraced runs (%s)\n", r.workload, r.seed, r.runs, kind)
	for _, m := range r.units {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, r.metrics[m.name], m.unit)
	}
	if !r.trace {
		fmt.Fprintf(w, "  %-34s %14.6g %s (not gated)\n", wastedMetric.name, r.wasted, wastedMetric.unit)
	}
	fmt.Fprintf(w, "  untraced wall_s per run:")
	for _, v := range r.walls {
		fmt.Fprintf(w, " %.3f", v)
	}
	fmt.Fprintf(w, "\nsim_digest %s %s\n", r.workload, r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.units))
	for _, m := range r.units {
		ms[m.name] = value{r.metrics[m.name], m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	fmt.Fprintf(w, "%s\n", line)
}
