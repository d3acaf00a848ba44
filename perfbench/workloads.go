package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"heterohpc/internal/bench"
	"heterohpc/internal/core"
	"heterohpc/internal/nse"
	"heterohpc/internal/obs"
	"heterohpc/internal/rd"
)

// Workload names, in the order "-workload all" runs them.
var workloadNames = []string{"weak-rd", "steady-ns", "storm-recovery"}

// sizes fixes one workload's problem. Ranks lists the jobs the benchmark
// submits itself; the first is the 1-rank job weak_efficiency divides by.
type sizes struct {
	Ranks        []int
	PerRankN     int
	Steps        int
	RanksPerNode int
}

// fullSizes are the measured problems (see README.md for why each exists).
var fullSizes = map[string]sizes{
	"weak-rd":        {Ranks: []int{1, 8, 27, 64, 125, 216}, PerRankN: 8, Steps: 3},
	"steady-ns":      {Ranks: []int{1, 27}, PerRankN: 6, Steps: 30},
	"storm-recovery": {Ranks: []int{1, 27}, PerRankN: 6, Steps: 8, RanksPerNode: 3},
}

// Error tolerances on the discrete L2 error against the exact solution.
// The coarsest jobs, the 1-rank ones, measure RD ~1.8e-6 at 8³ elements
// and NS velocity ~7.6e-3 at 6³.
const (
	rdL2Tol = 1e-4
	nsL2Tol = 2e-2
)

// The storm the issue fixes: seed 12, a wave of 3 notices, one cascade and
// an empty on-demand pool, so the autoscaler backs off and retries.
const (
	stormSeed     = 12
	stormWave     = 3
	stormCascades = 1
)

// iterResult is what one workload run (one child process) reports.
type iterResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	SetupS       float64 `json:"setup_s"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	SteadyRate   float64 `json:"steady_rank_steps_per_s"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	AllocMB      float64 `json:"alloc_mb"`
	VirtualIterS float64 `json:"virtual_iter_s"`
	WeakEff      float64 `json:"weak_efficiency"`
	WastedS      float64 `json:"wasted_virtual_s"`
	L2Err        float64 `json:"l2_err"`

	// SimDigest hashes every simulated statistic; StableDigest only those
	// that equal-seed runs must reproduce byte for byte (everything but the
	// shrink-continue leg of storm-recovery, see README.md).
	SimDigest    string `json:"sim_digest"`
	StableDigest string `json:"stable_digest"`

	// Layer holds per-layer metrics (traced and layer-pass runs only).
	Layer map[string]float64 `json:"layer,omitempty"`
}

// check records one job's verdict: a job with any failed check counts once.
func (it *iterResult) check(job string, errs ...string) {
	it.Attempted++
	var bad []string
	for _, e := range errs {
		if e != "" {
			bad = append(bad, e)
		}
	}
	if len(bad) > 0 {
		it.Failed++
		it.Failures = append(it.Failures, job+": "+strings.Join(bad, "; "))
	}
}

// seedFrac maps a seed to [0, 1) (splitmix64 finaliser).
func seedFrac(seed uint64) float64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// The seed's only effect on the simulated problem: the PDE start time.
// RD starts in [1, 1.01), NS in [0, 0.01). Both shift the exact solution
// the error is measured against; RD's CG iteration counts follow it.
func rdStart(seed uint64) float64 { return 1 + 0.01*seedFrac(seed) }
func nsStart(seed uint64) float64 { return 0.01 * seedFrac(seed) }

// firstStep timestamps the moment the last rank of a job completes its
// first BDF2 step. It is fed from the solvers' Checkpoint callback, which
// carries no rank, so "first step done" means done on every rank.
type firstStep struct {
	ranks int32
	seen  atomic.Int32
	at    atomic.Int64
}

func (f *firstStep) mark(stepsDone int) error {
	if stepsDone == 1 && f.seen.Add(1) == f.ranks {
		f.at.Store(time.Now().UnixNano())
	}
	return nil
}

// job is one benchmark-submitted Target.Run with its host timing.
type job struct {
	name            string
	ranks, steps    int
	rep             *core.Report
	err             error
	setupS, steadyS float64
}

// submit runs spec on tg, timing submission → first step → return. It
// collects the previous job's garbage first, so no job pays for another's
// heap in its own timings.
func submit(tg *core.Target, spec core.JobSpec, fs *firstStep, steps int, tr *tracer) job {
	j := job{name: fmt.Sprintf("%s/%d", spec.App.Name(), spec.Ranks), ranks: spec.Ranks, steps: steps}
	runtime.GC()
	start := time.Now()
	tr.do("core.job", "workload", func() { j.rep, j.err = tg.Run(spec) })
	end := time.Now()
	if j.err == nil {
		at := fs.at.Load()
		if at == 0 {
			j.err = fmt.Errorf("no first-step timestamp")
			return j
		}
		first := time.Unix(0, at)
		j.setupS = first.Sub(start).Seconds()
		j.steadyS = end.Sub(first).Seconds()
	}
	return j
}

func rdJob(tg *core.Target, ranks int, sz sizes, t0 float64, run *obs.Run, tr *tracer) job {
	a, err := core.WeakRD(ranks, sz.PerRankN, sz.Steps)
	if err != nil {
		return job{name: fmt.Sprintf("rd/%d", ranks), err: err}
	}
	app := a.(core.RDApp)
	fs := &firstStep{ranks: int32(ranks)}
	app.Cfg.T0 = t0
	app.Cfg.Checkpoint = func(st rd.State) error { return fs.mark(st.StepsDone) }
	return submit(tg, core.JobSpec{
		Ranks: ranks, App: app, SkipSteps: 1, RanksPerNode: sz.RanksPerNode,
		MemPerRankGB: core.MemPerRankGB(sz.PerRankN, 1), Obs: run,
	}, fs, sz.Steps, tr)
}

func nsJob(tg *core.Target, ranks int, sz sizes, t0 float64, run *obs.Run, tr *tracer) job {
	a, err := core.WeakNS(ranks, sz.PerRankN, sz.Steps)
	if err != nil {
		return job{name: fmt.Sprintf("ns/%d", ranks), err: err}
	}
	app := a.(core.NSApp)
	fs := &firstStep{ranks: int32(ranks)}
	app.Cfg.T0 = t0
	app.Cfg.Checkpoint = func(st nse.State) error { return fs.mark(st.StepsDone) }
	return submit(tg, core.JobSpec{
		Ranks: ranks, App: app, SkipSteps: 1, RanksPerNode: sz.RanksPerNode,
		MemPerRankGB: core.MemPerRankGB(sz.PerRankN, 4), Obs: run,
	}, fs, sz.Steps, tr)
}

// l2Of returns a report's discrete L2 error and the tolerance it must meet.
func l2Of(rep *core.Report) (float64, float64) {
	if rep.App == "ns" {
		return rep.Metrics["vel_l2_err"], nsL2Tol
	}
	return rep.Metrics["l2_err"], rdL2Tol
}

// checkReport is the per-job correctness verdict shared by every job:
// rd.Run and nse.Run return an error when a solve fails to converge, so an
// error covers both "it errors" and "its solver does not converge".
func checkReport(rep *core.Report, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	l2, tol := l2Of(rep)
	if !(l2 <= tol) {
		return []string{fmt.Sprintf("l2_err %g exceeds %g", l2, tol)}
	}
	return nil
}

// digest accumulates a canonical text dump of simulated statistics.
// Floats are written as exact bit patterns so the hash moves with any
// change in the last bit.
type digest struct{ b strings.Builder }

func (d *digest) f(key string, v float64) { fmt.Fprintf(&d.b, "%s=%016x\n", key, math.Float64bits(v)) }
func (d *digest) i(key string, v int64)   { fmt.Fprintf(&d.b, "%s=%d\n", key, v) }
func (d *digest) s(key, v string)         { fmt.Fprintf(&d.b, "%s=%s\n", key, v) }

func (d *digest) report(prefix string, rep *core.Report) {
	if rep == nil {
		d.s(prefix, "none")
		return
	}
	d.s(prefix+".app", rep.App)
	d.i(prefix+".ranks", int64(rep.Ranks))
	d.i(prefix+".nodes", int64(rep.Nodes))
	it := rep.Iter
	d.f(prefix+".assembly", it.AvgAssembly)
	d.f(prefix+".precond", it.AvgPrecond)
	d.f(prefix+".solve", it.AvgSolve)
	d.f(prefix+".other", it.AvgOther)
	d.f(prefix+".max_total", it.MaxTotal)
	d.f(prefix+".comm_frac", it.CommFraction)
	d.i(prefix+".steps", int64(it.Steps))
	d.f(prefix+".cost", rep.CostPerIter)
	d.f(prefix+".spot_cost", rep.SpotCostPerIter)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.f(prefix+".m."+k, rep.Metrics[k])
	}
}

func (d *digest) recovery(prefix string, rr *bench.RecoveryReport) {
	d.i(prefix+".final_ranks", int64(rr.FinalRanks))
	d.i(prefix+".attempts", int64(rr.Attempts))
	d.f(prefix+".wasted", rr.WastedVirtualS)
	d.f(prefix+".backoff", rr.BackoffS)
	d.f(prefix+".makespan", rr.MakespanS)
	d.f(prefix+".cost", rr.RecoveryCostUSD)
	d.report(prefix+".final", rr.Final)
	if sh := rr.Shrink; sh != nil {
		d.f(prefix+".agree", sh.AgreeS)
		d.f(prefix+".redistribute", sh.RedistributeS)
		d.f(prefix+".buddy_s", sh.BuddyOverheadS)
		d.i(prefix+".buddy_bytes", sh.BuddyBytes)
		d.i(prefix+".revoked", int64(sh.RevokedMsgs))
	}
	if mg := rr.Migrate; mg != nil {
		d.i(prefix+".migrations", int64(mg.Migrations))
		d.f(prefix+".copy_s", mg.CopyS)
		d.i(prefix+".copy_bytes", mg.CopyBytes)
	}
}

// counters dumps the obs registry counters every traced workload reads.
func (d *digest) counters(run *obs.Run) {
	if run == nil {
		return
	}
	m := run.Metrics()
	for _, k := range []string{"mp.messages", "mp.message_bytes", "halo.exchanges", "halo.bytes"} {
		d.i("obs."+k, m.Counter(k).Value())
	}
	d.f("obs.mp.mailbox_highwater", m.Gauge("mp.mailbox_highwater").Value())
}

func (d *digest) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:])
}

// summarise fills the end-to-end fields computed from the benchmark's own
// jobs and checks each one.
func (it *iterResult) summarise(jobs []job, d *digest) {
	var rankSteps int
	var steadyS float64
	for _, j := range jobs {
		it.check(j.name, checkReport(j.rep, j.err)...)
		if j.err != nil {
			continue
		}
		it.SetupS += j.setupS
		steadyS += j.steadyS
		rankSteps += j.ranks * (j.steps - 1)
		it.VirtualIterS += j.rep.Iter.MaxTotal
		l2, _ := l2Of(j.rep)
		it.L2Err = math.Max(it.L2Err, l2)
		d.report(j.name, j.rep)
	}
	if steadyS > 0 {
		it.SteadyRate = float64(rankSteps) / steadyS
	}
	first, last := jobs[0], jobs[len(jobs)-1]
	if first.err == nil && last.err == nil {
		it.WeakEff = first.rep.Iter.MaxTotal / last.rep.Iter.MaxTotal
	}
}

// layerCounters reads the public counters of one traced workload run.
func layerCounters(into map[string]float64, run *obs.Run, jobs []job, tr *tracer) error {
	// Writing the journal folds the ranks' traffic counters into the
	// registry, so it comes first.
	if _, err := journal(into, run, tr); err != nil {
		return err
	}
	addCounters(into, run)
	var largest *core.Report
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		it := j.rep.Iter
		into["vclock.assembly_s"] += it.AvgAssembly
		into["vclock.precond_s"] += it.AvgPrecond
		into["vclock.solve_s"] += it.AvgSolve
		into["vclock.other_s"] += it.AvgOther
		if largest == nil || j.ranks >= largest.Ranks {
			largest = j.rep
		}
	}
	if largest != nil {
		into["vclock.comm_frac"] = largest.Iter.CommFraction
	}
	return nil
}

// addCounters adds one obs registry's traffic counters to into.
func addCounters(into map[string]float64, run *obs.Run) {
	m := run.Metrics()
	into["mp.messages"] += float64(m.Counter("mp.messages").Value())
	into["mp.message_bytes"] += float64(m.Counter("mp.message_bytes").Value())
	into["mp.mailbox_highwater"] = math.Max(into["mp.mailbox_highwater"], m.Gauge("mp.mailbox_highwater").Value())
	into["sparse.halo_bytes"] += float64(m.Counter("halo.bytes").Value())
	into["sparse.halo_exchanges"] += float64(m.Counter("halo.exchanges").Value())
}

// journal encodes run's journal and parses it back, timing both as spans,
// and adds its size to the obs.journal_* counters and the mean Krylov
// iterations per solve. It returns the journal bytes.
func journal(into map[string]float64, run *obs.Run, tr *tracer) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	tr.do("obs.journal_encode", "workload", func() { err = run.WriteJournal(&buf) })
	if err != nil {
		return nil, fmt.Errorf("write journal: %w", err)
	}
	var evs []obs.Event
	tr.do("obs.journal_parse", "workload", func() { evs, err = obs.ReadJournal(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return nil, fmt.Errorf("read journal back: %w", err)
	}
	var solves, iters int64
	for i := range evs {
		if evs[i].Kind == "solve" {
			solves++
			iters += evs[i].I1
		}
	}
	into["obs.journal_lines"] += float64(len(evs))
	into["obs.journal_bytes"] += float64(buf.Len())
	// The raw sums accumulate across a run's journals (storm-recovery has
	// three), so the mean is over every solve; only the mean is reported.
	into["krylov.solves"] += float64(solves)
	into["krylov.iters"] += float64(iters)
	if n := into["krylov.solves"]; n > 0 {
		into["krylov.iters_per_solve"] = into["krylov.iters"] / n
	}
	return buf.Bytes(), nil
}

// runWeakRD is one Fig. 4 weak-scaling series on ec2.
func runWeakRD(sz sizes, seed uint64, tr *tracer) (*iterResult, error) {
	return runJobs(sz, seed, tr, func(tg *core.Target, ranks int, run *obs.Run) job {
		return rdJob(tg, ranks, sz, rdStart(seed), run, tr)
	})
}

// runSteadyNS is the Fig. 5 application at one size, after its 1-rank
// reference.
func runSteadyNS(sz sizes, seed uint64, tr *tracer) (*iterResult, error) {
	return runJobs(sz, seed, tr, func(tg *core.Target, ranks int, run *obs.Run) job {
		return nsJob(tg, ranks, sz, nsStart(seed), run, tr)
	})
}

// runJobs submits one job per entry of sz.Ranks on a fresh ec2 target.
// Traced runs attach an obs.Run to read the layer counters; untraced runs
// keep the nil sink.
func runJobs(sz sizes, seed uint64, tr *tracer, one func(*core.Target, int, *obs.Run) job) (*iterResult, error) {
	tg, err := core.NewTarget("ec2", seed)
	if err != nil {
		return nil, err
	}
	var run *obs.Run
	if tr != nil {
		run = obs.NewRun()
	}
	var jobs []job
	for _, ranks := range sz.Ranks {
		jobs = append(jobs, one(tg, ranks, run))
	}
	it := &iterResult{}
	var d digest
	it.summarise(jobs, &d)
	if tr != nil {
		it.Layer = map[string]float64{}
		if err := layerCounters(it.Layer, run, jobs, tr); err != nil {
			it.check("journal", err.Error())
		}
		d.counters(run)
		zeroRecovery(it.Layer)
	}
	it.SimDigest = d.sum()
	it.StableDigest = it.SimDigest
	return it, nil
}

// recoveryLayers are the counters only a fault-recovering job produces.
var recoveryLayers = []string{
	"bench.shrink.agree_s", "bench.shrink.redistribute_s", "bench.shrink.buddy_overhead_s",
	"bench.shrink.buddy_bytes", "bench.shrink.revoked_msgs", "bench.migrate.copy_s",
	"bench.migrate.copy_bytes", "bench.backoff_s", "bench.attempts", "bench.wasted_virtual_s",
}

// zeroRecovery reports the recovery counters of a fault-free workload:
// those layers did no work in it.
func zeroRecovery(into map[string]float64) {
	for _, k := range recoveryLayers {
		into[k] = 0
	}
}

// faultOptions is the storm scenario: the same RD job as the reference,
// under the seed-12 storm, on an empty on-demand market.
func faultOptions(sz sizes) bench.FaultOptions {
	return bench.FaultOptions{
		App: "rd", Platform: "ec2", Ranks: sz.Ranks[len(sz.Ranks)-1], RanksPerNode: sz.RanksPerNode,
		PerRankN: sz.PerRankN, Steps: sz.Steps, SkipSteps: 1, Seed: stormSeed,
		StormWave: stormWave, StormCascades: stormCascades, OnDemandSupply: -1,
	}
}

// runStorm runs the fault-free reference job (after its 1-rank
// reference), then the three recovery policies under the storm with the
// journal and metrics on. The bench fault harness fixes T0 = 1, so the
// reference job does too: the migrate leg must match it bit for bit.
func runStorm(sz sizes, seed uint64, tr *tracer) (*iterResult, error) {
	tg, err := core.NewTarget("ec2", seed)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, ranks := range sz.Ranks {
		jobs = append(jobs, rdJob(tg, ranks, sz, 1, nil, tr))
	}
	it := &iterResult{}
	var all, stable digest
	it.summarise(jobs, &all)
	ref := jobs[len(jobs)-1]
	stable.b.WriteString(all.b.String())

	o := faultOptions(sz)
	var restart, shrink, migrate *bench.RecoveryReport
	var journals [3][]byte
	if tr == nil {
		// One journal for all three policies, as "faults -policy compare
		// -journal -metrics" writes it.
		o.Obs = obs.NewRun()
		cmp, err := bench.CompareRecovery(o)
		if err != nil {
			it.check("compare-recovery", err.Error())
			return it.finish(&all, &stable), nil
		}
		restart, shrink, migrate = cmp.Restart, cmp.Shrink, cmp.Migrate
		var jb, mb bytes.Buffer
		jerr := o.Obs.WriteJournal(&jb)
		if jerr == nil {
			jerr = o.Obs.WriteMetrics(&mb)
		}
		if jerr == nil {
			_, jerr = obs.ReadJournal(bytes.NewReader(jb.Bytes()))
		}
		it.check("journal", errText(jerr))
	} else {
		// The traced run gives each policy its own journal, so each gets a
		// digest; it drives RunSupervised the way CompareRecovery does.
		it.Layer = map[string]float64{}
		var reps [3]*bench.RecoveryReport
		for i, pol := range []string{bench.PolicyRestart, bench.PolicyShrink, bench.PolicyMigrate} {
			po := o
			po.Policy = pol
			po.Obs = obs.NewRun()
			if i > 0 {
				po.Plan = reps[0].Plan
			}
			var err error
			reps[i], err = bench.RunSupervised(po)
			if err != nil {
				it.check(pol, err.Error())
				return it.finish(&all, &stable), nil
			}
			journals[i], err = journal(it.Layer, po.Obs, tr)
			it.check(pol+" journal", errText(err))
			addCounters(it.Layer, po.Obs)
			all.counters(po.Obs)
		}
		restart, shrink, migrate = reps[0], reps[1], reps[2]
		for i, pol := range []string{bench.PolicyRestart, bench.PolicyShrink, bench.PolicyMigrate} {
			h := sha256.Sum256(journals[i])
			all.s("journal."+pol, hex.EncodeToString(h[:]))
			if pol != bench.PolicyShrink {
				stable.s("journal."+pol, hex.EncodeToString(h[:]))
			}
		}
		stormLayers(it.Layer, restart, shrink, migrate)
	}

	// Correctness of the recovered runs: every final result meets the
	// error tolerance, and the migrate leg finishes at full width with the
	// reference job's max_err bit for bit.
	for _, rr := range []*bench.RecoveryReport{restart, shrink, migrate} {
		var errs []string
		if rr.Final == nil {
			errs = append(errs, "no final report")
		} else {
			errs = checkReport(rr.Final, nil)
			it.VirtualIterS += rr.Final.Iter.MaxTotal
			l2, _ := l2Of(rr.Final)
			it.L2Err = math.Max(it.L2Err, l2)
		}
		if rr == migrate && rr.Final != nil {
			if rr.FinalRanks != o.Ranks {
				errs = append(errs, fmt.Sprintf("finished at %d ranks, submitted %d", rr.FinalRanks, o.Ranks))
			}
			if ref.err == nil {
				got, want := rr.Final.Metrics["max_err"], ref.rep.Metrics["max_err"]
				if math.Float64bits(got) != math.Float64bits(want) {
					errs = append(errs, fmt.Sprintf("max_err %v differs from the reference job's %v", got, want))
				}
			}
		}
		it.check(rr.Policy, errs...)
		all.recovery(rr.Policy, rr)
		if rr != shrink {
			stable.recovery(rr.Policy, rr)
		}
	}
	it.WastedS = migrate.WastedVirtualS
	return it.finish(&all, &stable), nil
}

func (it *iterResult) finish(all, stable *digest) *iterResult {
	it.SimDigest, it.StableDigest = all.sum(), stable.sum()
	return it
}

// stormLayers reads the recovery counters from the three policy reports.
func stormLayers(into map[string]float64, restart, shrink, migrate *bench.RecoveryReport) {
	if sh := shrink.Shrink; sh != nil {
		into["bench.shrink.agree_s"] = sh.AgreeS
		into["bench.shrink.redistribute_s"] = sh.RedistributeS
		into["bench.shrink.buddy_overhead_s"] = sh.BuddyOverheadS
		into["bench.shrink.buddy_bytes"] = float64(sh.BuddyBytes)
		into["bench.shrink.revoked_msgs"] = float64(sh.RevokedMsgs)
	}
	if mg := migrate.Migrate; mg != nil {
		into["bench.migrate.copy_s"] = mg.CopyS
		into["bench.migrate.copy_bytes"] = float64(mg.CopyBytes)
	}
	into["bench.backoff_s"] = migrate.BackoffS
	into["bench.attempts"] = float64(restart.Attempts + shrink.Attempts + migrate.Attempts)
	into["bench.wasted_virtual_s"] = migrate.WastedVirtualS
	// The traffic and solver counters come from the three policy journals'
	// registries combined; the vclock split from the migrate leg's final
	// attempt, the one that reproduces the reference job.
	if f := migrate.Final; f != nil {
		into["vclock.assembly_s"] = f.Iter.AvgAssembly
		into["vclock.precond_s"] = f.Iter.AvgPrecond
		into["vclock.solve_s"] = f.Iter.AvgSolve
		into["vclock.other_s"] = f.Iter.AvgOther
		into["vclock.comm_frac"] = f.Iter.CommFraction
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runWorkload dispatches one run of the named workload.
func runWorkload(name string, sz sizes, seed uint64, tr *tracer) (*iterResult, error) {
	switch name {
	case "weak-rd":
		return runWeakRD(sz, seed, tr)
	case "steady-ns":
		return runSteadyNS(sz, seed, tr)
	case "storm-recovery":
		return runStorm(sz, seed, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}
