package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

// batchWorkload is a workload made of repetitions: each repetition runs a
// fixed list of pipeline configs one after another and renders one
// report from them. Every pipeline run is one operation.
type batchWorkload struct {
	// configs returns one repetition's runs for a seed.
	configs func(seed int64) []core.Config
	// render is the repetition's report; its SHA-256 is the digest the
	// correctness checks compare.
	render func(chs []*core.Characterization) string
	// verify, when set, runs the workload's own untimed accuracy checks
	// against one repetition's runs, failing operations on o and
	// filling per-layer metrics.
	verify func(ctx context.Context, seed int64, chs []*core.Characterization, o *outcome)
}

func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// scaled applies a test scale to a window.
func scaled(w arch.Cycles, scale float64) arch.Cycles {
	if scale <= 0 || scale == 1 {
		return w
	}
	return arch.Cycles(float64(w) * scale)
}

// characterize is the paper reproduction: the three OS-intensive workloads
// on the measured 4D/340 at the default window, full detail, streaming
// classifier, every table and figure rendered with report.All.
func characterize(scale float64) *batchWorkload {
	return &batchWorkload{
		configs: func(seed int64) []core.Config {
			var cfgs []core.Config
			for _, k := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
				cfgs = append(cfgs, core.Config{Workload: k, Seed: seed,
					Window: scaled(arch.DefaultWindow, scale)})
			}
			return cfgs
		},
		render: func(chs []*core.Characterization) string {
			return report.All(&report.Set{Pmake: chs[0], Multpgm: chs[1], Oracle: chs[2], Parallelism: 1})
		},
	}
}

// sampledSchedule is the validated reference sampling schedule (30K-cycle
// re-warm, 60K-cycle measured interval, 430K-cycle period).
const sampledSchedule = "30K:60K:430K"

// sampledWindow is sampled_long's traced window: long enough that
// fast-forward dominates the run.
const sampledWindow arch.Cycles = 50_000_000

// sampledLong runs Pmake at a long window under the reference sampling
// schedule — the only workload on the sim.Phase/sample path — and checks
// the estimate against a full-detail run of the same seed and window.
func sampledLong(scale float64) *batchWorkload {
	sched, err := sample.Parse(sampledSchedule)
	if err != nil {
		panic(err) // a constant schedule
	}
	return &batchWorkload{
		configs: func(seed int64) []core.Config {
			return []core.Config{{Workload: workload.Pmake, Seed: seed,
				Window: scaled(sampledWindow, scale), Sample: sched}}
		},
		render: func(chs []*core.Characterization) string { return report.Single(chs[0]) },
		verify: verifySampled,
	}
}

// verifySampled compares a sampled run's per-class estimate with a
// full-detail run of the same seed and window: every cell within 1% of
// the full total plus 4 standard errors, the total within 20%.
func verifySampled(ctx context.Context, seed int64, chs []*core.Characterization, o *outcome) {
	samp := chs[0]
	cfg := samp.Cfg
	cfg.Sample = sample.Schedule{}
	o.attempted++
	full, err := runPipeline(ctx, cfg, nil)
	if err != nil {
		o.fail("sampled_long: full-detail reference run: %v", err)
		return
	}
	var fullTotal float64
	for _, c := range full.Trace.Counts {
		for _, cls := range c {
			for _, n := range cls {
				fullTotal += float64(n)
			}
		}
	}
	e := samp.Sampled
	worst := 0.0
	bad := 0
	for os := 0; os < 2; os++ {
		for in := 0; in < 2; in++ {
			for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
				got, want, se := e.Total[os][in][cl], float64(full.Trace.Counts[os][in][cl]), e.StdErr[os][in][cl]
				excess := math.Abs(got-want) - 0.01*fullTotal
				if excess > 4*se {
					bad++
				}
				if excess > 0 {
					sigma := math.Inf(1)
					if se > 0 {
						sigma = excess / se
					}
					worst = math.Max(worst, sigma)
				}
			}
		}
	}
	total, _ := e.TotalAll()
	errPct := 100 * math.Abs(total-fullTotal) / fullTotal
	if bad > 0 || errPct > 20 {
		o.fail("sampled_long: %d cells outside 1%% of total + 4σ, total off by %.1f%% (cap 20%%)", bad, errPct)
	}
	if math.IsInf(worst, 1) {
		worst = 1e9
	}
	o.layer["sample.samples"] = float64(e.Samples)
	o.layer["sample.measured_share"] = float64(e.MeasuredCycles()) / float64(e.Window)
	o.layer["sample.max_cell_err_sigma"] = worst
	o.layer["sample.total_err_pct"] = errPct
}

// lockSweep is the Figure 11 path: Multpgm at 2, 4 and 8 CPUs with the
// monitor and classifier off, so only kernel and lock statistics are
// collected.
func lockSweep(scale float64) *batchWorkload {
	return &batchWorkload{
		configs: func(seed int64) []core.Config {
			var cfgs []core.Config
			for _, n := range []int{2, 4, 8} {
				cfgs = append(cfgs, core.Config{Workload: workload.Multpgm, NCPU: n, Seed: seed,
					Window: scaled(arch.DefaultWindow, scale), NoTrace: true})
			}
			return cfgs
		},
		render: func(chs []*core.Characterization) string {
			var b strings.Builder
			for _, ch := range chs {
				b.WriteString(report.Single(ch))
				for _, st := range ch.Sim.K.Locks.AllStats() {
					fmt.Fprintf(&b, "lock %s acquires=%d failed=%d attempts=%d\n",
						st.Name, st.Acquires, st.Failed, st.Attempts)
				}
			}
			return b.String()
		},
	}
}

// repResult is one repetition's measurements.
type repResult struct {
	wall      float64 // seconds
	runWalls  []float64
	simCycles float64
	allocMB   float64
	digest    string
	chs       []*core.Characterization
	traced    tracedStats
	ok        bool
}

// rep executes one repetition, untraced (tr nil, through core.RunMonitored)
// or traced (through runTraced). Failed runs are counted on o.
func (b *batchWorkload) rep(ctx context.Context, seed int64, tr *tracer, o *outcome) repResult {
	var r repResult
	cfgs := b.configs(seed)
	a0 := heapAllocBytes()
	t0 := time.Now()
	body := func(ctx context.Context) {
		for _, cfg := range cfgs {
			r0 := time.Now()
			var ch *core.Characterization
			var err error
			if tr == nil {
				ch, err = runPipeline(ctx, cfg, nil)
			} else {
				ch, err = runTraced(ctx, cfg, tr, &r.traced)
			}
			r.runWalls = append(r.runWalls, time.Since(r0).Seconds())
			o.attempted++
			if err != nil {
				o.fail("%v", err)
				continue
			}
			r.chs = append(r.chs, ch)
			r.simCycles += float64(ch.Cfg.Window+ch.Cfg.Warmup) * float64(ch.Cfg.NCPU)
		}
		if len(r.chs) != len(cfgs) {
			return
		}
		var text string
		tr.do(ctx, "render", func(context.Context) { text = b.render(r.chs) })
		r.digest = digestOf(text)
		r.ok = true
	}
	tr.do(ctx, "rep", body)
	r.wall = time.Since(t0).Seconds()
	r.allocMB = (heapAllocBytes() - a0) / 1e6
	return r
}

// appendRep appends a repetition, keeping the runs themselves only for the
// first clean one: the checks and counts need one repetition's runs, and
// holding on to every repetition's simulators would make memory (and the
// peak-RSS metric) grow with the run length.
func appendRep(reps []repResult, r repResult) []repResult {
	for _, prev := range reps {
		if prev.ok {
			r.chs = nil
			break
		}
	}
	return append(reps, r)
}

// setupProbes is how many set-ups of each config are timed before each
// untraced repetition; setup_s takes their median.
const setupProbes = 4

// measureBatch runs a batch workload for the given budget and fills o.
// Untraced runs report the end-to-end metrics. Traced runs spend the first
// half of the budget untraced (the overhead baseline) and the second half
// traced, under a CPU profile, and report the per-layer metrics.
func measureBatch(ctx context.Context, b *batchWorkload, p params, o *outcome) error {
	var reps, untraced []repResult
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	if p.traced {
		deadline = time.Now().Add(time.Duration(p.seconds / 2 * float64(time.Second)))
	}
	cfgs := b.configs(p.seed)
	setups := make([][]float64, len(cfgs))
	for len(untraced) < 2 || time.Now().Before(deadline) {
		if !p.traced {
			for i, cfg := range cfgs {
				for k := 0; k < setupProbes; k++ {
					// A collected heap keeps the probes' garbage out of
					// peak_rss_mb and gives every probe the same start.
					runtime.GC()
					d, err := timeSetup(ctx, cfg)
					if err != nil {
						return err
					}
					setups[i] = append(setups[i], d.Seconds())
				}
			}
		}
		runtime.GC() // each repetition starts from a collected heap
		untraced = appendRep(untraced, b.rep(ctx, p.seed, nil, o))
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	reps = untraced
	var tr *tracer
	var prof bytes.Buffer
	var rt0, rt1 rtCounters
	if p.traced {
		tr = newTracer()
		deadline = time.Now().Add(time.Duration(p.seconds / 2 * float64(time.Second)))
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		rt0 = readRT()
		var traced []repResult
		for len(traced) < 2 || time.Now().Before(deadline) {
			runtime.GC()
			tr.rep++
			traced = appendRep(traced, b.rep(ctx, p.seed, tr, o))
			if ctx.Err() != nil {
				break
			}
		}
		rt1 = readRT()
		pprof.StopCPUProfile()
		reps = append(reps, traced...)
		o.layer["gc.cpu_share"] = gcShare(rt0, rt1)
		if err := b.layerMetrics(untraced, traced, tr, prof.Bytes(), o); err != nil {
			return err
		}
	}
	if !p.traced {
		o.e2e["peak_rss_mb"] = peakRSSMB()
	}

	// Correctness: every repetition renders the same report, which must
	// equal the pinned digest when the seed has one.
	want := p.expect
	for i, r := range reps {
		if !r.ok {
			continue
		}
		switch {
		case want != "" && r.digest != want:
			o.failN(len(r.runWalls), "repetition %d: report digest %.16s, pinned %.16s", i, r.digest, want)
		case want == "" && r.digest != reps[0].digest:
			o.failN(len(r.runWalls), "repetition %d: report digest %.16s differs from repetition 0's %.16s", i, r.digest, reps[0].digest)
		}
	}
	var ok *repResult
	for i := range reps {
		if reps[i].ok {
			ok = &reps[i]
			break
		}
	}
	if ok != nil && b.verify != nil {
		b.verify(ctx, p.seed, ok.chs, o)
	}
	b.checkRun(ctx, p.seed, o)

	var walls, mcps, runs, slowest []float64
	var totalWall float64
	for _, r := range untraced {
		walls = append(walls, r.wall)
		mcps = append(mcps, r.simCycles/r.wall/1e6)
		runs = append(runs, r.runWalls...)
		slowest = append(slowest, percentile(r.runWalls, 100))
		totalWall += r.wall
	}
	o.e2e["wall_s"] = median(walls)
	o.e2e["sim_mcycles_per_s"] = median(mcps)
	// setup_s is one repetition's set-up: the median set-up of each
	// config, summed over the configs.
	var setupMedians []float64
	for _, xs := range setups {
		setupMedians = append(setupMedians, median(xs))
		o.e2e["setup_s"] += median(xs)
	}
	o.samples["setup"] = len(setups[0])
	o.e2e["jobs_per_s"] = float64(len(runs)) / totalWall
	o.e2e["latency_p50_ms"] = 1e3 * percentile(runs, 50)
	// A run has too few pipeline runs for a measured 99th percentile (the
	// nearest rank would be the single slowest run, an outlier). The tail
	// reported is the slowest run of each repetition — every per-run
	// percentile above 1-1/len(configs) of a repetition — as a median over
	// repetitions.
	o.e2e["latency_p99_ms"] = 1e3 * median(slowest)
	o.samples["repetitions"] = len(untraced)
	o.series["wall_s"], o.series["setup_s"] = walls, setupMedians
	o.samples["latency"] = len(runs)
	return nil
}

// checkRun runs one repetition's configs under the invariant checker,
// untimed; any violation fails that run.
func (b *batchWorkload) checkRun(ctx context.Context, seed int64, o *outcome) {
	for _, cfg := range b.configs(seed) {
		cfg.Check = true
		o.attempted++
		ch, err := runPipeline(ctx, cfg, nil)
		switch {
		case err != nil:
			o.fail("checked run: %v", err)
		case ch.Sim.Chk == nil || ch.Sim.Chk.Checks == 0:
			o.fail("checked run %s/%d CPUs: checker performed no checks", cfg.Workload, ch.Cfg.NCPU)
		case ch.Sim.Chk.Violations > 0:
			o.fail("checked run %s/%d CPUs: %d invariant violations, first: %v",
				cfg.Workload, ch.Cfg.NCPU, ch.Sim.Chk.Violations, firstErr(ch))
		}
	}
}

func firstErr(ch *core.Characterization) any {
	if len(ch.CheckErrors) > 0 {
		return ch.CheckErrors[0]
	}
	return "(list capped)"
}

// countMetrics are the per-layer counts of work done; they repeat exactly
// for a seed.
var countMetrics = []string{"trace.records", "bus.txns", "bus.upgrades", "bus.writebacks",
	"trace.misses", "trace.os_misses", "kernel.ctxswitches", "kernel.migrations",
	"klock.acquires", "klock.failed_acquires"}

// layerMetrics derives the per-layer metrics from the traced repetitions,
// their spans and the CPU profile, and fills the ledger.
func (b *batchWorkload) layerMetrics(untraced, traced []repResult, tr *tracer, prof []byte, o *outcome) error {
	samples, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	var walls, setupAlloc, recordS, uwalls, allocMB []float64
	for _, r := range traced {
		walls = append(walls, r.wall)
		setupAlloc = append(setupAlloc, r.traced.setupAllocB/1e6)
		recordS = append(recordS, r.traced.recordS)
	}
	for _, r := range untraced {
		uwalls = append(uwalls, r.wall)
		allocMB = append(allocMB, r.allocMB)
	}
	L := o.layer
	L["setup.self_s"] = median(tr.selfByRep("setup"))
	L["setup.alloc_mb"] = median(setupAlloc)
	simSelf := tr.selfByRep("simulate")
	L["simulate.self_s"] = median(simSelf)
	L["trace.finish_s"] = median(tr.selfByRep("finish"))
	L["report.render_s"] = median(tr.selfByRep("render"))
	L["trace.record_s"] = median(recordS)
	L["alloc.mb"] = median(allocMB)

	// Work done, from the first clean traced repetition: these counts
	// repeat exactly for a seed.
	for _, r := range traced {
		if !r.ok {
			continue
		}
		L["trace.records"] = float64(r.traced.records)
		for _, ch := range r.chs {
			st := ch.Sim.Bus.Stats
			L["bus.txns"] += float64(st.Transactions())
			L["bus.upgrades"] += float64(st.Upgrades)
			L["bus.writebacks"] += float64(st.WriteBacks)
			if ch.Trace != nil {
				L["trace.misses"] += float64(ch.Trace.Total)
				L["trace.os_misses"] += float64(ch.Trace.OSMissTotal)
			}
			L["kernel.ctxswitches"] += float64(ch.Ops.CtxSwitches)
			L["kernel.migrations"] += float64(ch.Ops.Migrations)
			for _, ls := range ch.Sim.K.Locks.AllStats() {
				L["klock.acquires"] += float64(ls.Acquires)
				L["klock.failed_acquires"] += float64(ls.Failed)
			}
		}
		break
	}
	led := o.ledger
	led.Counts = map[string]float64{}
	for _, n := range countMetrics {
		led.Counts[n] = L[n]
	}
	L["trace.ns_per_record"] = 1e9 * ratio(L["trace.record_s"], L["trace.records"])
	L["trace.miss_per_record"] = ratio(L["trace.misses"], L["trace.records"])
	L["bus.ns_per_txn"] = 1e9 * ratio(L["simulate.self_s"], L["bus.txns"]+L["bus.writebacks"])

	att := attribute(samples, "simulate")
	for _, l := range cpuLayers {
		L[l+".cpu_share"] = att.Layers[l]
	}
	L["profile.coverage"] = ratio(att.TotalS, sum(simSelf))
	L["tracing.overhead_s"] = median(walls) - median(uwalls)
	L["tracing.overhead_share"] = ratio(L["tracing.overhead_s"], median(uwalls))

	led.Spans = tr.spans
	led.Profile = map[string]attribution{"simulate": att, "all": attribute(samples, "")}
	led.Overhead.UntracedWallS = median(uwalls)
	led.Overhead.TracedWallS = median(walls)
	led.Overhead.OverheadS = L["tracing.overhead_s"]
	led.Overhead.Share = L["tracing.overhead_share"]
	return nil
}
