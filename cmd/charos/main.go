// Command charos runs the full characterization pipeline — the simulated
// four-CPU multiprocessor, the instrumented kernel, the three workloads of
// the paper, the hardware monitor, and the trace postprocessor — and
// prints any (or all) of the paper's tables and figures with the published
// values side by side. It also runs the parameter sweeps: the Figure 11
// lock-contention sweep over CPU counts and the full-system data-cache
// geometry sweep that cross-validates the §4.2.2 replay oracle.
// Independent runs fan out across a worker pool; -parallel 1 restores
// serial execution (output is byte-identical either way).
//
// Every experiment builds its runs from the one base config the flags
// describe. A flag that an experiment cannot honour is a usage error.
//
// Usage:
//
//	charos [-exp all|table1|figure1|...|table12] [-window N] [-seed N]
//	charos -exp figure6            # includes the cache sweeps
//	charos -exp figure11 [-cpus 2,4,6,8,12,16]
//	charos -exp geometry [-machine 4d340|4d380]   # checker always on
//	charos -exp locks [-workload Pmake|Multpgm|Oracle]
//	charos -exp table1 -window 24000000
//	charos -exp table1 -check      # run under the invariant checker
//	charos -exp table1 -check -inject all   # checked fault-injection run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/machineflag"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment to reproduce: all, report, table1, figure1, figure2, figure3, figure4, figure5, figure6, figure7, table3, figure8, table4, table5, table6, table7, figure9, table9, figure10, table10, table11, table12, section6, figure11, geometry, locks")
	window := machineflag.CyclesFlag(flag.CommandLine, "window", int64(arch.DefaultWindow),
		"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)")
	sampleSpec := flag.String("sample", "",
		"sampled simulation schedule \"warmup:len:period\" in cycles (e.g. 100K:200K:10M); -exp report, geometry (its direct re-runs) or locks")
	seed := flag.Int64("seed", 1, "random seed")
	ncpu := flag.Int("ncpu", 0, "number of CPUs (0 = the -machine preset's count)")
	cpus := flag.String("cpus", "2,4,6,8,12,16", "CPU counts for -exp figure11")
	wl := flag.String("workload", "Pmake", "workload whose lock families -exp locks dumps: Pmake, Multpgm, Oracle")
	affinity := flag.Bool("affinity", false, "enable cache-affinity scheduling")
	checkFlag := flag.Bool("check", false, "run the invariant checker (shadow memory, coherence, lock discipline)")
	injectFlag := flag.String("inject", "", "fault-injection modes: evict, jitter, intr, migrate, all, or a comma list")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injector seed (0 derives one from -seed)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent runs (1 = serial)")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget for the whole run (0 = none); on expiry prints the cancellation provenance and exits nonzero")
	buffered := flag.Bool("buffered", false,
		"use the stop-and-drain pipeline (materialize the monitor trace, classify post-run) instead of streaming classification")
	reference := flag.Bool("reference", false,
		"run the generic oracle paths (way-loop caches, full snoop broadcasts, rescan scheduler) instead of the memory-system fast path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mf := machineflag.Register(flag.CommandLine)
	flag.Parse()

	var kind workload.Kind // the -exp locks detail dump
	sections := map[string]func(*report.Set) string{
		"all": func(s *report.Set) string { return report.All(s) + report.Figure6(s) },
		// Per-run reports: the one section that renders sampled runs
		// (estimated totals with error bars) as well as full ones.
		"report": func(s *report.Set) string {
			return report.Single(s.Pmake) + report.Single(s.Multpgm) + report.Single(s.Oracle)
		},
		// The Section 5 synchronization study plus every lock family
		// of one workload.
		"locks": func(s *report.Set) string {
			ch := map[workload.Kind]*core.Characterization{
				workload.Pmake: s.Pmake, workload.Multpgm: s.Multpgm, workload.Oracle: s.Oracle}[kind]
			return report.Table10(s) + report.Table11() + report.Table12(s) + report.LockFamilies(ch)
		},
		"table1":   report.Table1,
		"figure1":  report.Figure1,
		"figure2":  report.Figure2,
		"figure3":  report.Figure3,
		"figure4":  report.Figure4,
		"figure5":  report.Figure5,
		"figure6":  report.Figure6,
		"figure7":  report.Figure7,
		"figure8":  report.Figure8,
		"table4":   report.Table4,
		"table5":   report.Table5,
		"table6":   report.Table6,
		"table7":   report.Table7,
		"figure9":  report.Figure9,
		"table9":   report.Table9,
		"figure10": report.Figure10,
		"table10":  report.Table10,
		"table12":  report.Table12,
	}
	static := map[string]func() string{"table3": report.Table3, "table11": report.Table11}
	var setExps []string // the experiments that run the three-workload set
	for name := range sections {
		setExps = append(setExps, name)
	}

	name := strings.ToLower(*exp)
	if _, ok := sections[name]; !ok && static[name] == nil &&
		name != "section6" && name != "figure11" && name != "geometry" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	// The flags that only some experiments can honour, with the
	// experiments that honour them. The paper tables print exact
	// classification counts, so only the sections that render an
	// estimate take -sample; -ncpu yields to -cpus in figure11 and to the
	// fixed 8 CPUs of section6; figure11 runs with no trace to buffer.
	scope := map[string][]string{
		"sample":   {"report", "geometry", "locks"},
		"cpus":     {"figure11"},
		"workload": {"locks"},
		"ncpu":     setExps,
		"buffered": slices.Concat(setExps, []string{"geometry", "section6"}),
	}
	var misused []string
	flag.Visit(func(f *flag.Flag) {
		if exps, ok := scope[f.Name]; ok && !slices.Contains(exps, name) {
			misused = append(misused, fmt.Sprintf("-%s does not apply to -exp %s", f.Name, name))
		}
	})
	if len(misused) > 0 {
		fmt.Fprintln(os.Stderr, strings.Join(misused, "\n"))
		return 2
	}

	machine, err := mf.Machine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	icfg, err := inject.Preset(*injectFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	icfg.Seed = *faultSeed
	var injectCfg *inject.Config
	if icfg.Enabled() {
		injectCfg = &icfg
		if !*checkFlag {
			fmt.Fprintln(os.Stderr, "note: -inject without -check perturbs the run unvalidated")
		}
	}
	sched, err := sample.Parse(*sampleSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var counts []int
	if name == "figure11" {
		for _, part := range strings.Split(*cpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "-cpus: bad cpu count %q\n", part)
				return 2
			}
			counts = append(counts, n)
		}
	}
	if name == "locks" {
		if kind, err = workload.ParseKind(*wl); err != nil {
			fmt.Fprintf(os.Stderr, "-workload: %v\n", err)
			return 2
		}
	}
	if render := static[name]; render != nil {
		fmt.Print(render())
		return 0
	}
	base := core.Config{
		Machine:       machine,
		Window:        arch.Cycles(*window),
		Seed:          *seed,
		NCPU:          *ncpu,
		Affinity:      *affinity,
		Check:         *checkFlag,
		Inject:        injectCfg,
		Buffered:      *buffered,
		Reference:     *reference,
		Sample:        sched,
		CollectIResim: name == "all" || name == "figure6",
	}

	// Derive every run's config from the base and validate them all
	// before the first (expensive) simulation starts.
	var cfgs []core.Config
	switch name {
	case "section6":
		// The cluster what-if study runs its own 8-CPU Multpgm
		// simulation. It reprices the materialized transaction trace, so
		// it always runs the buffered pipeline.
		c := base
		c.Workload, c.NCPU, c.Buffered = workload.Multpgm, 8, true
		cfgs = []core.Config{c}
	case "figure11":
		// The same derivation report.RunFigure11 applies.
		for _, n := range counts {
			c := base
			c.Workload, c.NCPU, c.NoTrace = workload.Multpgm, n, true
			cfgs = append(cfgs, c)
		}
	case "geometry":
		cfgs = geometryConfigs(base)
	default:
		// The set's three runs differ from the base only in Workload,
		// which Validate does not depend on.
		cfgs = []core.Config{base}
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			// Validate names the field by its flag name.
			fmt.Fprintf(os.Stderr, "-%v\n", err)
			return 2
		}
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := runner.Options{Parallelism: *parallel}

	switch name {
	case "section6":
		ch, err := core.RunContext(ctx, cfgs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		results := cluster.Study(ch.Sim.Mon.Trace(), ch.Sim.K.L, 8, 2)
		fmt.Print(cluster.Render(results, "Multpgm, 4 clusters of 2"))
		return checked(base.Check, []string{"section6"}, []*core.Characterization{ch})
	case "figure11":
		// A run that breaks an invariant fails the sweep with an error.
		pts, batch, err := report.RunFigure11(ctx, base, counts, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(report.Figure11(pts))
		fmt.Fprint(os.Stderr, batch.Table())
		return 0
	case "geometry":
		return geometry(ctx, cfgs, opts)
	}

	fmt.Fprintf(os.Stderr, "running Pmake, Multpgm and Oracle (window %d cycles ≈ %.0f ms at 33 MHz, %d workers)...\n",
		base.Window, float64(base.Window.NS())/1e6, *parallel)
	if injectCfg != nil {
		fmt.Fprintf(os.Stderr, "fault injection on: %s\n", injectCfg.Modes())
	}
	set, err := report.RunSet(ctx, base, opts)
	if err != nil {
		// The structured cancellation carries its provenance: canonical
		// config hash, seed, and the simulated cycle reached.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(sections[name](set))
	fmt.Fprint(os.Stderr, set.Stats.Table())
	if injectCfg != nil && set.Pmake.Sim.Inj != nil {
		fmt.Fprintf(os.Stderr, "faults delivered (Pmake): %v\n", set.Pmake.Sim.Inj.Stats)
	}
	return checked(base.Check, []string{"Pmake", "Multpgm", "Oracle"},
		[]*core.Characterization{set.Pmake, set.Multpgm, set.Oracle})
}

// checked prints every run's invariant violations to stderr — all of
// them, so one run diagnoses the whole batch — and returns the exit
// status: 1 if any run broke an invariant. A clean checked batch ends
// with the checker's summary line.
func checked(check bool, names []string, runs []*core.Characterization) int {
	bad := false
	var checks int64
	for i, ch := range runs {
		bad = report.ReportViolations(os.Stderr, names[i], ch, -1) || bad
		if ch.Sim.Chk != nil {
			checks += ch.Sim.Chk.Checks
		}
	}
	if bad {
		return 1
	}
	if check {
		fmt.Fprintf(os.Stderr, "invariant checker: %d checks, 0 violations\n", checks)
	}
	return 0
}

// geometryConfigs derives the geometry sweep's runs from the base
// config, checker always on: first the baseline, which records its
// data-miss stream for the §4.2.2 replay oracle and so always runs in
// full; then one direct full-system re-run per direct-mapped point of
// core.DefaultDSweepConfigs with the coherence-level cache resized (the
// replay caches cannot model associativity, so those points have no
// comparable direct run); last the 4d380 preset (8 CPUs, 64 MB) end to
// end. A -sample schedule applies to the direct and preset runs.
func geometryConfigs(base core.Config) []core.Config {
	base.Check = true
	baseline := base
	baseline.Sample = sample.Schedule{}
	baseline.CollectDResim = true
	cfgs := []core.Config{baseline}
	for _, p := range core.DefaultDSweepConfigs() {
		if p.Assoc == 1 {
			c := base
			c.Machine.DCacheL2Size, c.Machine.DCacheL2Assoc = p.Size, p.Assoc
			cfgs = append(cfgs, c)
		}
	}
	preset := base
	preset.Machine, _ = machineflag.Preset("4d380")
	return append(cfgs, preset)
}

// geometry runs the geometry sweep's configs (see geometryConfigs) as one
// batch and prints the replay and direct relative-miss curves side by
// side, then the preset run's summary. Any invariant violation fails the
// sweep.
func geometry(ctx context.Context, cfgs []core.Config, opts runner.Options) int {
	baseline := cfgs[0]
	fmt.Fprintf(os.Stderr, "geometry sweep on %s, window %d, seed %d\n",
		baseline.Machine, baseline.Window, baseline.Seed)
	if s := cfgs[1].Sample; s.Enabled() {
		fmt.Fprintf(os.Stderr, "sampling %s on the direct re-runs (baseline stays full for the replay oracle)\n", s)
	}
	res, batch := runner.Experiments(ctx, cfgs, opts)
	runs := make([]*core.Characterization, len(res))
	names := make([]string, len(res))
	for i, r := range res {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			return 1
		}
		runs[i] = r.Ch
		names[i] = "direct " + cfgs[i].Machine.String()
	}
	names[0] = "baseline " + baseline.Machine.String()
	names[len(names)-1] = "preset " + cfgs[len(cfgs)-1].Machine.String()
	fmt.Print(report.Geometry(runs[0], runs[1:len(runs)-1], runs[len(runs)-1]))
	fmt.Fprint(os.Stderr, batch.Table())
	return checked(true, names, runs)
}
