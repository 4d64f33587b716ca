// Command charosbench is the benchmark of the charos reproduction. It
// drives the system from outside, through its public entry points — the
// characterization pipeline (core.RunMonitored), the streaming classifier
// installed as Simulator.Stream, the report renderers and the experiment
// service over HTTP — measures for a fixed time, checks every output, and
// prints its metrics, the last line of standard output being one JSON
// object:
//
//	charosbench --workload characterize --seed 1 --seconds 10 --trace 0
//	charosbench compare [-force] OLD NEW
//	charosbench pin --seeds 1-10
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run that reports the per-layer metrics and
// writes the traced run's ledger. See README.md beside this file.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. On the pipeline workloads an operation is one pipeline
// run; on service it is one job.
var endToEnd = []metricDef{
	{"wall_s", "s"},                    // median wall time of one repetition (service: one round)
	{"sim_mcycles_per_s", "Mcycles/s"}, // simulated CPU-cycles per host second, median repetition
	{"setup_s", "s"},                   // median set-up time per repetition (service: construction to first accepted job)
	{"peak_rss_mb", "MB"},              // peak resident memory of the process
	{"jobs_per_s", "1/s"},              // operations completed per host second
	{"latency_p50_ms", "ms"},           // per-operation latency, median
	{"latency_p99_ms", "ms"},           // per-operation latency, nearest-rank 99th percentile
}

// errorRate is printed with the end-to-end metrics in the table but kept
// out of the JSON metrics: the result line already carries it as
// failed/attempted, and it is 0 on a correct build.
var errorRate = metricDef{"error_rate", "ratio"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"setup.self_s", "s"}, {"setup.alloc_mb", "MB"},
	{"simulate.self_s", "s"}, {"profile.coverage", "ratio"},
	{"sim.cpu_share", "ratio"}, {"cache.cpu_share", "ratio"}, {"bus.cpu_share", "ratio"},
	{"tlb.cpu_share", "ratio"}, {"kernel.cpu_share", "ratio"}, {"trace.cpu_share", "ratio"},
	{"monitor.cpu_share", "ratio"}, {"service.cpu_share", "ratio"}, {"runtime.cpu_share", "ratio"},
	{"bench.cpu_share", "ratio"}, {"other.cpu_share", "ratio"},
	{"bus.ns_per_txn", "ns"},
	{"trace.record_s", "s"}, {"trace.records", "count"}, {"trace.ns_per_record", "ns"},
	{"trace.finish_s", "s"}, {"trace.miss_per_record", "ratio"},
	{"sample.samples", "count"}, {"sample.measured_share", "ratio"},
	{"sample.max_cell_err_sigma", "sigma"}, {"sample.total_err_pct", "%"},
	{"bus.txns", "count"}, {"bus.upgrades", "count"}, {"bus.writebacks", "count"},
	{"trace.misses", "count"}, {"trace.os_misses", "count"},
	{"kernel.ctxswitches", "count"}, {"kernel.migrations", "count"},
	{"klock.acquires", "count"}, {"klock.failed_acquires", "count"},
	{"report.render_s", "s"},
	{"service.hit_ratio", "ratio"}, {"service.dedup", "count"}, {"service.shed", "count"},
	{"service.failed", "count"}, {"service.hit_latency_p50_ms", "ms"},
	{"service.miss_latency_p50_ms", "ms"}, {"service.overhead_ms", "ms"},
	{"service.latency_samples", "count"},
	{"gc.cpu_share", "ratio"}, {"alloc.mb", "MB"},
	{"tracing.overhead_s", "s"}, {"tracing.overhead_share", "ratio"},
}

// params are one run's inputs.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	// expect is the pinned report digest for this workload and seed, ""
	// when the seed has none.
	expect string
}

// outcome collects one run's operations and metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]float64
	// samples counts the measurements behind the timings.
	samples map[string]int
	// series keeps the per-repetition values behind the medians.
	series map[string][]float64
	ledger *ledger
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string]int{}, series: map[string][]float64{}, ledger: &ledger{}}
}

// maxErrs caps the failure messages kept per run.
const maxErrs = 20

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations with one message.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.errs) < maxErrs {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one benchmark workload: a pipeline batch or the service.
type workloadDef struct {
	name  string
	batch *batchWorkload
	svc   *serviceWorkload
}

func (w workloadDef) run(ctx context.Context, p params, o *outcome) error {
	if w.batch != nil {
		return measureBatch(ctx, w.batch, p, o)
	}
	return measureService(ctx, w.svc, p, o)
}

// workloads are the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workloadDef{
	{name: "characterize", batch: characterize(1)},
	{name: "sampled_long", batch: sampledLong(1)},
	{name: "lock_sweep", batch: lockSweep(1)},
	{name: "service", svc: defaultService()},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps workload → seed → the SHA-256 of the rendered report
// (for service, of the hot configs' reports).
func pinnedDigests() (map[string]map[string]string, error) {
	d := map[string]map[string]string{}
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// result is what a run writes to its result file; the comparison reads it.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     int                  `json:"trace"`
	Host      host                 `json:"host"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Units     map[string]string    `json:"units"`
	Samples   map[string]int       `json:"samples"`
	Series    map[string][]float64 `json:"series"`
	Elapsed   float64              `json:"elapsed_s"`
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
		case "pin":
			os.Exit(pinMain(args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(benchMain(args, os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: characterize, sampled_long, lock_sweep or service")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "charosbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "charosbench: --trace must be 0 or 1\n")
		return 2
	}
	digests, err := pinnedDigests()
	if err != nil {
		fmt.Fprintf(stderr, "charosbench: %v\n", err)
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		expect: digests[w.name][strconv.FormatInt(*seed, 10)]}
	outPath := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceFlag))
	ledgerPath := filepath.Join(".bench_build", "ledger", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	res, o, err := runWorkload(context.Background(), w, p)
	if err != nil {
		fmt.Fprintf(stderr, "charosbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeJSONFile(outPath, res); err != nil {
		fmt.Fprintf(stderr, "charosbench: result file: %v\n", err)
		return 1
	}
	if p.traced {
		o.ledger.Workload, o.ledger.Seed, o.ledger.Host = w.name, p.seed, res.Host
		o.ledger.PerLayer = o.layer
		if err := writeJSONFile(ledgerPath, o.ledger); err != nil {
			fmt.Fprintf(stderr, "charosbench: ledger: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ledger written to %s\n", ledgerPath)
	}
	printResult(stdout, res, p.traced)
	return 0
}

// runWorkload runs one workload and assembles its result.
func runWorkload(ctx context.Context, w workloadDef, p params) (result, *outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	if err := w.run(ctx, p, o); err != nil {
		return result{}, nil, err
	}
	res := result{
		Workload: w.name, Seed: p.seed, Seconds: p.seconds, Trace: traceFlag(p.traced), Host: hostInfo(),
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Errors: o.errs,
		Metrics: map[string]float64{}, Units: map[string]string{}, Samples: o.samples, Series: o.series,
		Elapsed: time.Since(t0).Seconds(),
	}
	defs, vals := endToEnd, o.e2e
	if p.traced {
		defs, vals = perLayer, o.layer
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = v
		res.Units[d.name] = d.unit
	}
	res.Metrics[errorRate.name] = ratio(float64(o.failed), float64(o.attempted))
	res.Units[errorRate.name] = errorRate.unit
	return res, o, nil
}

func traceFlag(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// printResult writes the metric table, the failures, and the final JSON
// line the benchmark contract reads.
func printResult(w io.Writer, res result, traced bool) {
	h := res.Host
	fmt.Fprintf(w, "charosbench %s seed=%d seconds=%g trace=%d host: nproc=%d gomaxprocs=%d %s %q commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, res.Metrics[n], res.Units[n])
	}
	var counts []string
	for k, v := range res.Samples {
		counts = append(counts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "  samples: %s; operations: %d attempted, %d failed\n", strings.Join(counts, " "), res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAIL: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(line) // runWorkload rejected non-finite values, so this cannot fail
	fmt.Fprintf(w, "%s\n", b)
}
