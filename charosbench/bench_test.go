package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
)

// tinyScale shrinks every pipeline window to 2% (240K cycles for the
// default 12M window) so the tests run the real code paths quickly.
const tinyScale = 0.02

func tinyWorkloads() []workloadDef {
	return []workloadDef{
		{name: "characterize", batch: characterize(tinyScale)},
		{name: "sampled_long", batch: sampledLong(tinyScale)},
		{name: "lock_sweep", batch: lockSweep(tinyScale)},
		{name: "service", svc: tinyService()},
	}
}

func tinyService() *serviceWorkload {
	w := defaultService()
	w.window = 200_000
	return w
}

// lastLine decodes the final line of the benchmark's standard output.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return m
}

// TestEveryMetricEmittedWithUnit runs every workload untraced and traced
// and checks that the JSON result line carries exactly the contract keys
// and every named metric with its unit, and that the pipeline workloads
// are correct at this scale.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(context.Background(), w, params{seed: 3, seconds: 0.05, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			var out bytes.Buffer
			printResult(&out, res, traced)
			line := lastLine(t, out.String())
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[k]; !ok {
					t.Errorf("%s: result line lacks %q", w.name, k)
				}
			}
			if len(line) != 4 {
				t.Errorf("%s: result line has %d keys, want 4", w.name, len(line))
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, *m.Value)
				}
			}
			if !strings.Contains(out.String(), "error_rate") {
				t.Errorf("%s: metric table lacks error_rate", w.name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestWrongDigestFailsOperations: a pinned digest the report does not
// match fails the repetition's operations and marks the result incorrect.
func TestWrongDigestFailsOperations(t *testing.T) {
	w := tinyWorkloads()[0]
	res, _, err := runWorkload(context.Background(), w, params{seed: 3, seconds: 0.01, expect: strings.Repeat("0", 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["error_rate"] <= 0 {
		t.Fatalf("wrong digest not reported: correct=%v failed=%d error_rate=%v", res.Correct, res.Failed, res.Metrics["error_rate"])
	}
	if !strings.Contains(strings.Join(res.Errors, "\n"), "pinned") {
		t.Errorf("failure does not name the pinned digest: %v", res.Errors)
	}
}

// TestServiceFailedJobsRaiseErrorRate: jobs that panic inside the server
// are failed operations.
func TestServiceFailedJobsRaiseErrorRate(t *testing.T) {
	sw := tinyService()
	sw.opts.TestHooks = true
	sw.panicEvery = 2
	o := newOutcome()
	if err := measureService(context.Background(), sw, params{seed: 5, seconds: 0.05}, o); err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.layer["service.failed"] == 0 {
		t.Fatalf("forced-panic jobs not counted: failed=%d service.failed=%v", o.failed, o.layer["service.failed"])
	}
}

// TestServiceShedRaisesErrorRate: with one worker and a one-slot queue,
// four clients submitting distinct configs at once overflow the queue and
// are shed (429); the benchmark's clients do not retry, so each shed is a
// failed operation.
func TestServiceShedRaisesErrorRate(t *testing.T) {
	sw := tinyService()
	sw.clients = 4
	sw.opts = service.Options{Workers: 1, QueueDepth: 1}
	sw.window = 2_000_000
	o := newOutcome()
	if err := measureService(context.Background(), sw, params{seed: 6, seconds: 0.05}, o); err != nil {
		t.Fatal(err)
	}
	if o.layer["service.shed"] == 0 || o.failed == 0 {
		t.Fatalf("sheds not counted: shed=%v failed=%d", o.layer["service.shed"], o.failed)
	}
}

// TestCompareRefusesOtherHost: results from different hosts are refused
// unless forced.
func TestCompareRefusesOtherHost(t *testing.T) {
	a := result{Workload: "characterize", Host: host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", CPUModel: "x"},
		Metrics: map[string]float64{"wall_s": 1}}
	b := a
	b.Host.NProc = 8
	bs := testBounds(t)
	var out, errOut bytes.Buffer
	if code := compareResults([]result{a}, []result{b}, bs, false, &out, &errOut); code != 2 {
		t.Fatalf("cross-host compare exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("no refusal message: %q", errOut.String())
	}
	if code := compareResults([]result{a}, []result{b}, bs, true, &out, &errOut); code != 0 {
		t.Fatalf("forced compare exit %d, want 0", code)
	}
	b.Host = a.Host
	b.Host.Commit = "another commit"
	if code := compareResults([]result{a}, []result{b}, bs, false, &out, &errOut); code != 0 {
		t.Fatalf("same-host compare across commits exit %d, want 0", code)
	}
}

func testBounds(t *testing.T) map[string]bound {
	t.Helper()
	bs, err := readBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestCompareFlagsRegression: on one host, a metric worse than its bound
// fails the comparison (exit 1), in either direction of "better", and a
// change within the bound passes.
func TestCompareFlagsRegression(t *testing.T) {
	bs := testBounds(t)
	h := host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", CPUModel: "x"}
	old := result{Workload: "characterize", Host: h,
		Metrics: map[string]float64{"wall_s": 1, "sim_mcycles_per_s": 100}}
	for _, tc := range []struct {
		name string
		m    map[string]float64
		want int
	}{
		{"within bounds", map[string]float64{"wall_s": 1.1, "sim_mcycles_per_s": 95}, 0},
		{"slower wall", map[string]float64{"wall_s": 1 + 2*bs["wall_s"].Bound, "sim_mcycles_per_s": 100}, 1},
		{"lower throughput", map[string]float64{"wall_s": 1, "sim_mcycles_per_s": 100 * (1 - 2*bs["sim_mcycles_per_s"].Bound)}, 1},
	} {
		cur := result{Workload: "characterize", Host: h, Metrics: tc.m}
		var out, errOut bytes.Buffer
		if code := compareResults([]result{old}, []result{cur}, bs, false, &out, &errOut); code != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.want, out.String(), errOut.String())
		}
		if tc.want == 1 && !strings.Contains(out.String(), "WORSE") {
			t.Errorf("%s: no WORSE verdict:\n%s", tc.name, out.String())
		}
	}
}

// TestCompareNeedsBounds: without a readable BENCHMARK.json the comparison
// refuses to run (exit 2) instead of passing unchecked.
func TestCompareNeedsBounds(t *testing.T) {
	dir := t.TempDir()
	r := result{Workload: "characterize", Host: host{NProc: 1}, Metrics: map[string]float64{"wall_s": 1}}
	f := dir + "/r.json"
	if err := writeJSONFile(f, r); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{f, f}, &out, &errOut); code != 2 {
		t.Fatalf("compare without BENCHMARK.json exit %d, want 2", code)
	}
	if err := os.WriteFile("BENCHMARK.json", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{f, f}, &out, &errOut); code != 2 {
		t.Fatalf("compare with a broken BENCHMARK.json exit %d, want 2", code)
	}
}
