package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/workload"
)

// TestSamplingOffByteIdentical: with no schedule, the refactored
// pipeline renders byte-for-byte what it rendered before sampling
// existed and carries no estimate.
func TestSamplingOffByteIdentical(t *testing.T) {
	cfg := core.Config{Workload: workload.Multpgm, Window: 2_000_000, Seed: 5}
	serial := core.Run(cfg)
	if serial.Sampled != nil {
		t.Fatal("unsampled run grew an estimate")
	}
	if strings.Contains(Single(serial), "sampling:") {
		t.Error("unsampled report mentions sampling")
	}
}

// TestSampledReportRendersEstimate: a sampled run's report swaps the
// exact classification block for the extrapolated one — schedule line,
// sample count, and ±stderr error bars on every estimated quantity —
// while the exact whole-window lines (time split, sync stalls, kernel
// ops) render as always.
func TestSampledReportRendersEstimate(t *testing.T) {
	sched, err := sample.Parse("20K:40K:200K")
	if err != nil {
		t.Fatal(err)
	}
	ch := core.Run(core.Config{Workload: workload.Pmake, Window: 2_000_000, Sample: sched})
	got := Single(ch)
	for _, want := range []string{
		"sampling: 20K:40K:200K — 10 samples",
		"±",
		"miss classes (estimated whole-window counts ± stderr):",
		"time split:",
		"sync stalls:",
		"kernel ops:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("sampled report missing %q:\n%s", want, got)
		}
	}
}
