package core

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sampleSchedule is the validated reference schedule for the accuracy
// tests: 27 samples over the default 12M-cycle window, each a 30K-cycle
// detailed re-warm plus a 60K-cycle measured interval, ~14% of the
// window measured. The period is deliberately not a round multiple of
// the machine's periodic behavior (clock ticks, scheduler quanta) —
// round periods alias with them and bias the sample.
const sampleSchedule = "30K:60K:430K"

// sampleTolerance asserts one class cell of a sampled estimate against
// the full run's exact count: the absolute error must stay within 1% of
// the run's total misses plus 4 standard errors. Calibrated against all
// three workloads at the default window, where the worst cell sits at
// 2.4 standard errors past the floor.
func sampleTolerance(t *testing.T, name string, got, want, stderr, fullTotal float64) {
	t.Helper()
	tol := 0.01*fullTotal + 4*stderr
	if diff := math.Abs(got - want); diff > tol {
		t.Errorf("%s: sampled %.0f vs full %.0f — |diff| %.0f exceeds tolerance %.0f (stderr %.0f)",
			name, got, want, diff, tol, stderr)
	}
}

// TestSampledMatchesFullRun is the accuracy gate of the sampling
// pipeline: for each workload at the default 12M-cycle window, a sampled
// run must (a) take the exact trajectory of the full-detail run — equal
// architectural state hashes, time split and kernel counters — and
// (b) estimate every per-class miss count within the documented
// tolerance.
func TestSampledMatchesFullRun(t *testing.T) {
	sched, err := sample.Parse(sampleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		t.Run(wl.String(), func(t *testing.T) {
			full := Run(Config{Workload: wl, Window: arch.DefaultWindow})
			samp := Run(Config{Workload: wl, Window: arch.DefaultWindow, Sample: sched})
			if samp.Sampled == nil {
				t.Fatal("sampled run produced no estimate")
			}

			// Exact trajectory: fast-forward must not perturb the machine.
			if fh, sh := full.Sim.StateHash(), samp.Sim.StateHash(); fh != sh {
				t.Errorf("state hash diverged: full %x, sampled %x", fh, sh)
			}
			fu, fs, fi := full.TimeSplit()
			su, ss, si := samp.TimeSplit()
			if fu != su || fs != ss || fi != si {
				t.Errorf("time split diverged: full %v/%v/%v, sampled %v/%v/%v", fu, fs, fi, su, ss, si)
			}
			if full.Ops != samp.Ops {
				t.Errorf("kernel counters diverged:\nfull    %+v\nsampled %+v", full.Ops, samp.Ops)
			}

			// Statistical agreement of the extrapolated class counts.
			var fullTotal int64
			for o := 0; o < 2; o++ {
				for i := 0; i < 2; i++ {
					for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
						fullTotal += full.Trace.Counts[o][i][cl]
					}
				}
			}
			for o := 0; o < 2; o++ {
				for i := 0; i < 2; i++ {
					for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
						name := [2]string{"app", "os"}[o] + "-" + [2]string{"d", "i"}[i] + "-" + cl.String()
						sampleTolerance(t, name,
							samp.Sampled.Total[o][i][cl],
							float64(full.Trace.Counts[o][i][cl]),
							samp.Sampled.StdErr[o][i][cl],
							float64(fullTotal))
					}
				}
			}
			total, _ := samp.Sampled.TotalAll()
			if rel := math.Abs(total-float64(fullTotal)) / float64(fullTotal); rel > 0.20 {
				t.Errorf("total misses: sampled %.0f vs full %d (%.1f%% off, cap 20%%)",
					total, fullTotal, 100*rel)
			}
		})
	}
}

// TestSampledRunUnderChecker: the invariant checker's functional-warming
// mode must keep its shadow state coherent through fast-forward — a
// sampled checked run ends with zero violations and still performs
// detailed-phase checks.
func TestSampledRunUnderChecker(t *testing.T) {
	sched, err := sample.Parse("30K:60K:430K")
	if err != nil {
		t.Fatal(err)
	}
	ch := Run(Config{Workload: workload.Pmake, Window: 4_000_000, Check: true, Sample: sched})
	if n := len(ch.CheckErrors); n > 0 {
		t.Fatalf("checker found %d violations in a sampled run, first: %v", n, ch.CheckErrors[0])
	}
	if ch.Sim.Chk.Checks == 0 {
		t.Error("no checks performed in the detailed phases")
	}
}

// TestSampleHashIdentity: the canonical hash ignores a zero schedule —
// cached results from before the sampling refactor stay addressable —
// and distinguishes sampled configs from full ones and from each other.
func TestSampleHashIdentity(t *testing.T) {
	base := Config{Workload: workload.Multpgm, Window: 2_000_000, Seed: 5}
	s1, _ := sample.Parse("10K:20K:100K")
	s2, _ := sample.Parse("10K:20K:200K")
	a, b := base, base
	a.Sample, b.Sample = s1, s2
	if a.Hash() == base.Hash() || a.Hash() == b.Hash() {
		t.Error("sampling schedule not part of the canonical hash")
	}
}
