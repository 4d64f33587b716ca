package report

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/runner"
)

// TestReportsByteIdenticalPerSeed is the replay guarantee the fault
// injector depends on: two runs with the same seed must render every
// table and figure byte-for-byte identically, so an injected-fault
// failure can always be reproduced from its seed alone.
func TestReportsByteIdenticalPerSeed(t *testing.T) {
	run := func() string {
		return All(mustRunSet(core.Config{Window: 600_000, Warmup: 300_000, Seed: 11, Check: true}, 0))
	}
	a, b := run(), run()
	if a != b {
		// Find the first divergent line for a useful failure message.
		la, lb := splitLines(a), splitLines(b)
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("reports diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("reports differ in length: %d vs %d bytes", len(a), len(b))
	}
}

// diffLines fails the test at the first divergent line of a and b.
func diffLines(t *testing.T, what, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("%s diverges at line %d:\n  serial:   %s\n  parallel: %s", what, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s differs in length: %d vs %d bytes", what, len(a), len(b))
}

// TestParallelRunSetByteIdentical is the worker pool's contract: the full
// report — including the Figure 6 re-simulation, whose inner sweep also
// fans out — must render byte-for-byte identically on 1 worker and on 8.
func TestParallelRunSetByteIdentical(t *testing.T) {
	cfg := core.Config{Window: 600_000, Warmup: 300_000, Seed: 11, Check: true, CollectIResim: true}
	render := func(par int) string {
		set := mustRunSet(cfg, par)
		return All(set) + Figure6(set)
	}
	diffLines(t, "report", render(1), render(8))
}

// TestStreamingMatchesBufferedReports is the streaming pipeline's oracle:
// classifying every transaction inline, the cycle it occurs, must render
// every table and figure byte-for-byte identically to the stop-and-drain
// pipeline that materializes the monitor trace and replays it after the
// run — for all three workloads, serially and under the worker pool.
func TestStreamingMatchesBufferedReports(t *testing.T) {
	for _, par := range []int{1, 8} {
		render := func(buffered bool) string {
			set := mustRunSet(core.Config{
				Window: 600_000, Warmup: 300_000, Seed: 11, Check: true,
				Buffered: buffered,
			}, par)
			return All(set)
		}
		streaming, buffered := render(false), render(true)
		if streaming != buffered {
			la, lb := splitLines(streaming), splitLines(buffered)
			for i := 0; i < len(la) && i < len(lb); i++ {
				if la[i] != lb[i] {
					t.Fatalf("parallelism %d: reports diverge at line %d:\n  streaming: %s\n  buffered:  %s",
						par, i+1, la[i], lb[i])
				}
			}
			t.Fatalf("parallelism %d: reports differ in length: %d vs %d bytes",
				par, len(streaming), len(buffered))
		}
	}
}

// TestFastMatchesReferenceReports is the memory-system fast path's oracle:
// the presence-filtered snoops, direct-mapped cache specialization and
// run-ahead scheduler must render every table and figure byte-for-byte
// identically to the generic reference paths (-reference) — for all three
// workloads, serially and under the worker pool.
func TestFastMatchesReferenceReports(t *testing.T) {
	for _, par := range []int{1, 8} {
		render := func(ref bool) string {
			set := mustRunSet(core.Config{
				Window: 600_000, Warmup: 300_000, Seed: 11, Check: true,
				Reference: ref,
			}, par)
			return All(set)
		}
		fast, reference := render(false), render(true)
		if fast != reference {
			la, lb := splitLines(fast), splitLines(reference)
			for i := 0; i < len(la) && i < len(lb); i++ {
				if la[i] != lb[i] {
					t.Fatalf("parallelism %d: reports diverge at line %d:\n  fast:      %s\n  reference: %s",
						par, i+1, la[i], lb[i])
				}
			}
			t.Fatalf("parallelism %d: reports differ in length: %d vs %d bytes",
				par, len(fast), len(reference))
		}
	}
}

// runFigure11 renders RunFigure11 under a background context.
func runFigure11(t *testing.T, base core.Config, cpus []int, par int) string {
	t.Helper()
	pts, _, err := RunFigure11(context.Background(), base, cpus, runner.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return Figure11(pts)
}

// TestParallelFigure11ByteIdentical covers the other fan-out entry point:
// the lock-contention sweep over CPU counts.
func TestParallelFigure11ByteIdentical(t *testing.T) {
	base := core.Config{Window: 400_000, Seed: 7}
	diffLines(t, "figure 11", runFigure11(t, base, []int{2, 3, 4}, 1), runFigure11(t, base, []int{2, 3, 4}, 8))
}

// TestFigure11WindowDefault pins the zero-window fallback to the one
// canonical default (a past Figure 11 path defaulted to 8M cycles where
// every other path used 12M): the rates are computed over the window
// the runs actually simulated.
func TestFigure11WindowDefault(t *testing.T) {
	diffLines(t, "figure 11 at the default window",
		runFigure11(t, core.Config{Seed: 7}, []int{2}, 1),
		runFigure11(t, core.Config{Seed: 7, Window: arch.DefaultWindow}, []int{2}, 1))
}

// figure11Golden is Figure 11 at cpus 2,4, window 1M, seed 7, as
// rendered before the sweep took a base config.
const figure11Golden = "Figure 11: Lock contention vs number of CPUs (Multpgm)\nCPUs             Lock  Failed acq/ms  Acq/ms\n--------------------------------------------\n2              Runqlk           0.37    5.60\n2             Memlock           0.00    1.03\n2               Ifree           0.00    0.03\n2     mp3d user locks           0.03    2.70\n4              Runqlk           0.70   13.30\n4             Memlock           0.00    1.90\n4               Ifree           0.00    0.00\n4     mp3d user locks           0.50    6.50\n  note: paper: contention (especially Runqlk) grows steadily with the CPU count\n"

// TestFigure11HonoursBaseConfig: the sweep's runs inherit the base
// config, so a geometry override or another machine preset moves the
// points, while a base that sets only the window and seed renders
// exactly what the sweep always rendered.
func TestFigure11HonoursBaseConfig(t *testing.T) {
	base := core.Config{Window: 1_000_000, Seed: 7}
	cpus := []int{2, 4}
	plain := runFigure11(t, base, cpus, 0)
	diffLines(t, "figure 11 from a window+seed base", figure11Golden, plain)

	big, _ := machineflag.Preset("4d380")
	smallL2 := arch.Default()
	smallL2.DCacheL2Size = 64 << 10
	for name, m := range map[string]arch.Machine{"4d380": big, "64K L2": smallL2} {
		cfg := base
		cfg.Machine = m
		if runFigure11(t, cfg, cpus, 0) == plain {
			t.Errorf("machine %s: Figure 11 points unchanged from the default machine", name)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestDefaultMachineMatchesSeed is the machine-descriptor oracle: a config
// that spells out arch.Default() explicitly must produce byte-identical
// reports to the zero-Machine config (the historical constants path) for
// all three workloads — proof the runtime descriptor refactor preserves
// behavior exactly.
func TestDefaultMachineMatchesSeed(t *testing.T) {
	render := func(m arch.Machine) string {
		set := mustRunSet(core.Config{
			Machine: m,
			Window:  600_000, Warmup: 300_000, Seed: 11, Check: true,
		}, 8)
		return All(set)
	}
	diffLines(t, "default machine vs constants", render(arch.Machine{}), render(arch.Default()))
}
