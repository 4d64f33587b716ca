package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestRunOnePanicIsolation(t *testing.T) {
	cfg := core.Config{Workload: workload.Pmake, Window: 400_000, Warmup: 200_000, Seed: 5}
	res := RunOne(context.Background(), cfg, func() { panic("boom") })
	if res.Ch != nil {
		t.Fatal("panicked run still produced a characterization")
	}
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("error is %T (%v), want *PanicError", res.Err, res.Err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if pe.ConfigHash != cfg.Hash() {
		t.Errorf("provenance hash %q != cfg hash %q", pe.ConfigHash, cfg.Hash())
	}
	if !strings.Contains(pe.Error(), "Pmake") {
		t.Errorf("error %q does not name the workload", pe.Error())
	}
}

// TestExperimentsPanicIsolationOrderPreserved: one config whose pipeline
// panics (invalid cache geometry) must surface as that run's Result.Err
// while the rest of the batch completes in submission order.
func TestExperimentsPanicIsolationOrderPreserved(t *testing.T) {
	badMachine := arch.Default()
	badMachine.DCacheL2Size = 3000 // not a power-of-two set count: cache.New panics
	cfgs := []core.Config{
		{Workload: workload.Pmake, Window: 400_000, Warmup: 200_000, Seed: 5},
		{Workload: workload.Pmake, Machine: badMachine, Window: 400_000, Warmup: 200_000, Seed: 5},
		{Workload: workload.Multpgm, Window: 400_000, Warmup: 200_000, Seed: 6},
	}
	res, _ := Experiments(cfgs, Options{Parallelism: 3})
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("bad config's error is %T (%v), want *PanicError", res[1].Err, res[1].Err)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("healthy run %d failed: %v", i, res[i].Err)
		}
		if res[i].Ch == nil || res[i].Ch.Cfg.Workload != cfgs[i].Workload {
			t.Fatalf("slot %d does not hold its own run (order not preserved)", i)
		}
	}
}

// TestRunOneCancelMidRunNoLeak cancels runs mid-simulation through the
// runner. Each cancellation must propagate before the run's next bus
// transaction and come back as a structured *core.CanceledError with
// full provenance, and repeated canceled runs may not accumulate
// goroutines.
func TestRunOneCancelMidRunNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := core.Config{
		Workload: workload.Oracle, NCPU: 8,
		// A window far past any test budget: the run can only end
		// through the cancel path.
		Window: 1 << 30, Seed: 7,
	}
	for i := 0; i < 4; i++ {
		// Cancel once the simulation has visibly started, so the cancel
		// lands mid-run however slow set-up is (e.g. under -race).
		ctx, cancel := context.WithCancel(context.Background())
		res := RunOneMonitored(ctx, cfg, func(progress func() arch.Cycles) {
			go func() {
				for progress() == 0 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
		})
		cancel()
		if res.Ch != nil {
			t.Fatal("canceled run still produced a characterization")
		}
		var ce *core.CanceledError
		if !errors.As(res.Err, &ce) {
			t.Fatalf("error is %T (%v), want *core.CanceledError", res.Err, res.Err)
		}
		if ce.ConfigHash != cfg.Hash() {
			t.Errorf("provenance hash %q != cfg hash %q", ce.ConfigHash, cfg.Hash())
		}
		if ce.Cycle == 0 {
			t.Error("cancellation carries no simulated-cycle provenance")
		}
	}
	// A clean unwind leaves no goroutine behind. Poll briefly — exiting
	// goroutines need a scheduler beat to be reaped from the count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExperimentsContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := smallCfgs()
	res, _ := ExperimentsContext(ctx, cfgs, Options{Parallelism: 2})
	for i, r := range res {
		if r.Ch != nil {
			t.Errorf("run %d completed under a canceled context", i)
		}
		if !errors.Is(r.Err, core.ErrCanceled) {
			t.Errorf("run %d error %v does not match core.ErrCanceled", i, r.Err)
		}
	}
}
