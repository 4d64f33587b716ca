// Package runner is the parallel experiment engine: a worker pool that
// fans independent core.Config runs (and, through Map, any other
// index-shaped fan-out) across GOMAXPROCS goroutines with order-preserving
// result collection.
//
// Determinism is the contract. Every core.Run builds its own simulator,
// kernel and RNG from its config's seed, so a run's output depends only on
// its config — never on which worker executed it or in what order. Results
// are collected into a slice indexed by submission order, which makes a
// parallel batch byte-identical to the serial execution of the same
// configs. `Options{Parallelism: 1}` restores strictly serial execution.
//
//	res, batch := runner.Experiments(ctx, cfgs, runner.Options{})
//	// res[i] corresponds to cfgs[i]; batch.Table() shows the speedup.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Options tunes the pool.
type Options struct {
	// Parallelism is the worker count. <= 0 means runtime.GOMAXPROCS(0);
	// 1 runs strictly serially on the calling goroutine.
	Parallelism int
}

// workers resolves the worker count for a batch of n jobs.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// PanicError is the structured error of a run whose pipeline panicked:
// the panic value, the goroutine stack at the point of the panic, and
// the run's provenance (config hash, seed, cycle reached). RunOne and
// Experiments convert panics into PanicErrors so one broken
// configuration cannot take down a batch or a worker pool.
type PanicError struct {
	core.Provenance
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked (%s): %v", e.Provenance, e.Value)
}

// Map runs fn(ctx, 0..n-1) on a bounded worker pool and returns the
// results indexed by submission order: Map(ctx, n, o, f)[i] == f(ctx, i)
// regardless of parallelism. fn must not depend on execution order.
// Indexes not yet started when ctx is canceled are skipped — their slots
// hold T's zero value — and the skip is reported through the returned
// error, which is nil only if every index ran.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) T) ([]T, error) {
	out := make([]T, n)
	var skipped atomic.Int64
	do := func(i int) {
		if ctx.Err() != nil {
			skipped.Add(1)
			return
		}
		out[i] = fn(ctx, i)
	}
	if w := opts.workers(n); w == 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for q := 0; q < w; q++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					do(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	if k := skipped.Load(); k > 0 {
		return out, fmt.Errorf("runner: %d of %d jobs not started: %w", k, n, context.Cause(ctx))
	}
	return out, nil
}

// Result pairs a characterization with its per-run observability.
type Result struct {
	Ch    *core.Characterization
	Stats metrics.RunStats
	// Err is non-nil when the run did not complete: a
	// *core.CanceledError (context cancel, deadline, watchdog kill) or a
	// *PanicError (the pipeline panicked; the pool survives). Ch is nil
	// exactly when Err is non-nil.
	Err error
}

// RunOne executes one config through core.RunMonitored with panic
// isolation: a panic anywhere in the pipeline comes back as a
// *PanicError in Result.Err instead of unwinding into the caller. onStart
// (if non-nil) receives the run's simulated-cycle heartbeat function just
// before simulation begins — the service watchdog feeds on it. The
// optional preRun hooks fire inside the recovery scope before the
// simulation starts — the service's test hooks use them to force
// failures down the production error path.
func RunOne(ctx context.Context, cfg core.Config, onStart func(progress func() arch.Cycles), preRun ...func()) (res Result) {
	canonical := cfg.Canonical()
	var progress func() arch.Cycles
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			var cycle arch.Cycles
			if progress != nil {
				cycle = progress()
			}
			res = Result{
				Err: &PanicError{
					Provenance: core.Provenance{ConfigHash: canonical.Hash(),
						Workload: canonical.Workload.String(), Seed: canonical.Seed, Cycle: cycle},
					Value: r,
					Stack: debug.Stack(),
				},
				Stats: metrics.RunStats{Label: runLabel(canonical), Wall: time.Since(t0)},
			}
		}
	}()
	for _, f := range preRun {
		f()
	}
	ch, err := core.RunMonitored(ctx, cfg, func(p func() arch.Cycles) {
		progress = p
		if onStart != nil {
			onStart(p)
		}
	})
	st := metrics.RunStats{Label: runLabel(canonical), Wall: time.Since(t0)}
	if err != nil {
		return Result{Err: err, Stats: st}
	}
	// ch.Cfg has defaults applied; warmup cycles are simulated (and paid
	// for) too.
	st.SimCycles = int64(ch.Cfg.Window+ch.Cfg.Warmup) * int64(ch.Cfg.NCPU)
	st.Throughput()
	return Result{Ch: ch, Stats: st}
}

// Experiments runs each config on the pool. Results are indexed by
// submission order (Result[i] is cfgs[i]'s run), so output rendered from
// them is byte-identical to a serial execution. The batch stats carry
// per-run wall-clock and simulated-cycle throughput plus process-wide
// allocation deltas; per-run allocation counts are exact only for serial
// batches (Go accounts heap allocation process-wide). A panicking config
// surfaces as that run's Result.Err; the rest of the batch completes
// normally. A canceled or expired ctx stops every in-flight run before
// its next bus transaction and resolves the remaining slots with
// *core.CanceledError — every submitted config gets a terminal Result
// either way, in submission order.
func Experiments(ctx context.Context, cfgs []core.Config, opts Options) ([]Result, metrics.BatchStats) {
	n := len(cfgs)
	w := opts.workers(n)
	serial := w == 1
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	// The pool itself never cancels, so every slot runs: under a
	// canceled ctx RunOne resolves it with the *core.CanceledError.
	out, _ := Map(context.WithoutCancel(ctx), n, opts, func(_ context.Context, i int) Result {
		var m0 runtime.MemStats
		if serial {
			runtime.ReadMemStats(&m0)
		}
		r := RunOne(ctx, cfgs[i], nil)
		if serial && r.Err == nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			r.Stats.Allocs = m1.Mallocs - m0.Mallocs
			r.Stats.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		}
		return r
	})
	batch := metrics.BatchStats{Parallelism: w, Wall: time.Since(start)}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	batch.Allocs = after.Mallocs - before.Mallocs
	batch.AllocBytes = after.TotalAlloc - before.TotalAlloc
	batch.Runs = make([]metrics.RunStats, n)
	for i, r := range out {
		batch.SerialWall += r.Stats.Wall
		batch.Runs[i] = r.Stats
	}
	return out, batch
}

// runLabel names a run for the timing table.
func runLabel(c core.Config) string {
	return fmt.Sprintf("%s/ncpu%d/seed%d", c.Workload, c.NCPU, c.Seed)
}
