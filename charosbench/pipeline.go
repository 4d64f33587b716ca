package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runPipeline is one untraced pipeline run through core.RunMonitored,
// calling started (when not nil) from its onStart callback. It turns a
// panic into an error, so one bad run fails one operation.
func runPipeline(ctx context.Context, cfg core.Config, started func()) (ch *core.Characterization, err error) {
	defer func() {
		if r := recover(); r != nil {
			ch, err = nil, fmt.Errorf("%s seed %d: panic: %v", cfg.Workload, cfg.Seed, r)
		}
	}()
	var onStart func(func() arch.Cycles)
	if started != nil {
		onStart = func(func() arch.Cycles) { started() }
	}
	return core.RunMonitored(ctx, cfg, onStart)
}

// errSetupDone is the cause a set-up probe cancels its run with.
var errSetupDone = errors.New("set-up measured")

// timeSetup times one set-up of cfg: the time from the core.RunMonitored
// call to its onStart callback, which covers machine, kernel, classifier
// and workload construction. The run's context is canceled inside
// onStart, so the simulation stops as soon as it starts (a very short
// window may finish first, which is as good).
func timeSetup(ctx context.Context, cfg core.Config) (time.Duration, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	setup := time.Duration(-1)
	t0 := time.Now()
	_, err := runPipeline(ctx, cfg, func() {
		setup = time.Since(t0)
		cancel(errSetupDone)
	})
	if (err != nil && !errors.Is(err, errSetupDone)) || setup < 0 {
		return 0, fmt.Errorf("%s seed %d: set-up probe: %v (set-up completed: %v)", cfg.Workload, cfg.Seed, err, setup >= 0)
	}
	return setup, nil
}

// recordSampleEvery is how often the traced classifier wrapper reads the
// clock: timing every Record call inflates the simulate span by ~40%, so
// one call in recordSampleEvery is timed and the total is scaled.
const recordSampleEvery = 64

// timedRecorder sits between the bus and the streaming classifier in the
// traced run. It counts every transaction and times a 1-in-N sample of
// the classifier's Record calls.
type timedRecorder struct {
	cl      *trace.Classifier
	records int64
	timed   int64
	nanos   int64
}

func (r *timedRecorder) Record(t bus.Txn) {
	r.records++
	if r.records%recordSampleEvery != 0 {
		r.cl.Record(t)
		return
	}
	t0 := time.Now()
	r.cl.Record(t)
	r.nanos += int64(time.Since(t0))
	r.timed++
}

// SetWarming forwards functional-warming phase flips, so a sampled run's
// phase fanout keeps treating the classifier as a warmable recorder.
func (r *timedRecorder) SetWarming(w bool) { r.cl.SetWarming(w) }

// recordSeconds is the estimated total time spent inside Record.
func (r *timedRecorder) recordSeconds() float64 {
	if r.timed == 0 {
		return 0
	}
	return float64(r.nanos) / 1e9 * float64(r.records) / float64(r.timed)
}

var _ bus.Warmable = (*timedRecorder)(nil)

// tracedStats accumulates one traced repetition's layer measurements.
type tracedStats struct {
	setupAllocB float64
	recordS     float64
	records     int64
}

// runTraced is the traced counterpart of runPipeline. It assembles the
// same streaming pipeline core.RunMonitored does — simulator, classifier
// installed as Simulator.Stream, sampled-run accumulator, workload set-up
// — but puts a span around each stage and the timed recorder in front of
// the classifier. Its report must render byte-identical to the untraced
// run's; the benchmark checks that, so the two paths cannot drift apart.
func runTraced(ctx context.Context, cfg core.Config, tr *tracer, st *tracedStats) (ch *core.Characterization, err error) {
	defer func() {
		if r := recover(); r != nil {
			ch, err = nil, fmt.Errorf("%s seed %d (traced): panic: %v", cfg.Workload, cfg.Seed, r)
		}
	}()
	cfg = cfg.Canonical()
	if cfg.Buffered || cfg.Reference || cfg.Check || cfg.Inject != nil || cfg.SimWorkers > 1 ||
		cfg.CollectIResim || cfg.CollectDResim {
		return nil, fmt.Errorf("traced run supports only the default streaming pipeline")
	}
	var (
		s   *sim.Simulator
		cl  *trace.Classifier
		rec *timedRecorder
		acc *sample.Accumulator
	)
	tr.do(ctx, "run", func(ctx context.Context) {
		// The allocation reads stop the world, so they stay outside the
		// setup span they measure.
		a0 := heapAllocBytes()
		tr.do(ctx, "setup", func(context.Context) {
			s = sim.New(sim.Config{
				Machine: cfg.Machine, NCPU: cfg.NCPU, Seed: cfg.Seed,
				Window: cfg.Window, Warmup: cfg.Warmup,
				NoTrace: cfg.NoTrace, Streaming: !cfg.NoTrace,
				UpdateProtocol: cfg.UpdateProtocol, Sample: cfg.Sample,
				Kernel: kernel.Config{Affinity: cfg.Affinity, OptimizedText: cfg.OptimizedText,
					BlockOpBypass: cfg.BlockOpBypass},
			})
			if !cfg.NoTrace {
				cl = trace.NewClassifier(s.K.T, s.K.L, cfg.NCPU)
				rec = &timedRecorder{cl: cl}
				s.Stream = rec
			}
			if cfg.Sample.Enabled() {
				acc = sample.NewAccumulator(cfg.Sample, cfg.Window)
				var snap sample.Counts
				s.OnMeasure = func(measuring bool) {
					if measuring {
						snap = cl.CountsSnapshot()
						return
					}
					acc.Add(sample.Diff(cl.CountsSnapshot(), snap))
				}
			}
			workload.Setup(s.Kernel(), cfg.Workload)
		})
		st.setupAllocB += heapAllocBytes() - a0
		completed := false
		tr.do(ctx, "simulate", func(context.Context) {
			if done := ctx.Done(); done != nil {
				finished := make(chan struct{})
				defer close(finished)
				go func() {
					select {
					case <-done:
						s.Cancel()
					case <-finished:
					}
				}()
			}
			completed = s.RunCancelable()
		})
		if !completed {
			err = fmt.Errorf("%s seed %d: canceled: %v", cfg.Workload, cfg.Seed, context.Cause(ctx))
			return
		}
		tr.do(ctx, "finish", func(context.Context) {
			ch = &core.Characterization{
				Cfg: cfg, Sim: s,
				Ops:         s.K.Counters().Sub(s.BaseCounters),
				CheckErrors: s.CheckErrors(),
			}
			if cl != nil {
				ch.Trace = cl.Finish()
			}
			if acc != nil {
				ch.Sampled = acc.Estimate()
			}
		})
	})
	if rec != nil {
		st.recordS += rec.recordSeconds()
		st.records += rec.records
	}
	return ch, err
}
