package sim

import (
	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/sample"
)

// Phase identifies which phase of a sampled run the simulator is in. A
// run without a sampling schedule is Detailed for its whole window.
type Phase uint8

const (
	// Detailed is full-fidelity simulation: every bus transaction goes
	// to the recorder (classifier/monitor) and the checker verifies
	// invariants. This is the only phase of an unsampled run.
	Detailed Phase = iota
	// FastForward is functional warming: caches, TLBs, the presence
	// filter and all kernel state advance exactly as in Detailed, and
	// warmable recorders (the streaming classifier) keep their internal
	// state current, but no statistic accumulates — the monitor sees
	// nothing, the classifier counts nothing, and the checker only
	// maintains its shadow state. The step sequence is identical to
	// Detailed, so fast-forwarding never perturbs the trajectory.
	FastForward
)

// String names the phase.
func (p Phase) String() string {
	if p == FastForward {
		return "fast-forward"
	}
	return "detailed"
}

// runSampled executes warmup plus the traced window under the sampling
// schedule: the window is tiled into detailed re-warm intervals, measured
// detailed intervals, and fast-forward stretches (see sample.Segments).
// The prologue — warmup, trace start, the initial state dump — is
// exactly Run's, so cycle zero of the window begins from identical state.
func (s *Simulator) runSampled() {
	s.K.WireAllBut(s.K.Cfg.PoolFrames)
	for _, c := range s.CPUs {
		s.beginOS(c, kernel.OpOtherSyscall)
		s.scheduleNext(c, nil, false)
	}
	s.end = s.Cfg.Warmup
	s.loop()
	s.traceEscapes = true
	if s.Mon != nil {
		s.Mon.SetEnabled(true)
	}
	if s.Stream != nil {
		// The phase-aware gate: recorders attached through it only ever
		// see detailed-phase traffic (the bus's warm mode is the other
		// half of the same contract).
		if s.Mon != nil {
			s.phaseRec = bus.NewPhaseFanout(s.Mon, s.Stream)
		} else {
			s.phaseRec = bus.NewPhaseFanout(s.Stream)
		}
		s.Bus.SetRecorder(s.phaseRec)
	}
	s.TraceStartAt = s.minClock()
	s.BaseCounters = s.K.Counters()
	s.K.Locks.ResetStats()
	s.CPUs[0].Escape(monitor.EvTraceStart)
	for _, fr := range s.K.CodeFrames() {
		s.CPUs[0].Escape(monitor.EvPageAlloc, fr, uint32(1))
	}
	for _, c := range s.CPUs {
		c.needSync = true
		c.Time = [3]arch.Cycles{}
		c.Stall = [3]arch.Cycles{}
		c.L2Stall = [3]arch.Cycles{}
		c.SyncCycles = 0
	}

	// The segment walk. Tracing starts in the detailed phase (the trace-
	// start dump above ran with escapes live); transitions happen only
	// between loop() calls, where every CPU sits at a step boundary.
	for _, seg := range s.Cfg.Sample.Segments(s.Cfg.Window) {
		if detailed := seg.Detailed; detailed != (s.Phase == Detailed) {
			if detailed {
				s.enterDetailed()
			} else {
				s.enterFastForward()
			}
		}
		if seg.Measured && s.OnMeasure != nil {
			s.OnMeasure(true)
		}
		s.end = s.TraceStartAt + seg.End
		s.loop()
		if seg.Measured && s.OnMeasure != nil {
			s.OnMeasure(false)
		}
	}
	// Leave the simulator in the detailed state so post-run consumers
	// (final flush accounting, tests) see a fully-live machine.
	if s.Phase != Detailed {
		s.enterDetailed()
	}
}

// enterFastForward flips the machine into functional-warming mode. The
// escape stream stays on: escapes are stall-free and draw no jitter, and
// the warming classifier needs them (mode/pid context, page-allocation
// frame kinds) to keep its view current through the gap. Only the
// consumers change behavior — the monitor is dropped, the classifier
// stops counting, the checker stops checking.
func (s *Simulator) enterFastForward() {
	s.Phase = FastForward
	s.Bus.SetWarm(true)
	if s.phaseRec != nil {
		s.phaseRec.SetDetailed(false)
	}
}

// enterDetailed restores full fidelity. Nothing needs resynchronizing:
// the classifier warmed through the gap, and the simulator state never
// depended on the phase at all.
func (s *Simulator) enterDetailed() {
	s.Phase = Detailed
	s.Bus.SetWarm(false)
	if s.phaseRec != nil {
		s.phaseRec.SetDetailed(true)
	}
}

// StateHash fingerprints the architectural state of the whole machine —
// every I-cache, both data-cache levels and the TLB of each CPU. Two runs
// that took the same trajectory (e.g. a sampled and a full-detail run of
// the same configuration) end with equal hashes; the sampling tests
// assert exactly that.
func (s *Simulator) StateHash() uint64 {
	h := cache.HashSeed()
	for q, c := range s.CPUs {
		h = s.Bus.I[q].StateHash(h)
		h = s.Bus.D[q].StateHash(h)
		h = c.tlb.StateHash(h, cache.HashMix)
	}
	return h
}

// Schedule returns the run's sampling schedule (zero when disabled).
func (s *Simulator) Schedule() sample.Schedule { return s.Cfg.Sample }
