// Per-run observability for the parallel experiment engine: wall-clock,
// simulated-cycle throughput and allocation counts per core.Run, plus the
// batch-level aggregate the CLIs print so a -parallel speedup is
// measurable rather than anecdotal.

package metrics

import (
	"fmt"
	"time"
)

// RunStats is the observability record of one experiment run.
type RunStats struct {
	// Label identifies the run (workload/ncpu/seed).
	Label string
	// Wall is the run's wall-clock time.
	Wall time.Duration
	// SimCycles is how many processor cycles the run simulated, summed
	// over the simulated CPUs (warmup included — it is paid for too).
	SimCycles int64
	// MCyclesPerSec is SimCycles per wall-clock second, in millions: the
	// simulator's throughput for this run.
	MCyclesPerSec float64
	// Allocs and AllocBytes are the run's heap allocation count and
	// volume. Go only accounts allocations process-wide, so they are
	// exact only for serial batches (parallelism 1) and zero otherwise;
	// BatchStats carries the process-wide totals either way.
	Allocs     uint64
	AllocBytes uint64
}

// Throughput fills MCyclesPerSec from Wall and SimCycles.
func (r *RunStats) Throughput() {
	if r.Wall > 0 {
		r.MCyclesPerSec = float64(r.SimCycles) / r.Wall.Seconds() / 1e6
	}
}

// BatchStats aggregates one parallel batch of runs.
type BatchStats struct {
	// Parallelism is the worker count the batch actually used.
	Parallelism int
	// Wall is the batch's end-to-end wall-clock time.
	Wall time.Duration
	// SerialWall is the sum of the per-run wall times — what a serial
	// execution of the same work would have cost.
	SerialWall time.Duration
	// Allocs and AllocBytes are process-wide allocation deltas across
	// the batch.
	Allocs     uint64
	AllocBytes uint64
	// Runs holds the per-run records in submission order.
	Runs []RunStats
}

// Speedup is SerialWall / Wall: >1 when the pool paid off.
func (b BatchStats) Speedup() float64 {
	if b.Wall <= 0 {
		return 0
	}
	return float64(b.SerialWall) / float64(b.Wall)
}

// Table renders the batch as an aligned table with a summary footnote.
func (b BatchStats) Table() string {
	t := NewTable(fmt.Sprintf("Experiment timing (%d workers)", b.Parallelism),
		"Run", "Wall", "Mcycles/s", "Allocs", "Alloc MB")
	for _, r := range b.Runs {
		allocs, mb := "-", "-"
		if r.Allocs > 0 {
			allocs = fmt.Sprint(r.Allocs)
			mb = fmt.Sprintf("%.1f", float64(r.AllocBytes)/1e6)
		}
		t.AddRow(r.Label, r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", r.MCyclesPerSec), allocs, mb)
	}
	t.Note("batch wall %s vs serial %s — speedup %.2fx; %d allocs (%.1f MB) process-wide",
		b.Wall.Round(time.Millisecond), b.SerialWall.Round(time.Millisecond),
		b.Speedup(), b.Allocs, float64(b.AllocBytes)/1e6)
	return t.String()
}
