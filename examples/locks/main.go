// Locks study: the Section 5 synchronization analysis — per-lock
// frequency, contention, waiters, locality (Table 12), the sginap
// mechanism under the timesharing load, and the Table 10 comparison
// between the machine's sync-bus protocol and cacheable LL/SC locks.
//
//	go run ./examples/locks
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/workload"
)

func main() {
	ch := core.Run(core.Config{
		Workload: workload.Multpgm,
		Window:   12_000_000,
		Seed:     1,
	})

	fmt.Printf("Multpgm synchronization study\n\n")

	// The sginap mechanism: the user synchronization library spins 20
	// times, then reschedules the CPU.
	ops := ch.Ops
	var tot int64
	for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
		if op != kernel.OpCheapTLB {
			tot += ops.OpCounts[op]
		}
	}
	fmt.Printf("sginap: %d calls = %.0f%% of OS invocations (paper: ≈50%% in Multpgm)\n",
		ops.OpCounts[kernel.OpSginap],
		100*float64(ops.OpCounts[kernel.OpSginap])/float64(tot))

	// User-level (synchronization library) locks: mp3d's cells and
	// barrier.
	fmt.Printf("\nuser-level locks (Mp3d):\n")
	for _, l := range ch.Sim.K.UserLocks {
		st := l.ComputeStats()
		if st.Acquires == 0 {
			continue
		}
		fmt.Printf("  %-14s %6d acquires, %5.1f%% failed first attempt\n",
			st.Name, st.Acquires, st.PctFailed)
	}

	// Kernel locks: the Table 12 characterization.
	fmt.Printf("\nkernel locks, most acquired first (Table 12 columns):\n")
	fmt.Printf("  %-10s %9s %13s %8s %9s %17s\n",
		"lock", "acquires", "kcyc-between", "failed%", "sameCPU%", "cached/uncached%")
	for _, st := range ch.Sim.K.Locks.AllStats() {
		if st.Acquires == 0 {
			continue
		}
		fmt.Printf("  %-10s %9d %13.1f %8.1f %9.1f %17.0f\n",
			st.Name, st.Acquires, st.CyclesBetweenAcq/1000,
			st.PctFailed, st.PctSameCPU, st.PctCachedVsUncached)
	}

	// Table 10: what better hardware support would buy.
	cur, rmw := ch.SyncStallPct()
	fmt.Printf("\nstall from OS synchronization (%% of non-idle time, Table 10):\n")
	fmt.Printf("  sync-bus protocol (no atomic RMW):  %.2f%%\n", cur)
	fmt.Printf("  cacheable LL/SC locks (R4000-style): %.2f%%\n", rmw)
	fmt.Printf("→ with locks cachable and contention low, OS synchronization is cheap.\n")

	// Bonus: Runqlk is the lock to watch as machines grow (Figure 11).
	rq := ch.Sim.K.Locks.Get(klock.Runqlk).ComputeStats()
	fmt.Printf("\nRunqlk failed-acquire rate: %.1f%% — the paper predicts this grows\n", rq.PctFailed)
	fmt.Printf("with the CPU count (run `go run ./cmd/charos -exp figure11` to see).\n")
}
