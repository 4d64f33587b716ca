package runner

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		out, err := Map(context.Background(), 100, Options{Parallelism: par},
			func(_ context.Context, i int) int { return i * i })
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if len(out) != 100 {
			t.Fatalf("par %d: got %d results", par, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par %d: slot %d holds %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	hits := make([]int, 200)
	if _, err := Map(context.Background(), len(hits), Options{Parallelism: 7},
		func(_ context.Context, i int) struct{} { hits[i]++; return struct{}{} }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestMapPreCanceledSkipsEveryIndex(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	out, err := Map(ctx, 5, Options{Parallelism: 2}, func(context.Context, int) int { ran = true; return 1 })
	if ran || len(out) != 5 || out[0] != 0 {
		t.Fatalf("canceled Map ran work or filled slots: ran=%v out=%v", ran, out)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		par, n, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{8, 3, 3},  // never more workers than jobs
		{-1, 2, 2}, // <=0 → GOMAXPROCS, clamped to n
		{0, 0, 1},  // degenerate batch still gets one worker
	}
	for _, c := range cases {
		got := Options{Parallelism: c.par}.workers(c.n)
		want := c.want
		if c.par <= 0 && c.n > 0 {
			want = runtime.GOMAXPROCS(0)
			if want > c.n {
				want = c.n
			}
		}
		if got != want {
			t.Errorf("workers(par=%d, n=%d) = %d, want %d", c.par, c.n, got, want)
		}
	}
}

// smallCfgs builds a checked four-run batch small enough for the race
// detector: two workloads at two CPU counts each.
func smallCfgs() []core.Config {
	var out []core.Config
	for i, k := range []workload.Kind{workload.Pmake, workload.Multpgm} {
		for _, n := range []int{2, 4} {
			out = append(out, core.Config{
				Workload: k, NCPU: n, Seed: []int64{3, 8}[i],
				Window: 400_000, Warmup: 200_000, Check: true,
			})
		}
	}
	return out
}

// TestExperimentsParallelMatchesSerial is the engine's core guarantee:
// the same configs produce identical characterizations on 1 worker and on
// 8, with the invariant checker riding along (this test doubles as the
// pool's -race exercise).
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	cfgs := smallCfgs()
	ser, sb := Experiments(context.Background(), cfgs, Options{Parallelism: 1})
	par, pb := Experiments(context.Background(), cfgs, Options{Parallelism: 8})
	if sb.Parallelism != 1 {
		t.Errorf("serial batch used %d workers", sb.Parallelism)
	}
	if pb.Parallelism != len(cfgs) {
		t.Errorf("parallel batch used %d workers, want %d", pb.Parallelism, len(cfgs))
	}
	for i := range cfgs {
		s, p := ser[i].Ch, par[i].Ch
		if s.Cfg.Workload != cfgs[i].Workload || p.Cfg.Workload != cfgs[i].Workload {
			t.Fatalf("slot %d holds the wrong workload (order not preserved)", i)
		}
		if got, want := p.NonIdle(), s.NonIdle(); got != want {
			t.Errorf("run %d: non-idle cycles %d (parallel) vs %d (serial)", i, got, want)
		}
		if got, want := p.Ops.CtxSwitches, s.Ops.CtxSwitches; got != want {
			t.Errorf("run %d: ctx switches %d vs %d", i, got, want)
		}
		if got, want := p.Trace.Total, s.Trace.Total; got != want {
			t.Errorf("run %d: trace totals %d vs %d", i, got, want)
		}
		if v := p.Sim.Chk.Violations; v != 0 {
			t.Errorf("run %d: %d invariant violations under the pool", i, v)
		}
	}
}

func TestExperimentsStats(t *testing.T) {
	cfgs := smallCfgs()[:2]
	res, batch := Experiments(context.Background(), cfgs, Options{Parallelism: 1})
	if len(batch.Runs) != len(cfgs) {
		t.Fatalf("batch recorded %d runs, want %d", len(batch.Runs), len(cfgs))
	}
	for i, r := range res {
		st := r.Stats
		if st.Wall <= 0 {
			t.Errorf("run %d: wall %v", i, st.Wall)
		}
		want := int64(r.Ch.Cfg.Window+r.Ch.Cfg.Warmup) * int64(r.Ch.Cfg.NCPU)
		if st.SimCycles != want {
			t.Errorf("run %d: simulated cycles %d, want %d", i, st.SimCycles, want)
		}
		if st.MCyclesPerSec <= 0 {
			t.Errorf("run %d: throughput %v", i, st.MCyclesPerSec)
		}
		if st.Allocs == 0 || st.AllocBytes == 0 {
			t.Errorf("run %d: serial batch should carry per-run allocation counts", i)
		}
		if st.Label == "" {
			t.Errorf("run %d: empty label", i)
		}
	}
	if batch.SerialWall < batch.Runs[0].Wall {
		t.Error("serial wall below a single run's wall")
	}
	if batch.Allocs == 0 {
		t.Error("batch allocation delta is zero")
	}
	if batch.Table() == "" {
		t.Error("empty timing table")
	}
}
