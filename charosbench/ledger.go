package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// repetition (or one service round) share Rep.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Rep    int     `json:"rep"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer's origin
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; the ledger writes them out when the
// benchmark ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per span boundary.
type tracer struct {
	mu     sync.Mutex // guards spans for record from client goroutines
	origin time.Time
	rep    int
	spans  []span
	open   []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs f inside a span named name, nested under the innermost open
// span, with the pprof label span=name so profile samples taken inside f
// are attributed to it.
func (t *tracer) do(ctx context.Context, name string, f func(ctx context.Context)) {
	if t == nil {
		f(ctx)
		return
	}
	t.mu.Lock()
	parent := t.current()
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Rep: t.rep, Name: name,
		Start: time.Since(t.origin).Seconds()})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.spans[idx].End = time.Since(t.origin).Seconds()
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}()
	pprof.Do(ctx, pprof.Labels("span", name), f)
}

// current is the ID of the innermost open span (0 when none); t.mu held.
func (t *tracer) current() int {
	if n := len(t.open); n > 0 {
		return t.spans[t.open[n-1]].ID
	}
	return 0
}

// record adds a finished span under parent. Unlike do it is safe from
// any goroutine; the service's clients use it for their jobs.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds()})
	t.mu.Unlock()
}

// parent returns the innermost open span's ID, for record.
func (t *tracer) parent() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current()
}

// selfByRep returns, for each repetition, the summed self time of the
// spans called name: each span's duration minus the part its child spans
// cover.
func (t *tracer) selfByRep(name string) []float64 {
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	byRep := map[int]float64{}
	var reps []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byRep[s.Rep]; !ok {
			reps = append(reps, s.Rep)
		}
		byRep[s.Rep] += s.dur() - child[s.ID]
	}
	out := make([]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, byRep[r])
	}
	return out
}

// host is the provenance stamped on every result: results from different
// hosts are not comparable, and the comparison refuses them.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two results were measured on the same
// hardware and toolchain; the commit may differ (that is what a
// comparison compares).
func (h host) sameMachine(o host) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.CPUModel == o.CPUModel
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rtCounters reads the runtime's allocation and CPU-class counters.
type rtCounters struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRT() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2), idleCPU: v(3)}
}

// heapAllocBytes is the cumulative heap allocation of the process. It
// reads runtime.MemStats, which stops the world briefly but counts every
// allocation: the runtime/metrics counter sees small allocations only when
// their span is flushed, and read 0 for a whole server construction.
func heapAllocBytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// gcShare is the GC's share of the busy CPU time between two readings.
func gcShare(a, b rtCounters) float64 {
	return ratio(b.gcCPU-a.gcCPU, (b.totalCPU-a.totalCPU)-(b.idleCPU-a.idleCPU))
}

// ledger is the traced run's record, written out when the benchmark ends.
type ledger struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     host               `json:"host"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"layer_counts"`
	// Profile is the CPU-profile attribution: per span name (the
	// simulate span for the pipeline workloads, "all" for the service).
	Profile map[string]attribution `json:"profile"`
	// Overhead is the tracing overhead: traced minus untraced median
	// repetition wall time, measured in the same run.
	Overhead struct {
		UntracedWallS float64 `json:"untraced_wall_s"`
		TracedWallS   float64 `json:"traced_wall_s"`
		OverheadS     float64 `json:"overhead_s"`
		Share         float64 `json:"share"`
	} `json:"overhead"`
	PerLayer map[string]float64 `json:"per_layer"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
