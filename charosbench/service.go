package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/service"
)

// serviceWorkload drives an in-process experiment server (service.New
// behind its HTTP handler on loopback) closed-loop: each of its clients
// sends its next job only after the previous one returns. Work proceeds
// in rounds; in a round every client works through its own deck of jobs
// and the round ends when the last client finishes.
type serviceWorkload struct {
	// clients is the closed-loop client count (and connection count).
	clients int
	// opts configures the server (a fixed worker pool).
	opts service.Options
	// window is each job's traced window in cycles.
	window int64
	// panicEvery, when > 0, makes every n-th cold job a forced-panic job
	// (needs opts.TestHooks): the benchmark's tests use it to show that
	// failed jobs raise the error rate.
	panicEvery int
}

// The request mix is the one charosd -load generates: three requests in
// four repeat one of four hot configs (its -load-hot default), the fourth
// is a cold config. Unlike -load, whose cold requests cycle through 16
// configs, every cold config here is new, so each one is a run (a miss).
// As with -load against a fresh server, the hot configs are not run
// before timing: their first requests run them, and requests that arrive
// while such a run is in flight are its singleflight followers.
const (
	hotConfigs = 4
	coldEvery  = 4
	// deckSize is one client's jobs per round: 12 hot and 4 cold.
	deckSize = 16
)

// defaultService is the service workload as the benchmark runs it: nproc
// clients against nproc workers, short full-detail 1M-cycle jobs.
func defaultService() *serviceWorkload {
	n := runtime.GOMAXPROCS(0)
	return &serviceWorkload{clients: n, opts: service.Options{Workers: n}, window: 1_000_000}
}

// jobSpec is one request of the mix.
type jobSpec struct {
	req  service.Request
	kind string // "hot" or "cold"
}

var mixWorkloads = []string{"Pmake", "Multpgm", "Oracle"}

// jobResult is one completed client request. The status keeps the
// report's SHA-256 in place of the report: holding thousands of reports
// would make the benchmark's own memory, and so peak_rss_mb, grow with
// the number of jobs a run completes.
type jobResult struct {
	spec       jobSpec
	start, end time.Time
	status     service.JobStatus
	err        error
}

func (j jobResult) latency() time.Duration { return j.end.Sub(j.start) }

// ran reports whether the server executed a run for the job itself (a
// miss), rather than serving it from the store or from another job's run.
func (j jobResult) ran() bool { return j.err == nil && j.status.MCyclesPerSec > 0 }

// mix derives every input of the workload from the benchmark seed: the hot
// configs and, per round and client, a shuffled deck.
type mix struct {
	w    *serviceWorkload
	seed int64
	hot  []service.Request
}

// simSeed gives every generated config its own simulator seed, derived
// from the benchmark seed so a seed always yields the same jobs.
func (m *mix) simSeed(parts ...int64) int64 {
	h := uint64(m.seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range parts {
		h ^= uint64(p) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
	}
	return int64(h>>2) + 1
}

func (m *mix) request(wl int, seed int64) service.Request {
	return service.Request{Workload: mixWorkloads[wl%len(mixWorkloads)], Seed: seed, Window: m.w.window}
}

func newMix(w *serviceWorkload, seed int64) *mix {
	m := &mix{w: w, seed: seed}
	for i := 0; i < hotConfigs; i++ {
		m.hot = append(m.hot, m.request(i, m.simSeed(0, int64(i))))
	}
	return m
}

// deck returns client c's jobs for round r.
func (m *mix) deck(r, c int) []jobSpec {
	rng := rand.New(rand.NewSource(m.simSeed(1, int64(r), int64(c))))
	const colds = deckSize / coldEvery
	var d []jobSpec
	for i := 0; i < colds; i++ {
		// Cold configs rotate through the workloads, so every seed's mix
		// has the same composition and only the simulator seeds differ.
		req := m.request(r+c*colds+i, m.simSeed(2, int64(r), int64(c), int64(i)))
		if m.w.panicEvery > 0 && (r*m.w.clients*colds+c*colds+i)%m.w.panicEvery == 0 {
			req.TestPanic = true
		}
		d = append(d, jobSpec{req: req, kind: "cold"})
	}
	for len(d) < deckSize {
		d = append(d, jobSpec{req: m.hot[rng.Intn(len(m.hot))], kind: "hot"})
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// server is one running experiment server behind a loopback listener.
type server struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(opts service.Options) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: service.New(opts), base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the server (canceling
// what is still running) and waits for the serving goroutine to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // an unfinished shutdown is forced by Drain's cancel below
	s.srv.Drain()
	<-s.served
}

// newClient returns a benchmark client: one connection, and no retries —
// a shed (429) or any other error fails the operation instead of being
// hidden by a backoff loop.
func newClient(base string) (*service.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &service.Client{Base: base, HTTP: &http.Client{Transport: tr}, Retries: -1}, tr
}

// serverSetupProbes is how many times the server set-up is timed before each
// untraced round. Single samples range from 0.05 to 0.2 ms and drift
// within a run, so the samples are spread over the whole run.
const serverSetupProbes = 2

// measureSetup times server construction — listener, service.New and the
// HTTP server — until the server has accepted its first job, n times, each
// on a fresh server that is then stopped. The probe job is submitted in
// process with Server.Submit: over HTTP, the first request's connection
// set-up and the goroutine wake-ups around it made single samples vary
// from 0.5 to 4 ms on a 2-vCPU host while the worker started the job, and
// that cost is paid once per client connection, not once per server.
func (w *serviceWorkload) measureSetup(n int, probe service.Request) ([]float64, []float64, error) {
	var secs, allocMB []float64
	for i := 0; i < n; i++ {
		runtime.GC() // the previous probe's garbage is not this one's cost
		a0 := heapAllocBytes()
		t0 := time.Now()
		opts := w.opts
		opts.DrainFinish = false
		s, err := startServer(opts)
		if err != nil {
			return nil, nil, err
		}
		_, err = s.srv.Submit(probe)
		secs = append(secs, time.Since(t0).Seconds())
		allocMB = append(allocMB, (heapAllocBytes()-a0)/1e6)
		s.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe job: %w", err)
		}
	}
	return secs, allocMB, nil
}

// round runs one round: every client works through its deck closed-loop.
func (w *serviceWorkload) round(ctx context.Context, m *mix, r int, clients []*service.Client, tr *tracer) ([]jobResult, float64) {
	out := make([][]jobResult, len(clients))
	t0 := time.Now()
	run := func(ctx context.Context) {
		parent := tr.parent()
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, spec := range m.deck(r, c) {
					j0 := time.Now()
					st, err := clients[c].Submit(ctx, spec.req)
					j1 := time.Now()
					st.Report = digestOf(st.Report)
					tr.record("job."+spec.kind, parent, j0, j1)
					out[c] = append(out[c], jobResult{spec: spec, start: j0, end: j1, status: st, err: err})
				}
			}(c)
		}
		wg.Wait()
	}
	tr.do(ctx, "round", run)
	wall := time.Since(t0).Seconds()
	var all []jobResult
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}

// measureService runs the service workload for the budget and fills o.
func measureService(ctx context.Context, w *serviceWorkload, p params, o *outcome) error {
	m := newMix(w, p.seed)

	s, err := startServer(w.opts)
	if err != nil {
		return err
	}
	defer s.stop()
	clients := make([]*service.Client, w.clients)
	for i := range clients {
		var tr *http.Transport
		clients[i], tr = newClient(s.base)
		defer tr.CloseIdleConnections()
	}
	var (
		jobs         []jobResult
		setups       []float64
		setupAlloc   []float64
		walls        []float64
		mcps         []float64
		tracedWall   []float64
		totalWall    float64
		untracedJobs int
		tr           *tracer
		prof         bytes.Buffer
		rt0, rt1     rtCounters
	)
	budget := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	tracing := false
	for r := 0; ; r++ {
		elapsed := time.Since(start)
		if p.traced && !tracing && elapsed >= budget/2 && len(walls) >= 2 {
			tracing = true
			tr = newTracer()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
			rt0 = readRT()
		}
		if elapsed >= budget && len(walls) >= 2 && (!p.traced || len(tracedWall) >= 2) {
			break
		}
		if tr != nil {
			tr.rep = r
		}
		if !tracing {
			secs, allocMB, err := w.measureSetup(serverSetupProbes, m.hot[0])
			if err != nil {
				return err
			}
			setups, setupAlloc = append(setups, secs...), append(setupAlloc, allocMB...)
		}
		runtime.GC() // each round starts from a collected heap
		res, wall := w.round(ctx, m, r, clients, tr)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		jobs = append(jobs, res...)
		var cycles float64
		for _, j := range res {
			if j.ran() {
				cycles += simCycles(j.spec.req)
			}
		}
		if tracing {
			tracedWall = append(tracedWall, wall)
		} else {
			walls = append(walls, wall)
			mcps = append(mcps, cycles/wall/1e6)
			totalWall += wall
			untracedJobs += len(res)
		}
	}
	if tracing {
		rt1 = readRT()
		pprof.StopCPUProfile()
	}
	if !p.traced {
		o.e2e["peak_rss_mb"] = peakRSSMB()
	}

	// Correctness: every job's report must equal report.Single of a
	// direct core.Run of the same config.
	want, err := w.expectedReports(ctx, jobs, m.hot)
	if err != nil {
		return err
	}
	var lat, hitLat, missLat, overhead []float64
	var hits, dedup, shed, failed int
	runs := map[string][]jobResult{}
	for _, j := range jobs {
		if j.ran() {
			runs[j.status.Hash] = append(runs[j.status.Hash], j)
		}
	}
	for _, j := range jobs {
		o.attempted++
		var remote *service.RemoteError
		switch {
		case j.err != nil:
			if errors.As(j.err, &remote) && remote.Code == http.StatusTooManyRequests {
				shed++
			}
			failed++
			o.fail("%s seed %d: %v", j.spec.req.Workload, j.spec.req.Seed, j.err)
			continue
		case j.status.State != service.StateDone:
			failed++
			o.fail("%s seed %d: job %s %s (%s): %s", j.spec.req.Workload, j.spec.req.Seed,
				j.status.ID, j.status.State, j.status.ErrorKind, firstLine(j.status.Error))
			continue
		case j.status.Report != digestOf(want[key(j.spec.req)]):
			failed++
			o.fail("%s seed %d: job %s report differs from a direct core.Run", j.spec.req.Workload, j.spec.req.Seed, j.status.ID)
			continue
		}
		ms := 1e3 * j.latency().Seconds()
		lat = append(lat, ms)
		if j.ran() {
			missLat = append(missLat, ms)
			run := simCycles(j.spec.req) / (j.status.MCyclesPerSec * 1e6)
			overhead = append(overhead, ms-1e3*run)
			continue
		}
		hits++
		if followed(j, runs[j.status.Hash]) {
			dedup++
			continue
		}
		hitLat = append(hitLat, ms)
	}
	if p.expect != "" {
		if d := hotDigest(m, want); d != p.expect {
			o.failN(len(m.hot), "hot-config reports digest %.16s, pinned %.16s", d, p.expect)
		}
	}

	o.e2e["wall_s"] = median(walls)
	o.e2e["sim_mcycles_per_s"] = median(mcps)
	o.e2e["setup_s"] = median(setups)
	o.e2e["jobs_per_s"] = float64(untracedJobs) / totalWall
	o.e2e["latency_p50_ms"] = percentile(lat, 50)
	o.e2e["latency_p99_ms"] = percentile(lat, 99)
	o.samples["rounds"] = len(walls) + len(tracedWall)
	o.series["wall_s"], o.series["setup_s"] = walls, setups
	o.samples["latency"] = len(lat)
	o.samples["hit_latency"] = len(hitLat)
	o.samples["miss_latency"] = len(missLat)

	L := o.layer
	L["setup.self_s"] = median(setups)
	L["setup.alloc_mb"] = median(setupAlloc)
	L["service.hit_ratio"] = ratio(float64(hits), float64(len(lat)))
	L["service.dedup"] = float64(dedup)
	L["service.shed"] = float64(shed)
	L["service.failed"] = float64(failed)
	L["service.hit_latency_p50_ms"] = percentile(hitLat, 50)
	L["service.miss_latency_p50_ms"] = percentile(missLat, 50)
	L["service.overhead_ms"] = percentile(overhead, 50)
	L["service.latency_samples"] = float64(len(lat))
	if tracing {
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		att := attribute(samples, "")
		for _, l := range cpuLayers {
			L[l+".cpu_share"] = att.Layers[l]
		}
		L["profile.coverage"] = ratio(att.TotalS, sum(tracedWall)*float64(runtime.GOMAXPROCS(0)))
		L["gc.cpu_share"] = gcShare(rt0, rt1)
		L["alloc.mb"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(len(tracedWall))
		L["tracing.overhead_s"] = median(tracedWall) - median(walls)
		L["tracing.overhead_share"] = ratio(L["tracing.overhead_s"], median(walls))
		led := o.ledger
		led.Spans = tr.spans
		led.Profile = map[string]attribution{"all": att}
		led.Overhead.UntracedWallS = median(walls)
		led.Overhead.TracedWallS = median(tracedWall)
		led.Overhead.OverheadS = L["tracing.overhead_s"]
		led.Overhead.Share = L["tracing.overhead_share"]
	}
	return nil
}

// followed reports whether job j, served without a run of its own, was
// submitted while another client's run of its config was in flight: a
// singleflight follower rather than a cache hit.
func followed(j jobResult, runs []jobResult) bool {
	for _, r := range runs {
		if !j.start.Before(r.start) && j.start.Before(r.end) {
			return true
		}
	}
	return false
}

// hotDigest is the SHA-256 of the hot configs' reports, in order: the
// digest pinned for the service workload.
func hotDigest(m *mix, want map[string]string) string {
	var hot []string
	for _, req := range m.hot {
		hot = append(hot, want[key(req)])
	}
	return digestOf(strings.Join(hot, ""))
}

// key identifies a request's config by its canonical content hash.
func key(req service.Request) string {
	cfg, err := req.Config()
	if err != nil {
		return "invalid: " + err.Error()
	}
	return cfg.Hash()
}

// simCycles is the simulated CPU-cycles of one run of req: every CPU
// simulates the warmup and the window (the metrics.RunStats definition).
func simCycles(req service.Request) float64 {
	cfg, err := req.Config()
	if err != nil {
		return 0
	}
	cfg = cfg.Canonical()
	return float64(cfg.Window+cfg.Warmup) * float64(cfg.NCPU)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// expectedReports renders report.Single of a direct core.Run for every
// distinct config the run submitted, on as many goroutines as clients.
func (w *serviceWorkload) expectedReports(ctx context.Context, jobs []jobResult, hot []service.Request) (map[string]string, error) {
	reqs := map[string]service.Request{}
	for _, req := range hot {
		reqs[key(req)] = req
	}
	for _, j := range jobs {
		if !j.spec.req.TestPanic {
			reqs[key(j.spec.req)] = j.spec.req
		}
	}
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := make(map[string]string, len(keys))
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				cfg, err := reqs[k].Config()
				var ch *core.Characterization
				if err == nil {
					ch, err = runPipeline(ctx, cfg, nil)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("direct run of %s seed %d: %w", reqs[k].Workload, reqs[k].Seed, err)
				}
				if err == nil {
					want[k] = report.Single(ch)
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return want, firstErr
}
