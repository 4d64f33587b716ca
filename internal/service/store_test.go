package service

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// complete drives a hash through the leader path to a cached success.
func complete(t *testing.T, st *Store, hash string) {
	t.Helper()
	e, leader := st.Begin(hash)
	if !leader {
		t.Fatalf("hash %.12s already claimed", hash)
	}
	st.Complete(hash, e, Outcome{Report: "r-" + hash})
}

// TestLRUEviction: completed entries beyond the cap evict
// least-recently-used, evictions are counted, and a re-submission of an
// evicted config becomes a fresh leader (it re-runs).
func TestLRUEviction(t *testing.T) {
	st := NewStore(3)
	h := make([]string, 5)
	for i := range h {
		h[i] = fmt.Sprintf("lru-%d", i)
	}
	for _, hash := range h[:3] {
		complete(t, st, hash)
	}
	// Touch h0 so h1 becomes the LRU victim.
	if _, leader := st.Begin(h[0]); leader {
		t.Fatal("h0 should be a cache hit")
	}
	complete(t, st, h[3]) // evicts h1
	if got := st.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, leader := st.Begin(h[1]); !leader {
		t.Error("evicted h1 should re-run (leader), but was served from cache")
	} else {
		st.Abandon(h[1], mustEntry(t, st, h[1]), Outcome{})
	}
	for _, hash := range []string{h[0], h[2], h[3]} {
		if _, leader := st.Begin(hash); leader {
			t.Errorf("recently used %.12s was evicted", hash)
		}
	}
}

// TestCacheEntriesIsExactCap: Options.CacheEntries is the exact number
// of completed results the server keeps — no eviction until the cap is
// passed, then exactly one per extra config, and the victim is the
// least-recently-used result.
func TestCacheEntriesIsExactCap(t *testing.T) {
	srv := New(Options{CacheEntries: 8})
	t.Cleanup(srv.Drain)
	// submit runs one job to completion and reports whether it was a
	// cache hit; jobs go one at a time, so the LRU order is the order
	// of the calls.
	submit := func(i int) (hit bool) {
		t.Helper()
		before := srv.Stats().CacheHits
		job, err := srv.Submit(smallReq(int64(900 + i)))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		<-job.Done()
		if st := job.Snapshot(); st.State != StateDone {
			t.Fatalf("config %d: %+v", i, st)
		}
		return srv.Stats().CacheHits > before
	}
	for i := 0; i < 8; i++ {
		if submit(i) {
			t.Fatalf("config %d: hit on first submission", i)
		}
	}
	if got := srv.Stats().CacheEvictions; got != 0 {
		t.Fatalf("8 configs under an 8-entry cap evicted %d results", got)
	}
	if !submit(0) {
		t.Fatal("config 0 was not resident")
	}
	submit(8) // config 1 is now the least recently used
	if got := srv.Stats().CacheEvictions; got != 1 {
		t.Fatalf("a 9th config evicted %d results, want 1", got)
	}
	for _, i := range []int{0, 2, 3, 4, 5, 6, 7, 8} {
		if !submit(i) {
			t.Errorf("config %d was evicted instead of the LRU config 1", i)
		}
	}
	if submit(1) {
		t.Error("LRU config 1 was still a cache hit")
	}
}

func mustEntry(t *testing.T, st *Store, hash string) *cacheEntry {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[hash]
	if !ok {
		t.Fatalf("no entry for %.12s", hash)
	}
	return e
}

// TestInflightNeverEvicted: entries still executing are not in the LRU
// and survive any amount of completed-entry churn.
func TestInflightNeverEvicted(t *testing.T) {
	st := NewStore(2)
	inflight := "inflight"
	e, leader := st.Begin(inflight)
	if !leader {
		t.Fatal("fresh hash not leader")
	}
	for i := 0; i < 16; i++ {
		complete(t, st, fmt.Sprintf("churn-%d", i))
	}
	if st.Evictions() == 0 {
		t.Fatal("churn produced no evictions")
	}
	if got := mustEntry(t, st, inflight); got != e {
		t.Fatal("in-flight entry replaced under churn")
	}
	// Followers attached before completion must still get the outcome.
	follower, leader := st.Begin(inflight)
	if leader {
		t.Fatal("in-flight hash re-claimed as leader")
	}
	go st.Complete(inflight, e, Outcome{Report: "late"})
	if out := follower.Wait(); out.Report != "late" {
		t.Fatalf("follower got %q", out.Report)
	}
}

// TestCanceledOutcomesNotCached: nondeterministic outcomes are evicted
// at Complete, so a resubmission re-runs.
func TestCanceledOutcomesNotCached(t *testing.T) {
	st := NewStore(16)
	hash := "canceled"
	e, _ := st.Begin(hash)
	st.Complete(hash, e, Outcome{Err: ErrDraining})
	if _, leader := st.Begin(hash); !leader {
		t.Error("canceled outcome stayed cached")
	}
}

// TestStoreConcurrentBeginComplete hammers one store from many
// goroutines; run under -race this is the store-locking regression test.
func TestStoreConcurrentBeginComplete(t *testing.T) {
	st := NewStore(32)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hash := fmt.Sprintf("c-%d", (g*7+i)%64)
				e, leader := st.Begin(hash)
				if leader {
					st.Complete(hash, e, Outcome{Report: hash})
				} else if out := e.Wait(); out.Report != hash {
					t.Errorf("wrong outcome for %.12s: %q", hash, out.Report)
				}
				st.RecordLatency(time.Duration(i) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	m := st.Snapshot()
	if m.Hits+m.Misses != 16*200 {
		t.Errorf("hits+misses = %d, want %d", m.Hits+m.Misses, 16*200)
	}
	if m.Entries > 32 {
		t.Errorf("%d completed entries resident, cap is 32", m.Entries)
	}
	if m.Resolved != 16*200 {
		t.Errorf("resolved latencies = %d, want %d", m.Resolved, 16*200)
	}
}

// TestHistogramQuantiles pins the fixed-bucket quantile math.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 100 observations at ~3ms (bucket (2,5]), 10 at ~40ms, 1 at ~2s.
	for i := 0; i < 100; i++ {
		h.observe(3 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(40 * time.Millisecond)
	}
	h.observe(2 * time.Second)
	c := h.counts()
	p50, p99 := quantileMS(c, 0.50), quantileMS(c, 0.99)
	if p50 <= 2 || p50 > 5 {
		t.Errorf("p50 = %.2fms, want within (2,5]", p50)
	}
	if p99 <= 25 || p99 > 50 {
		t.Errorf("p99 = %.2fms, want within (25,50]", p99)
	}
	if p100 := quantileMS(c, 1.0); p100 <= 1000 || p100 > 2500 {
		t.Errorf("p100 = %.2fms, want within (1000,2500]", p100)
	}
	if got := quantileMS([histBuckets]int64{}, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := quantileMS(c, q)
		if v < prev {
			t.Errorf("quantile(%v) = %v < quantile at lower q %v", q, v, prev)
		}
		prev = v
	}
}
