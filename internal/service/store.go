package service

import (
	"container/list"
	"sync"
	"time"
)

// Outcome is the terminal state of an executed run, as stored in the
// cache and delivered to every job that asked for the same config.
type Outcome struct {
	// Report is the deterministic report.Single rendering (success only).
	Report string
	// Err is the structured run error (*core.CanceledError or
	// *runner.PanicError), nil on success.
	Err error
	// Cycle is the simulated cycle reached (the full window on success,
	// the abort point otherwise).
	Cycle int64
}

// Store is the content-addressed result store: runs are deterministic,
// so a completed outcome is fully determined by the canonical config
// hash. It doubles as the singleflight table — concurrent submissions of
// the same hash share one execution, with followers waiting on the
// leader's entry instead of occupying queue slots.
//
// One mutex guards the entry map, the LRU over completed entries and the
// counters. Splitting it would buy nothing: Begin and Abandon run under
// Server.mu anyway (the shed rollback depends on that), so only Complete
// and the metrics readers ever contend for it. In-flight entries are
// never evicted; completed entries beyond the capacity are evicted
// least-recently-used, and every eviction is counted.
type Store struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru orders completed entries only (front = most recent); element
	// values are the entry hashes. In-flight entries are not in the list
	// and therefore can never be evicted out from under their waiters.
	lru      *list.List
	capacity int

	hits, misses, evictions int64

	// hist observes submit-to-terminal latencies.
	hist  histogram
	start time.Time
}

type cacheEntry struct {
	done    chan struct{} // closed when outcome is set
	outcome Outcome
	// elem is the entry's LRU slot once completed-and-cached (nil while
	// in flight or for entries resolved without caching).
	elem *list.Element
}

// NewStore returns an empty store holding at most capacity completed
// results (defaultCacheEntries when capacity ≤ 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	return &Store{
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
		capacity: capacity,
		start:    time.Now(),
	}
}

// defaultCacheEntries bounds the completed-result cache when Options
// leaves it unset: enough for a large sweep campaign, small enough that
// a long-running server cannot grow without bound.
const defaultCacheEntries = 4096

// Begin claims hash for execution. The first caller per hash becomes the
// leader (leader=true) and must call Complete exactly once; every other
// caller gets the same entry to Wait on. Completed entries stay resident
// (and move to the front of the LRU) until evicted by capacity, so a
// re-submission of a finished config is a pure cache hit.
func (st *Store) Begin(hash string) (e *cacheEntry, leader bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[hash]; ok {
		st.hits++
		if e.elem != nil {
			st.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	st.misses++
	e = &cacheEntry{done: make(chan struct{})}
	st.entries[hash] = e
	return e, true
}

// Abandon releases a leader's claim without executing (the job was shed
// at admission). Followers that attached in the meantime keep waiting on
// the entry only if it is re-claimed; to keep the invariant simple the
// entry is resolved as the given outcome instead.
func (st *Store) Abandon(hash string, e *cacheEntry, out Outcome) {
	st.mu.Lock()
	delete(st.entries, hash)
	st.mu.Unlock()
	e.outcome = out
	close(e.done)
}

// Complete resolves the leader's entry. Successful and panicked outcomes
// are deterministic, so they stay cached and join the LRU; canceled
// outcomes depend on wall-clock timing, so the entry is evicted — current
// waiters still get the outcome, but a later resubmission re-runs.
// Cached completions beyond the capacity evict the least-recently-used
// completed entry (never an in-flight one — only completed entries are
// in the LRU).
func (st *Store) Complete(hash string, e *cacheEntry, out Outcome) {
	st.mu.Lock()
	if out.Err != nil && out.Report == "" && !deterministicErr(out.Err) {
		delete(st.entries, hash)
	} else {
		e.elem = st.lru.PushFront(hash)
		for st.lru.Len() > st.capacity {
			back := st.lru.Back()
			st.lru.Remove(back)
			delete(st.entries, back.Value.(string))
			st.evictions++
		}
	}
	st.mu.Unlock()
	e.outcome = out
	close(e.done)
}

// RecordLatency observes one job's submit-to-terminal latency.
func (st *Store) RecordLatency(d time.Duration) { st.hist.observe(d) }

// Wait blocks until the entry resolves and returns its outcome.
func (e *cacheEntry) Wait() Outcome {
	<-e.done
	return e.outcome
}

// Hits returns how many submissions were served without a new execution.
func (st *Store) Hits() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hits
}

// Evictions returns the completed entries evicted by capacity.
func (st *Store) Evictions() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictions
}
