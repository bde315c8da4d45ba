package obs

import (
	"sync"
	"time"

	"flagsim/internal/sweep"
)

// RunSummary is one request's after-the-fact record in the run ring:
// identity, outcome, timing, and — for a single run — its resolved spec,
// so an operator who spots a p99 outlier in the latency histogram can
// replay that run's timeline without having asked for tracing up front.
type RunSummary struct {
	ID       string        `json:"id"`
	Endpoint string        `json:"endpoint"`
	Spec     string        `json:"spec"`
	SpecHash string        `json:"spec_hash"`
	Start    time.Time     `json:"start"`
	Latency  time.Duration `json:"latency_ns"`
	Status   int           `json:"status"`
	Outcome  string        `json:"outcome"`
	CacheHit bool          `json:"cache_hit"`
	Makespan time.Duration `json:"makespan_ns,omitempty"`
	Events   uint64        `json:"events,omitempty"`
	Runs     int           `json:"runs,omitempty"`

	// Resolved is a /v1/run's resolved spec, which the run's trace is
	// replayed from: the engine is deterministic, so a fresh run of the
	// spec draws the same spans as the one that answered. Zero for
	// sweeps.
	Resolved sweep.Spec `json:"-"`
}

// RingKey keys a summary by its run ID.
func (s RunSummary) RingKey() string { return s.ID }

// Keyed is an entry of a Ring; RingKey names it for Get and Update.
type Keyed interface{ RingKey() string }

// Ring is a bounded ring of recent entries keyed by string, the newest
// insert evicting the oldest. The first insert of a key wins: inserting
// a key that is still resident is a no-op, so a repeated run ID or a
// dedup'd job resubmission cannot reset a live entry. It is safe for
// concurrent use; Update mutates in place under the ring lock. An entry
// holds no engine spans, so the ring's memory is fixed by its size.
type Ring[V Keyed] struct {
	mu    sync.Mutex
	buf   []V
	next  int
	size  int
	index map[string]int // key -> slot
}

// NewRing returns a ring holding the last n entries; n < 1 is treated
// as 1.
func NewRing[V Keyed](n int) *Ring[V] {
	if n < 1 {
		n = 1
	}
	return &Ring[V]{buf: make([]V, n), index: make(map[string]int, n)}
}

// Insert records v unless its key is resident, evicting the oldest
// entry when full.
func (r *Ring[V]) Insert(v V) {
	key := v.RingKey()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.index[key]; ok {
		return
	}
	slot := r.next
	if r.size == len(r.buf) {
		// Only drop the index entry if it still names this slot: a key
		// must never lose its index while its entry is resident.
		if old := r.buf[slot].RingKey(); r.index[old] == slot {
			delete(r.index, old)
		}
	} else {
		r.size++
	}
	r.buf[slot] = v
	r.index[key] = slot
	r.next = (slot + 1) % len(r.buf)
}

// Update mutates the resident entry for key under the ring lock; false
// means the key is not resident (never inserted, or evicted).
func (r *Ring[V]) Update(key string, fn func(*V)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.index[key]
	if !ok {
		return false
	}
	fn(&r.buf[slot])
	return true
}

// Get returns a copy of the entry for key.
func (r *Ring[V]) Get(key string) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	return r.buf[slot], true
}

// List returns the resident entries, newest insert first.
func (r *Ring[V]) List() []V {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]V, 0, r.size)
	for i := 1; i <= r.size; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the number of resident entries.
func (r *Ring[V]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}
