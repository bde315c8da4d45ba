package sweep

// The batch engine: a bounded worker pool with a content-addressed result
// cache. Specs fan across the pool, results come back in input order, and
// identical specs — within one batch or across batches on the same
// Sweeper — are computed exactly once (singleflight): the first arrival
// computes, duplicates wait on the entry and count as hits.
//
// Determinism contract: a Spec materializes all of its state (team,
// implement set, plan) inside the worker from its seed, and the DES
// kernel underneath is single-threaded per run, so a run's Result is a
// pure function of the Spec. Pool size and scheduling order affect only
// wall-clock time, never results — RunSweep with 1 worker and with 8
// workers returns bit-identical per-run Results.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flagsim/internal/sim"
)

// Options configures a Sweeper.
type Options struct {
	// Workers bounds pool concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Probes are installed on every compute the pool executes (cache hits
	// fire nothing — the engine never ran). Installing any probe puts
	// every compute on the engine's instrumented path. Because pool
	// workers run concurrently, every probe listed here MUST be
	// goroutine-safe (see the sim.Probe docs); sim.CountingProbe
	// qualifies, sim.SpanCollector does not. A probe that is also a
	// sim.ResultProbe gets the live Result under the same terms as the
	// Observer.
	Probes []sim.Probe
	// Observer, when non-nil, is handed every result the pool computes
	// successfully, once, after its compute returns; never a memo hit,
	// an error or a canceled compute. It installs nothing on the engine,
	// so an untraced, probe-free compute keeps the fast path, and it
	// reads the run's totals from the Result (sim.Result.Counts).
	// Pool workers call it concurrently, so it must be goroutine-safe.
	// In record mode the Result aliases the computing crew member's
	// arena, which that member's next compute overwrites: the Observer
	// reads it during the call and must not keep it or anything it
	// points to. flagsimd publishes its engine metrics through it
	// (obs.MetricsProbe, which keeps only counts).
	Observer sim.ResultProbe
	// Encode, when non-nil, puts the Sweeper in record mode: a
	// successful compute is memoized as a *Record (the run's Summary,
	// plus a slim copy of its Result that Encode turns into canonical
	// bytes on the record's first Bytes call) instead of the whole
	// *sim.Result. Each crew member then computes through one arena
	// borrowed from sim's pool (see crewArena), so the live Result is
	// arena memory: only the Observer and installed ResultProbes see it,
	// during their call, and every RunResult, the computing spec's
	// included, carries the Record alone. flagsimd and flagworkd set it
	// to wire.EncodeRecord; library callers leave it nil and get
	// independent live Results on every compute and every hit.
	Encode Encoder
}

// CacheStats counts cache outcomes. A within-batch duplicate of a spec
// counts as a hit: the duplicate waited for the first arrival's compute
// instead of repeating it.
type CacheStats struct {
	Hits   int
	Misses int
	// Entries is the number of memoized results resident in the cache.
	// Only Sweeper.Stats snapshots fill it; a batch Result's Cache tally
	// leaves it zero (a batch doesn't own the cache).
	Entries int
	// Evictions counts entries removed from the cache (today: canceled
	// computes, which are never memoized). Like Entries it is a
	// Sweeper-lifetime figure filled only by Sweeper.Stats.
	Evictions int
}

// HitRate returns hits / (hits + misses), or 0 for an empty tally.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// RunResult is the outcome of one spec in a batch.
type RunResult struct {
	Spec Spec
	// Result is the completed run outside record mode; shared (not
	// copied) with every other cache hit of the same key, so treat it as
	// read-only. In record mode it is nil on every run, computed or hit:
	// Record holds what the run keeps.
	Result *sim.Result
	// Record is the run's memoized record in record mode (Options.Encode)
	// when it succeeded; nil otherwise.
	Record *Record
	// Err is the run's error; errors are memoized like results (a spec
	// that fails deterministically fails from cache too).
	Err error
	// Elapsed is this run's compute wall time; zero on a cache hit.
	Elapsed time.Duration
	// CacheHit reports whether the result came from the cache.
	CacheHit bool
}

// Result is the outcome of one batch: per-run outcomes in input order
// plus batch-level timing and cache accounting.
type Result struct {
	// Runs holds one outcome per input spec, in input order.
	Runs []RunResult
	// Wall is the whole batch's wall-clock time.
	Wall time.Duration
	// Workers is the pool bound the batch ran under.
	Workers int
	// Cache tallies this batch's hits and misses.
	Cache CacheStats
}

// Err returns the first per-run error, annotated with the run's label,
// or nil when every run succeeded.
func (r *Result) Err() error {
	for i := range r.Runs {
		if err := r.Runs[i].Err; err != nil {
			return fmt.Errorf("sweep: %s: %w", r.Runs[i].Spec.Label(), err)
		}
	}
	return nil
}

// entry is one cache slot. done closes when the compute finishes; res,
// rec and err are immutable afterwards. A successful entry holds res,
// or rec in record mode; a failed one holds err.
type entry struct {
	done chan struct{}
	res  *sim.Result
	rec  *Record
	err  error
}

// Sweeper owns a worker pool bound and a result cache that persists
// across batches, so a rerun of the same grid is served warm. A Sweeper
// is safe for concurrent use.
type Sweeper struct {
	workers  int
	probes   []sim.Probe
	observer sim.ResultProbe
	encode   Encoder

	mu    sync.Mutex
	cache map[[sha256.Size]byte]*entry

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// running and queued are the pool's live occupancy gauges: how many
	// specs hold a worker slot and how many are waiting for one.
	running atomic.Int64
	queued  atomic.Int64

	// geoBuilt counts the batch geometries built (see geometry.go) and
	// geoLive those not yet dropped, across all batches.
	geoBuilt atomic.Int64
	geoLive  atomic.Int64
	// arenasTaken counts the arenas crew members borrowed (crewArena).
	arenasTaken atomic.Int64
}

// New returns a Sweeper with an empty cache.
func New(opts Options) *Sweeper {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Sweeper{workers: w, probes: opts.Probes, observer: opts.Observer,
		encode: opts.Encode, cache: make(map[[sha256.Size]byte]*entry)}
}

// Workers returns the pool's concurrency bound.
func (s *Sweeper) Workers() int { return s.workers }

// Stats returns the Sweeper's lifetime cache tally across all batches,
// plus the number of memoized results currently resident.
func (s *Sweeper) Stats() CacheStats {
	s.mu.Lock()
	entries := len(s.cache)
	s.mu.Unlock()
	return CacheStats{
		Hits: int(s.hits.Load()), Misses: int(s.misses.Load()),
		Entries: entries, Evictions: int(s.evictions.Load()),
	}
}

// Lookup returns the record memoized under key when its compute has
// finished and succeeded, and counts the lookup as a cache hit. A key
// that is absent, still computing or failed reports false and counts
// nothing: the caller runs it through a batch, which waits for an
// in-flight compute and counts the outcome itself. Outside record mode
// it always reports false.
func (s *Sweeper) Lookup(key [sha256.Size]byte) (*Record, bool) {
	s.mu.Lock()
	e := s.cache[key]
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	select {
	case <-e.done:
	default:
		return nil, false
	}
	if e.rec == nil {
		return nil, false
	}
	s.hits.Add(1)
	return e.rec, true
}

// PoolDepth returns the pool's instantaneous occupancy: specs currently
// computing on a worker slot and specs queued waiting for one.
func (s *Sweeper) PoolDepth() (running, queued int) {
	return int(s.running.Load()), int(s.queued.Load())
}

// Run executes the batch and returns per-run outcomes in input order.
//
// ctx cancels the batch: runs already computing abort at the engine's
// next cancellation checkpoint, queued runs fail fast, and every
// affected RunResult carries an error wrapping sim.ErrCanceled. Canceled
// computes are never memoized — the entry is evicted so a later batch
// (or a concurrent duplicate with a live context) recomputes instead of
// inheriting a poisoned result. A nil ctx runs unchecked.
func (s *Sweeper) Run(ctx context.Context, specs []Spec) *Result {
	start := time.Now()
	batch := &Result{Runs: make([]RunResult, len(specs)), Workers: s.workers}
	var hits, misses atomic.Uint64
	share := s.newGeoShare(specs)
	// one runs spec i on the calling crew member, whose arena it is.
	one := func(i int, arena *crewArena) {
		key := specs[i].Key()
		for {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					batch.Runs[i] = RunResult{Spec: specs[i],
						Err: fmt.Errorf("%w before start: %v", sim.ErrCanceled, err)}
					return
				}
			}
			s.mu.Lock()
			e, cached := s.cache[key]
			if !cached {
				e = &entry{done: make(chan struct{})}
				s.cache[key] = e
			}
			s.mu.Unlock()

			if !cached {
				t0 := time.Now()
				var res *sim.Result
				if f, geo, err := share.resolve(i); err != nil {
					e.err = err
				} else {
					res, e.err = specs[i].runOn(ctx, s.probes, f, geo, arena.get())
				}
				elapsed := time.Since(t0)
				if e.err == nil {
					if s.encode != nil {
						e.rec = newRecord(res, s.encode)
					} else {
						e.res = res
					}
					if s.observer != nil {
						s.observer.ObserveResult(res)
					}
				}
				if e.err != nil && errors.Is(e.err, sim.ErrCanceled) {
					// Never memoize a canceled compute: evict before
					// publishing so retrying waiters re-enter the
					// lookup as fresh creators.
					s.mu.Lock()
					delete(s.cache, key)
					s.mu.Unlock()
					s.evictions.Add(1)
				}
				close(e.done)
				misses.Add(1)
				s.misses.Add(1)
				batch.Runs[i] = RunResult{Spec: specs[i], Result: e.res, Record: e.rec, Err: e.err, Elapsed: elapsed}
				return
			}

			<-e.done
			if e.err != nil && errors.Is(e.err, sim.ErrCanceled) {
				// The creator's context died mid-compute; this spec is
				// still wanted, so retry as the new creator.
				continue
			}
			hits.Add(1)
			s.hits.Add(1)
			batch.Runs[i] = RunResult{Spec: specs[i], Result: e.res, Record: e.rec, Err: e.err, CacheHit: true}
			return
		}
	}
	// A crew of at most Workers goroutines takes the specs in input
	// order. Each member is one worker slot, held for every spec it
	// runs, so an entry's creator always holds a slot and finishes
	// without needing another: waiters parked on e.done cannot starve
	// the compute they are waiting for.
	var next atomic.Int64
	s.queued.Add(int64(len(specs)))
	var wg sync.WaitGroup
	for range min(s.workers, len(specs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := crewArena{s: s}
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				s.queued.Add(-1)
				s.running.Add(1)
				one(i, &arena)
				s.running.Add(-1)
				share.release(i)
			}
			arena.release()
		}()
	}
	wg.Wait()
	batch.Wall = time.Since(start)
	batch.Cache = CacheStats{Hits: int(hits.Load()), Misses: int(misses.Load())}
	return batch
}

// crewArena is one crew member's arena for a batch. In record mode the
// member computes every spec through one arena borrowed from sim's pool,
// in owned mode, so a cold compute allocates no grid, plan or stats of
// its own: the record copies what it keeps before the member's next
// compute. The arena is borrowed at the member's first compute, never
// before, so a batch served wholly from the memo leaves the pool alone,
// and it is returned when the member leaves the batch. Outside record
// mode get returns nil, and every compute draws a pooled arena and
// returns an independent Result for the memo to keep.
type crewArena struct {
	s *Sweeper
	a *sim.Arena
}

func (c *crewArena) get() *sim.Arena {
	if c.a == nil && c.s.encode != nil {
		c.a = sim.BorrowArena()
		c.s.arenasTaken.Add(1)
	}
	return c.a
}

func (c *crewArena) release() {
	if c.a != nil {
		sim.ReturnArena(c.a)
		c.a = nil
	}
}

// RunAll executes specs on a fresh single-use Sweeper — the convenience
// entry point for one-shot batches. Reuse a Sweeper instead when warm
// reruns should hit the cache.
func RunAll(specs []Spec, opts Options) *Result {
	return New(opts).Run(nil, specs)
}
