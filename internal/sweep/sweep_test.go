package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// testGrid is a mixed 24-run grid exercising all three executor classes,
// crayons (whose breakage draws from the team's random streams) and
// jittered service times, so determinism failures from shared RNG state
// would have every chance to show.
func testGrid() []Spec {
	g := Grid{
		Base: Spec{
			Flag:     "mauritius",
			Scenario: core.S4,
			Kind:     implement.ThickMarker,
			Setup:    5 * time.Second,
			Jitter:   0.15,
		},
		Execs: []Exec{ExecStatic, ExecSteal, ExecDynamic},
		Kinds: []implement.Kind{implement.ThickMarker, implement.Crayon},
		Seeds: []uint64{1, 2, 3, 4},
	}
	specs := g.Specs()
	// Dynamic specs need an explicit team size (Workers=0 means "scenario
	// default" for the plan-driven classes but a solo team for dynamic).
	for i := range specs {
		if specs[i].Exec == ExecDynamic {
			specs[i].Workers = 4
		}
	}
	return specs
}

// fingerprint renders everything a Result determines into a comparable
// string, so "byte-identical" is checked literally.
func fingerprint(r *sim.Result) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d|%v|%v|%+v|%+v|%s",
		r.Makespan, r.Events, r.Breaks, r.Steals, r.Migrated,
		r.TotalWaitImplement(), r.TotalWaitLayer(), r.Procs, r.Implements,
		r.Grid.String())
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := testGrid()
	serial := New(Options{Workers: 1}).Run(nil, specs)
	pooled := New(Options{Workers: 8}).Run(nil, specs)
	if len(serial.Runs) != len(specs) || len(pooled.Runs) != len(specs) {
		t.Fatalf("runs = %d and %d, want %d", len(serial.Runs), len(pooled.Runs), len(specs))
	}
	for i := range specs {
		a, b := serial.Runs[i], pooled.Runs[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: errors %v / %v", specs[i].Label(), a.Err, b.Err)
		}
		if fa, fb := fingerprint(a.Result), fingerprint(b.Result); fa != fb {
			t.Errorf("%s: workers=1 and workers=8 diverge:\n  %s\n  %s", specs[i].Label(), fa, fb)
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s: deep structural mismatch between worker counts", specs[i].Label())
		}
	}
}

func TestSweepWarmCache(t *testing.T) {
	specs := testGrid()
	sw := New(Options{Workers: 4})
	cold := sw.Run(nil, specs)
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses != len(specs) || cold.Cache.Hits != 0 {
		t.Fatalf("cold cache = %+v, want %d misses", cold.Cache, len(specs))
	}
	warm := sw.Run(nil, specs)
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != len(specs) || warm.Cache.Misses != 0 {
		t.Fatalf("warm cache = %+v, want %d hits", warm.Cache, len(specs))
	}
	if rate := warm.Cache.HitRate(); rate < 0.95 {
		t.Fatalf("warm hit rate %.2f < 0.95", rate)
	}
	for i := range specs {
		if !warm.Runs[i].CacheHit {
			t.Errorf("warm run %d not marked as cache hit", i)
		}
		if warm.Runs[i].Elapsed != 0 {
			t.Errorf("warm run %d reports compute time %v", i, warm.Runs[i].Elapsed)
		}
		if warm.Runs[i].Result != cold.Runs[i].Result {
			t.Errorf("warm run %d returned a different result object", i)
		}
	}
	stats := sw.Stats()
	if stats.Hits != len(specs) || stats.Misses != len(specs) {
		t.Errorf("lifetime stats = %+v, want %d/%d", stats, len(specs), len(specs))
	}
	if stats.Entries != len(specs) {
		t.Errorf("cache entries = %d, want %d", stats.Entries, len(specs))
	}
}

func TestSweepDedupesWithinBatch(t *testing.T) {
	spec := Spec{Flag: "mauritius", Scenario: core.S3, Kind: implement.ThickMarker, Seed: 7}
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = spec
	}
	batch := New(Options{Workers: 4}).Run(nil, specs)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if batch.Cache.Misses != 1 || batch.Cache.Hits != 7 {
		t.Fatalf("cache = %+v, want 1 miss / 7 hits", batch.Cache)
	}
	for i := 1; i < len(specs); i++ {
		if batch.Runs[i].Result != batch.Runs[0].Result {
			t.Errorf("run %d did not share the singleflight result", i)
		}
	}
}

func TestSweepMemoizesErrors(t *testing.T) {
	specs := []Spec{
		{Flag: "atlantis", Scenario: core.S1, Kind: implement.ThickMarker},
		{Flag: "mauritius", Scenario: core.S1, Kind: implement.ThickMarker},
	}
	sw := New(Options{Workers: 2})
	cold := sw.Run(nil, specs)
	if cold.Runs[0].Err == nil {
		t.Fatal("unknown flag did not error")
	}
	if cold.Runs[1].Err != nil {
		t.Fatalf("valid spec errored: %v", cold.Runs[1].Err)
	}
	if err := cold.Err(); err == nil {
		t.Fatal("batch Err() lost the per-run error")
	}
	warm := sw.Run(nil, specs[:1])
	if !warm.Runs[0].CacheHit || warm.Runs[0].Err == nil {
		t.Fatalf("error was not memoized: %+v", warm.Runs[0])
	}
}

// TestSweepCanceledBeforeStart: with the context canceled before a batch
// larger than the pool, every spec fails with ErrCanceled before start,
// in input order, nothing is computed or cached, and the pool drains.
func TestSweepCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := New(Options{Workers: 2})
	specs := testGrid()
	batch := sw.Run(ctx, specs)
	for i, run := range batch.Runs {
		if !errors.Is(run.Err, sim.ErrCanceled) || !strings.Contains(run.Err.Error(), "before start") {
			t.Fatalf("run %d: err = %v, want ErrCanceled before start", i, run.Err)
		}
		if run.Spec.Key() != specs[i].Key() {
			t.Fatalf("run %d holds %s, want %s", i, run.Spec.Label(), specs[i].Label())
		}
	}
	if stats := sw.Stats(); stats.Entries != 0 || batch.Cache != (CacheStats{}) {
		t.Fatalf("canceled batch tallied %+v and left %d cache entries", batch.Cache, stats.Entries)
	}
	if running, queued := sw.PoolDepth(); running != 0 || queued != 0 {
		t.Fatalf("drained pool reports running=%d queued=%d", running, queued)
	}
}

func TestSweepCancelMidRunNotMemoized(t *testing.T) {
	// One very large run (~320k cells, ~100ms of compute even on a fast
	// machine) canceled shortly after it starts: the run must fail with
	// ErrCanceled and must NOT poison the cache — a rerun with a live
	// context computes fresh and succeeds. The generous size also rides
	// out single-core schedulers that park the canceling goroutine for
	// tens of milliseconds.
	spec := Spec{Flag: "mauritius", Scenario: core.S4, W: 800, H: 400,
		Kind: implement.ThickMarker, Seed: 9}
	sw := New(Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	batch := sw.Run(ctx, []Spec{spec})
	if err := batch.Runs[0].Err; !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("canceled run: err = %v, want ErrCanceled", err)
	}
	if stats := sw.Stats(); stats.Entries != 0 {
		t.Fatalf("canceled compute was memoized: %+v", stats)
	}

	retry := sw.Run(context.Background(), []Spec{spec})
	if err := retry.Runs[0].Err; err != nil {
		t.Fatalf("retry after cancel failed: %v", err)
	}
	if retry.Runs[0].CacheHit {
		t.Fatal("retry was served from cache — canceled entry survived")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := Grid{
		Base:     Spec{Flag: "mauritius", Kind: implement.ThickMarker},
		Workers:  []int{1, 2, 4},
		Kinds:    []implement.Kind{implement.Dauber, implement.Crayon},
		Policies: []sim.PullPolicy{sim.PullOrdered, sim.PullColorAffinity},
	}
	specs := g.Specs()
	if g.Size() != 12 || len(specs) != 12 {
		t.Fatalf("size = %d, len = %d, want 12", g.Size(), len(specs))
	}
	// Slowest-first field order: workers outermost of the set axes.
	if specs[0].Workers != 1 || specs[len(specs)-1].Workers != 4 {
		t.Errorf("axis order unexpected: first %+v last %+v", specs[0], specs[len(specs)-1])
	}
	seen := make(map[[32]byte]bool)
	for _, sp := range specs {
		if sp.Flag != "mauritius" {
			t.Errorf("base field not inherited: %+v", sp)
		}
		seen[sp.Key()] = true
	}
	if len(seen) != 12 {
		t.Errorf("grid produced %d unique keys, want 12", len(seen))
	}
}

func TestSpecKey(t *testing.T) {
	a := Spec{Flag: "mauritius", Scenario: core.S4, Kind: implement.Crayon, Seed: 1}
	b := a
	if a.Key() != b.Key() {
		t.Error("identical specs hash differently")
	}
	for name, mutate := range map[string]func(*Spec){
		"seed":     func(s *Spec) { s.Seed = 2 },
		"exec":     func(s *Spec) { s.Exec = ExecSteal },
		"kind":     func(s *Spec) { s.Kind = implement.Dauber },
		"percolor": func(s *Spec) { s.PerColor = 2 },
		"setup":    func(s *Spec) { s.Setup = time.Second },
		"skills":   func(s *Spec) { s.Skills = []float64{1, 1, 1, 1} },
		"jitter":   func(s *Spec) { s.Jitter = 0.1 },
		"size":     func(s *Spec) { s.W, s.H = 64, 32 },
	} {
		c := a
		mutate(&c)
		if c.Key() == a.Key() {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

func TestSpecSkillsAndWorkersOverride(t *testing.T) {
	// A three-worker scenario-3 run with explicit skills: the slow student
	// paints fewer cells under stealing, and the skill list must match the
	// worker count.
	sp := Spec{
		Exec: ExecSteal, Flag: "mauritius", Scenario: core.S3,
		Workers: 3, Kind: implement.ThickMarker, Seed: 11,
		Skills: []float64{1.4, 1.0, 0.5},
	}
	batch := RunAll([]Spec{sp}, Options{Workers: 1})
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	res := batch.Runs[0].Result
	if len(res.Procs) != 3 {
		t.Fatalf("got %d procs, want 3", len(res.Procs))
	}
	bad := sp
	bad.Skills = []float64{1, 1}
	if err := RunAll([]Spec{bad}, Options{}).Err(); err == nil {
		t.Error("mismatched skills length did not error")
	}
}

// TestPoolProbesObserveComputesOnly installs a shared CountingProbe as a
// pool-wide probe and checks that it fires exactly once per compute:
// cache hits (warm rerun, within-batch duplicates) never reach the
// engine, so they never reach the probe either.
func TestPoolProbesObserveComputesOnly(t *testing.T) {
	var count sim.CountingProbe
	s := New(Options{Workers: 4, Probes: []sim.Probe{&count}})
	spec := Spec{Flag: "mauritius", Scenario: core.S3, Kind: implement.ThickMarker, Seed: 7}

	cold := s.Run(nil, []Spec{spec, spec, spec})
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses != 1 || cold.Cache.Hits != 2 {
		t.Fatalf("cold batch: %d misses %d hits, want 1/2", cold.Cache.Misses, cold.Cache.Hits)
	}
	retiredAfterCold := count.Retired()
	if retiredAfterCold == 0 {
		t.Fatal("pool probe saw no retirements after a compute")
	}

	warm := s.Run(nil, []Spec{spec})
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 1 {
		t.Fatalf("warm batch hits = %d, want 1", warm.Cache.Hits)
	}
	if got := count.Retired(); got != retiredAfterCold {
		t.Errorf("cache hit reached the probe: retired %d -> %d", retiredAfterCold, got)
	}
}

// TestPooledSpansEqualRunOnce: a run's engine spans are a pure function
// of its spec, which is what lets a daemon replay a trace with RunOnce
// instead of capturing it when it computes. For every builtin flag and
// two generated ones under each executor and scenarios 1 to 4, plus a
// heavily faulted and an eager-release spec, a one-spec pool batch with
// a collector installed through Options.Probes collects the same spans
// as RunOnce with one, and a second RunOnce agrees.
func TestPooledSpansEqualRunOnce(t *testing.T) {
	flags := append(flagspec.Names(), "gen:v1:42:1", "gen:v1:7:3")
	var specs []Spec
	for _, flag := range flags {
		for _, exec := range []Exec{ExecStatic, ExecSteal, ExecDynamic} {
			for scen := core.S1; scen <= core.S4; scen++ {
				spec := Spec{Exec: exec, Flag: flag, Scenario: scen, Kind: implement.ThickMarker, Seed: uint64(scen)}
				if exec == ExecDynamic {
					s, _ := core.ScenarioByID(scen)
					spec.Workers = s.Workers
				}
				specs = append(specs, spec)
			}
		}
	}
	heavy, err := fault.Preset("heavy", 3)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs,
		Spec{Flag: "mauritius", Scenario: core.S4Pipelined, Kind: implement.ThickMarker, Seed: 7, Faults: heavy},
		Spec{Flag: "jordan", Scenario: core.S3, Kind: implement.ThickMarker, Seed: 2, Hold: sim.EagerRelease})
	for _, spec := range specs {
		var pooled, once, again sim.SpanCollector
		run := New(Options{Workers: 1, Probes: []sim.Probe{&pooled}}).Run(nil, []Spec{spec}).Runs[0]
		_, err := spec.RunOnce(nil, &once)
		if fmt.Sprint(run.Err) != fmt.Sprint(err) {
			t.Fatalf("%s: pooled error %v, RunOnce error %v", spec.Label(), run.Err, err)
		}
		if err != nil {
			continue
		}
		if len(pooled.Spans) == 0 {
			t.Fatalf("%s: the pooled compute collected no spans", spec.Label())
		}
		if !reflect.DeepEqual(pooled.Spans, once.Spans) {
			t.Fatalf("%s: RunOnce collected %d spans, the pooled compute %d, and they differ",
				spec.Label(), len(once.Spans), len(pooled.Spans))
		}
		if _, err := spec.RunOnce(nil, &again); err != nil || !reflect.DeepEqual(once.Spans, again.Spans) {
			t.Fatalf("%s: a second RunOnce collected other spans (err %v)", spec.Label(), err)
		}
	}
}

// TestPoolDepthAndEvictions covers the pool occupancy gauges and the
// eviction counter: a canceled compute increments Evictions, and
// PoolDepth returns to zero once the batch drains.
func TestPoolDepthAndEvictions(t *testing.T) {
	s := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Flag: "mauritius", Scenario: core.S1, Kind: implement.ThickMarker, Seed: 11}
	batch := s.Run(ctx, []Spec{spec})
	if batch.Err() == nil {
		t.Fatal("canceled batch reported success")
	}
	st := s.Stats()
	// Canceled before start doesn't create an entry; canceled mid-compute
	// does and evicts it. Either way the cache must hold nothing.
	if st.Entries != 0 {
		t.Errorf("canceled batch left %d cache entries", st.Entries)
	}
	if running, queued := s.PoolDepth(); running != 0 || queued != 0 {
		t.Errorf("drained pool reports running=%d queued=%d", running, queued)
	}

	// A mid-compute cancellation must count an eviction.
	ctx2, cancel2 := context.WithCancel(context.Background())
	release := make(chan struct{})
	done := make(chan *Result, 1)
	go func() {
		// Big raster so the compute is still in flight when we cancel.
		big := Spec{Flag: "mauritius", Scenario: core.S1, Kind: implement.ThickMarker, W: 400, H: 260, Seed: 12}
		close(release)
		done <- s.Run(ctx2, []Spec{big})
	}()
	<-release
	time.Sleep(2 * time.Millisecond)
	cancel2()
	batch2 := <-done
	if batch2.Err() != nil && errors.Is(batch2.Err(), sim.ErrCanceled) {
		if got := s.Stats().Evictions; got == 0 {
			t.Error("mid-compute cancellation evicted nothing")
		}
	}
	cancel()
}

// TestSpecFaultKeyAndMemoization pins the fault plan's participation in
// content addressing: a fault-bearing spec hashes distinctly from its
// fault-free twin (and from other plans), memoizes under its own
// address, and a warm rerun of the same faulted spec is served from
// cache with a bit-identical Result.
func TestSpecFaultKeyAndMemoization(t *testing.T) {
	base := Spec{Flag: "mauritius", Scenario: core.S4, Kind: implement.ThickMarker, Seed: 5}
	light, err := fault.Preset("light", 1)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := fault.Preset("heavy", 1)
	if err != nil {
		t.Fatal(err)
	}
	lightSpec, heavySpec := base, base
	lightSpec.Faults, heavySpec.Faults = light, heavy

	keys := map[[32]byte]string{
		base.Key():      "base",
		lightSpec.Key(): "light",
		heavySpec.Key(): "heavy",
	}
	if len(keys) != 3 {
		t.Fatalf("fault plans collapsed spec keys: %v", keys)
	}
	reseeded := lightSpec
	reseededPlan := *light
	reseededPlan.Seed++
	reseeded.Faults = &reseededPlan
	if reseeded.Key() == lightSpec.Key() {
		t.Fatal("fault plan seed not part of the spec key")
	}

	s := New(Options{Workers: 2})
	cold := s.Run(nil, []Spec{base, lightSpec, heavySpec})
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses != 3 || cold.Cache.Hits != 0 {
		t.Fatalf("cold batch: %d misses %d hits, want 3/0 (distinct addresses)",
			cold.Cache.Misses, cold.Cache.Hits)
	}
	if cold.Runs[0].Result.Makespan == cold.Runs[2].Result.Makespan {
		t.Error("heavy faults left the makespan unchanged; injection inert")
	}
	if !cold.Runs[1].Result.Faults.Injected || !cold.Runs[2].Result.Faults.Any() {
		t.Errorf("fault stats missing from pooled results: %+v, %+v",
			cold.Runs[1].Result.Faults, cold.Runs[2].Result.Faults)
	}

	warm := s.Run(nil, []Spec{lightSpec})
	if !warm.Runs[0].CacheHit {
		t.Fatal("warm faulted spec missed the cache")
	}
	if warm.Runs[0].Result != cold.Runs[1].Result {
		t.Fatal("warm hit returned a different Result value than the memoized compute")
	}
}

// cancelOnComplete cancels a context the moment any pooled compute
// paints its first cell — a deterministic way to land a cancellation
// mid-batch, with other specs still queued behind the worker bound.
type cancelOnComplete struct {
	sim.BaseProbe
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnComplete) Complete(pi int, task workplan.Task, at time.Duration) {
	c.once.Do(c.cancel)
}

// TestSweepMidBatchCancellation cancels a batch while the first compute
// is mid-run and the rest are queued: every affected run must fail with
// ErrCanceled, canceled computes must be evicted rather than memoized,
// and the pool must drain to zero occupancy. A fresh batch on the same
// Sweeper then recomputes everything successfully.
func TestSweepMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &cancelOnComplete{cancel: cancel}

	// One worker, several distinct big specs: the first run is guaranteed
	// to be in flight when the probe cancels, the rest still queued.
	s := New(Options{Workers: 1, Probes: []sim.Probe{probe}})
	var specs []Spec
	for seed := uint64(0); seed < 4; seed++ {
		specs = append(specs, Spec{Flag: "mauritius", Scenario: core.S1,
			Kind: implement.ThickMarker, W: 400, H: 260, Seed: 20 + seed})
	}
	batch := s.Run(ctx, specs)

	canceled := 0
	for i, run := range batch.Runs {
		if run.Err == nil {
			t.Fatalf("run %d survived a cancellation that fired on its pool's first painted cell", i)
		}
		if !errors.Is(run.Err, sim.ErrCanceled) {
			t.Fatalf("run %d failed with %v, want ErrCanceled", i, run.Err)
		}
		canceled++
	}
	if canceled != len(specs) {
		t.Fatalf("%d of %d runs canceled", canceled, len(specs))
	}
	st := s.Stats()
	if st.Entries != 0 {
		t.Errorf("canceled batch left %d cache entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("mid-compute cancellation evicted nothing")
	}
	if running, queued := s.PoolDepth(); running != 0 || queued != 0 {
		t.Errorf("drained pool reports running=%d queued=%d", running, queued)
	}

	// The same Sweeper, a live context: everything recomputes cleanly.
	retry := s.Run(context.Background(), specs)
	if err := retry.Err(); err != nil {
		t.Fatalf("retry after mid-batch cancel failed: %v", err)
	}
	for i, run := range retry.Runs {
		if run.CacheHit {
			t.Errorf("retry run %d was served from cache — canceled entry survived", i)
		}
	}
	if running, queued := s.PoolDepth(); running != 0 || queued != 0 {
		t.Errorf("pool did not drain after retry: running=%d queued=%d", running, queued)
	}
}

// countingObserver records every Result the pool hands its Observer.
type countingObserver struct {
	mu   sync.Mutex
	seen []*sim.Result
}

func (o *countingObserver) ObserveResult(res *sim.Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, res)
}

// TestObserverSeesComputesOnly: the Observer gets each successful
// compute exactly once, on the fast path, and never a within-batch
// duplicate, a memo hit, a failed compute or a canceled one.
func TestObserverSeesComputesOnly(t *testing.T) {
	obs := &countingObserver{}
	s := New(Options{Workers: 2, Observer: obs, Encode: testEncode})
	specs := testGrid()[:6]
	batch := s.Run(nil, append(append([]Spec(nil), specs...), specs...))
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if len(obs.seen) != len(specs) {
		t.Fatalf("observer saw %d results for %d computes", len(obs.seen), len(specs))
	}
	for _, res := range obs.seen {
		if res.Counts.Instrumented {
			t.Error("a probe-free pooled compute took the instrumented opcodes")
		}
	}
	// Memo hits, then a failed compute.
	s.Run(nil, specs)
	if b := s.Run(nil, []Spec{{Flag: "mauritius", Scenario: 99}}); b.Err() == nil {
		t.Fatal("a spec with an unknown scenario computed")
	}
	if len(obs.seen) != len(specs) {
		t.Fatalf("hits or a failed compute reached the observer: %d results", len(obs.seen))
	}

	// A compute canceled mid-run publishes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s = New(Options{Workers: 1, Observer: obs, Probes: []sim.Probe{&cancelOnComplete{cancel: cancel}}})
	big := Spec{Flag: "mauritius", Scenario: core.S1, Kind: implement.ThickMarker, W: 400, H: 260, Seed: 20}
	if err := s.Run(ctx, []Spec{big}).Runs[0].Err; !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("canceled compute: err = %v", err)
	}
	if len(obs.seen) != len(specs) {
		t.Fatalf("a canceled compute reached the observer: %d results", len(obs.seen))
	}
}
