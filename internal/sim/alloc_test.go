package sim

// Allocation-flatness and specialized-path tests for the zero-alloc
// engine core. These pin the two properties the arena refactor bought:
//
//   - a warm-arena run of any executor performs zero heap allocations
//     (the property benchguard gates in CI; this test is the local,
//     benchmark-independent version), and
//   - hook specialization is decided per run, not per arena: installing
//     a probe selects the instrumented opcode bodies for that run only,
//     and the next hook-free run on the same arena is back on the fast
//     path with byte-identical results.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/processor"
	"flagsim/internal/workplan"
)

// allocSnapshot deep-copies the comparable surface of a Result, because
// arena-run Results alias arena memory that the next run overwrites.
type allocSnapshot struct {
	makespan, setup any
	events          uint64
	breaks          int
	grid            string
	procs           []ProcStats
	impls           []ImplementStats
	trace           []Span
	maxQueue        int
	steals          int
	migrated        int
	strategy        string
	plan            [][]workplan.Task
	// counts is Result.Counts without Instrumented, which tells the two
	// opcode families apart by design.
	counts Counts
}

func snapshotResult(r *Result) allocSnapshot {
	s := allocSnapshot{
		makespan: r.Makespan,
		setup:    r.SetupTime,
		events:   r.Events,
		breaks:   r.Breaks,
		grid:     r.Grid.String(),
		procs:    append([]ProcStats(nil), r.Procs...),
		impls:    append([]ImplementStats(nil), r.Implements...),
		trace:    append([]Span(nil), r.Trace...),
		maxQueue: r.MaxEventQueue,
		steals:   r.Steals,
		migrated: r.Migrated,
		strategy: r.Plan.Strategy,
		counts:   r.Counts,
	}
	s.counts.Instrumented = false
	for _, tasks := range r.Plan.PerProc {
		s.plan = append(s.plan, append([]workplan.Task(nil), tasks...))
	}
	return s
}

func (s allocSnapshot) equal(o allocSnapshot) bool {
	if s.makespan != o.makespan || s.setup != o.setup || s.events != o.events ||
		s.breaks != o.breaks || s.grid != o.grid ||
		s.maxQueue != o.maxQueue || s.steals != o.steals || s.migrated != o.migrated ||
		s.strategy != o.strategy || s.counts != o.counts || !reflect.DeepEqual(s.plan, o.plan) ||
		len(s.procs) != len(o.procs) || len(s.impls) != len(o.impls) || len(s.trace) != len(o.trace) {
		return false
	}
	for i := range s.procs {
		if s.procs[i] != o.procs[i] {
			return false
		}
	}
	for i := range s.impls {
		if s.impls[i] != o.impls[i] {
			return false
		}
	}
	for i := range s.trace {
		if s.trace[i] != o.trace[i] {
			return false
		}
	}
	return true
}

func allocSet() *implement.Set {
	return implement.NewSet(implement.ThickMarker, flagspec.Mauritius.Colors())
}

// TestWarmArenaRunsAllocationFree is the zero-alloc invariant for all
// three executors: after one warm-up run that grows every arena buffer
// to the workload's size, further runs on the same arena must not touch
// the heap at all.
func TestWarmArenaRunsAllocationFree(t *testing.T) {
	f := flagspec.Mauritius
	plan := mauritiusPlan(t, 5)
	executors := []struct {
		name string
		run  func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error)
	}{
		{"static", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return Run(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
		}},
		{"dynamic", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return RunDynamic(DynamicConfig{
				Flag: f, W: f.DefaultW, H: f.DefaultH,
				Procs: procs, Set: set,
				Policy: PullColorAffinity, Arena: arena,
			})
		}},
		{"steal", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return RunSteal(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
		}},
	}
	for _, ex := range executors {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			// Team, set, and arena are built once outside the measured
			// closure: the run itself must be allocation-free, not team
			// construction.
			procs := dynTeam(t, 1.3, 1.0, 1.0, 0.5)
			set := allocSet()
			arena := NewArena()
			run := func() {
				if _, err := ex.run(procs, set, arena); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena buffers
			if got := testing.AllocsPerRun(5, run); got != 0 {
				t.Errorf("%s: warm-arena run allocates %.1f allocs/run, want 0", ex.name, got)
			}
		})
	}
}

// nopProbe is an observer that does nothing — installing it still flips
// the engine onto the instrumented opcode bodies, so it isolates the
// fast/instrumented split from any probe side effects.
type nopProbe struct{}

func (nopProbe) Grant(int, *implement.Implement, time.Duration)    {}
func (nopProbe) Release(int, *implement.Implement, time.Duration)  {}
func (nopProbe) Block(int, SpanKind, palette.Color, time.Duration) {}
func (nopProbe) Complete(int, workplan.Task, time.Duration)        {}
func (nopProbe) ProcDone(int, time.Duration)                       {}
func (nopProbe) Span(Span)                                         {}

// TestProbeRemovalRestoresFastPath is the specialization regression
// test: the fast/instrumented choice is made at run entry from that
// run's config, so an arena that just ran instrumented must drop back
// to the fast path — and to fast-path results — the moment the probe is
// gone.
func TestProbeRemovalRestoresFastPath(t *testing.T) {
	plan := mauritiusPlan(t, 5)
	// No Trace here: tracing is itself observation and legitimately
	// selects the instrumented path, which would mask the property under
	// test.
	cfg := func(arena *Arena, probes []Probe) Config {
		return Config{
			Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(),
			Probes: probes, Arena: arena,
		}
	}
	arena := NewArena()

	bare, err := Run(cfg(arena, nil))
	if err != nil {
		t.Fatal(err)
	}
	if arena.e.instrumented {
		t.Fatal("hook-free run selected the instrumented path")
	}
	want := snapshotResult(bare)

	if _, err := Run(cfg(arena, []Probe{nopProbe{}})); err != nil {
		t.Fatal(err)
	}
	if !arena.e.instrumented {
		t.Fatal("probed run did not select the instrumented path")
	}

	after, err := Run(cfg(arena, nil))
	if err != nil {
		t.Fatal(err)
	}
	if arena.e.instrumented {
		t.Error("removing the probe did not restore the fast path on the reused arena")
	}
	if got := snapshotResult(after); !got.equal(want) {
		t.Errorf("fast-path run after probe removal diverged from the pre-probe run:\nbefore: makespan %v events %d grid %s\nafter:  makespan %v events %d grid %s",
			want.makespan, want.events, want.grid[:min(40, len(want.grid))],
			got.makespan, got.events, got.grid[:min(40, len(got.grid))])
	}
}

// tallyProbe adds up a run's probe callbacks, so a test can hold the
// engine's own tally against what a probe sees. counts holds the
// grants, releases, retirements and blocks; spans and cells the rest.
type tallyProbe struct {
	counts Counts
	spans  [NumSpanKinds]uint32
	cells  int
}

func (p *tallyProbe) Grant(int, *implement.Implement, time.Duration)   { p.counts.Grants++ }
func (p *tallyProbe) Release(int, *implement.Implement, time.Duration) { p.counts.Releases++ }
func (p *tallyProbe) Block(_ int, kind SpanKind, c palette.Color, _ time.Duration) {
	if kind == SpanWaitLayer {
		p.counts.LayerBlocks++
	} else {
		p.counts.ImplementBlocks[c]++
	}
}
func (p *tallyProbe) Complete(int, workplan.Task, time.Duration) { p.cells++ }
func (p *tallyProbe) ProcDone(int, time.Duration)                { p.counts.Retired++ }
func (p *tallyProbe) Span(sp Span)                               { p.spans[sp.Kind]++ }

// scenarioPlan builds scenario 1–4's decomposition of f at its default
// size, the plans the scenarios of the activity use.
func scenarioPlan(t *testing.T, f *flagspec.Flag, scenario int) *workplan.Plan {
	t.Helper()
	w, h := f.DefaultW, f.DefaultH
	var plan *workplan.Plan
	var err error
	switch scenario {
	case 1:
		plan, err = workplan.Sequential(f, w, h)
	case 2:
		plan, err = workplan.LayerBlocks(f, w, h, 2)
	case 3:
		plan, err = workplan.LayerBlocks(f, w, h, min(4, len(f.Layers)))
	case 4:
		plan, err = workplan.VerticalSlices(f, w, h, 4, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFastInstrumentedParity pins the specialization's core promise over
// a corpus: every builtin flag under the static, steal and dynamic
// executors, scenarios 1–4, both hold policies, setup 0 and 20 s, marker
// and crayon sets. Each configuration runs on the fast opcodes
// (untraced, probe-free) and on the instrumented ones (a tallyProbe
// installed), and the two must agree on every non-trace field: makespan,
// events, breaks, grid, per-processor and per-implement statistics,
// queue high-water, steals, migrated cells, the executed plan and the
// event tally. The probe's own callbacks must rebuild the same tally.
func TestFastInstrumentedParity(t *testing.T) {
	type execRun func(f *flagspec.Flag, plan *workplan.Plan, procs []*processor.Processor, set *implement.Set,
		hold HoldPolicy, setup time.Duration, probes []Probe, arena *Arena) (*Result, error)
	static := func(f *flagspec.Flag, plan *workplan.Plan, procs []*processor.Processor, set *implement.Set,
		hold HoldPolicy, setup time.Duration, probes []Probe, arena *Arena) (*Result, error) {
		return Run(Config{Plan: plan, Procs: procs, Set: set, Hold: hold, Setup: setup, Probes: probes, Arena: arena})
	}
	steal := func(f *flagspec.Flag, plan *workplan.Plan, procs []*processor.Processor, set *implement.Set,
		hold HoldPolicy, setup time.Duration, probes []Probe, arena *Arena) (*Result, error) {
		return RunSteal(Config{Plan: plan, Procs: procs, Set: set, Hold: hold, Setup: setup, Probes: probes, Arena: arena})
	}
	dynamic := func(policy PullPolicy) execRun {
		return func(f *flagspec.Flag, plan *workplan.Plan, procs []*processor.Processor, set *implement.Set,
			hold HoldPolicy, setup time.Duration, probes []Probe, arena *Arena) (*Result, error) {
			return RunDynamic(DynamicConfig{Flag: f, W: plan.W, H: plan.H, Procs: procs, Set: set,
				Policy: policy, Setup: setup, Probes: probes, Arena: arena})
		}
	}
	// The dynamic executor has no hold policy: it always holds greedily.
	// It runs under both pull policies instead.
	executors := []struct {
		name  string
		runs  []execRun
		holds []HoldPolicy
	}{
		{"static", []execRun{static}, []HoldPolicy{GreedyHold, EagerRelease}},
		{"steal", []execRun{steal}, []HoldPolicy{GreedyHold, EagerRelease}},
		{"dynamic", []execRun{dynamic(PullOrdered), dynamic(PullColorAffinity)}, []HoldPolicy{GreedyHold}},
	}
	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			fast, inst := NewArena(), NewArena()
			runs := 0
			for _, f := range flagspec.All() {
				for scenario := 1; scenario <= 4; scenario++ {
					plan := scenarioPlan(t, f, scenario)
					for _, kind := range []implement.Kind{implement.ThickMarker, implement.Crayon} {
						set := implement.NewSet(kind, f.Colors())
						for v, run := range ex.runs {
							for _, hold := range ex.holds {
								for _, setup := range []time.Duration{0, 20 * time.Second} {
									name := fmt.Sprintf("%s/%s/S%d/%s/%s/setup=%v/variant=%d",
										ex.name, f.Name, scenario, kind, hold, setup, v)
									res, err := run(f, plan, newWarmTeam(t, plan.NumProcs()), set, hold, setup, nil, fast)
									if err != nil {
										t.Fatalf("%s: fast run: %v", name, err)
									}
									if fast.e.instrumented || res.Counts.Instrumented {
										t.Fatalf("%s: an untraced, probe-free run selected the instrumented opcodes", name)
									}
									want := snapshotResult(res)
									probe := &tallyProbe{}
									res, err = run(f, plan, newWarmTeam(t, plan.NumProcs()), set, hold, setup, []Probe{probe}, inst)
									if err != nil {
										t.Fatalf("%s: instrumented run: %v", name, err)
									}
									if !inst.e.instrumented || !res.Counts.Instrumented {
										t.Fatalf("%s: a probed run kept the fast opcodes", name)
									}
									if got := snapshotResult(res); !got.equal(want) {
										t.Errorf("%s: instrumented run diverged from fast run (makespan %v vs %v, events %d vs %d, counts %+v vs %+v)",
											name, got.makespan, want.makespan, got.events, want.events, got.counts, want.counts)
									}
									cells := 0
									for _, p := range res.Procs {
										cells += p.Cells
									}
									events := want.counts
									events.PaintSpans, events.WaitImplementSpans, events.WaitLayerSpans = 0, 0, 0
									events.PickupSpans, events.PutDownSpans, events.RepairSpans = 0, 0, 0
									if probe.counts != events || probe.spans != res.SpanCounts() || probe.cells != cells {
										t.Errorf("%s: probe callbacks add up to %+v, spans %v and %d cells; the result holds %+v, spans %v and %d cells",
											name, probe.counts, probe.spans, probe.cells, events, res.SpanCounts(), cells)
									}
									runs++
								}
							}
						}
					}
				}
			}
			if runs == 0 {
				t.Fatal("empty corpus")
			}
		})
	}
}

// TestPooledVsOwnedArenaParity: a run through the shared pool and a run
// through a caller-owned arena are the same simulation — only the memory
// lifetime differs.
func TestPooledVsOwnedArenaParity(t *testing.T) {
	plan := mauritiusPlan(t, 5)
	run := func(arena *Arena) allocSnapshot {
		t.Helper()
		res, err := Run(Config{
			Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(),
			Trace: true, Arena: arena,
		})
		if err != nil {
			t.Fatal(err)
		}
		return snapshotResult(res)
	}
	pooled := run(nil)
	owned := run(NewArena())
	if !owned.equal(pooled) {
		t.Errorf("owned-arena run diverged from pooled run (makespan %v vs %v, events %d vs %d)",
			owned.makespan, pooled.makespan, owned.events, pooled.events)
	}
}

// wrappedSource hides the static plan policy behind a type the engine
// does not know, so every source callback takes the external-TaskSource
// path.
type wrappedSource struct{ TaskSource }

// TestExternalSourceMatchesStatic runs the static policy as an external
// TaskSource on both opcode families, under both hold policies so
// Requeue, Park and HasMore are all reached through the interface, and
// requires the plain static run's result.
func TestExternalSourceMatchesStatic(t *testing.T) {
	runWrapped := func(cfg Config) (*Result, error) {
		a := NewArena()
		if err := a.validateStatic(&cfg); err != nil {
			return nil, err
		}
		e := a.bind(engineConfig{
			source: wrappedSource{a.planSourceFor(cfg.Plan)},
			procs:  cfg.Procs, set: cfg.Set, hold: cfg.Hold, setup: cfg.Setup, probes: cfg.Probes,
			w: cfg.Plan.W, h: cfg.Plan.H,
			layerDeps: cfg.Plan.LayerDeps, layerCellCount: cfg.Plan.LayerCellCount,
		})
		if e.plansrc != nil {
			t.Fatal("the wrapped source was devirtualized")
		}
		makespan, err := e.run()
		if err != nil {
			return nil, err
		}
		return a.buildResult(e, cfg.Plan, makespan), nil
	}
	for _, f := range []*flagspec.Flag{flagspec.Mauritius, flagspec.GreatBritain} {
		for scenario := 1; scenario <= 4; scenario++ {
			plan := scenarioPlan(t, f, scenario)
			for _, hold := range []HoldPolicy{GreedyHold, EagerRelease} {
				for _, probes := range [][]Probe{nil, {nopProbe{}}} {
					name := fmt.Sprintf("%s/S%d/%s/probes=%d", f.Name, scenario, hold, len(probes))
					cfg := func() Config {
						return Config{Plan: plan, Procs: newWarmTeam(t, plan.NumProcs()),
							Set: implement.NewSet(implement.ThickMarker, f.Colors()), Hold: hold, Probes: probes}
					}
					want, err := Run(cfg())
					if err != nil {
						t.Fatal(err)
					}
					got, err := runWrapped(cfg())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !snapshotResult(got).equal(snapshotResult(want)) {
						t.Errorf("%s: the external-source run diverged from the static run (makespan %v vs %v)",
							name, got.Makespan, want.Makespan)
					}
				}
			}
		}
	}
}
