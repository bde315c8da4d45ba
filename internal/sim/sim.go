// Package sim executes a workplan on a team of processors sharing a set of
// drawing implements, under a deterministic discrete-event kernel.
//
// The model matches the physical activity:
//
//   - a processor works through its ordered task list;
//   - before painting a cell it must hold an implement of the cell's
//     color; implements are exclusive, and requests queue FIFO per color
//     (students hand a marker to whoever asked first);
//   - acquiring costs pickup time, switching implements costs put-down
//     time, and crayons occasionally break and cost a repair delay;
//   - a cell whose layer has unmet dependencies (the Painter's-algorithm
//     layers of §III-D) blocks until every prerequisite layer is fully
//     painted, team-wide;
//   - a run starts with a serial setup phase (the instructor explaining
//     the scenario and the team organizing) — the Amdahl serial fraction
//     of the activity.
//
// Every run is exactly reproducible: FIFO queues, deterministic event
// tie-breaking, and seeded randomness.
//
// All executors share one engine (see engine.go); they differ only in
// the TaskSource policy that selects each processor's next cell. Run uses
// planSource (a fixed per-processor plan), RunDynamic uses bagSource (a
// shared work bag), and RunSteal uses stealSource (fixed plans plus work
// stealing).
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/processor"
	"flagsim/internal/workplan"
)

// ErrCanceled is the sentinel wrapped into the error the ctx-taking
// executors (RunCtx, RunStealCtx, RunDynamicCtx) return when the run's
// context is canceled mid-simulation: the engine stops at the next
// cancellation checkpoint instead of simulating to the end. Test for it
// with errors.Is.
var ErrCanceled = errors.New("sim: run canceled")

// HoldPolicy controls when a processor releases its implement.
type HoldPolicy uint8

const (
	// GreedyHold keeps the implement until a different color is needed —
	// how students actually behave, and the default.
	GreedyHold HoldPolicy = iota
	// EagerRelease puts the implement down after every cell, maximizing
	// availability at the cost of constant pickup overhead. The ablation
	// shows when politeness hurts.
	EagerRelease
)

// String names the policy.
func (h HoldPolicy) String() string {
	switch h {
	case GreedyHold:
		return "greedy-hold"
	case EagerRelease:
		return "eager-release"
	default:
		return fmt.Sprintf("hold-policy(%d)", uint8(h))
	}
}

// SpanKind classifies trace spans for Gantt rendering.
type SpanKind uint8

// Trace span kinds.
const (
	SpanPaint SpanKind = iota
	SpanWaitImplement
	SpanWaitLayer
	SpanPickup
	SpanPutDown
	SpanRepair
	SpanSetup
	// SpanStall is a fault-injected stall window (Config.Faults); the
	// processor does nothing for the span's duration.
	SpanStall

	// NumSpanKinds is the size of a table indexed by SpanKind.
	NumSpanKinds = int(SpanStall) + 1
)

// String names the span kind.
func (k SpanKind) String() string {
	switch k {
	case SpanPaint:
		return "paint"
	case SpanWaitImplement:
		return "wait-implement"
	case SpanWaitLayer:
		return "wait-layer"
	case SpanPickup:
		return "pickup"
	case SpanPutDown:
		return "putdown"
	case SpanRepair:
		return "repair"
	case SpanSetup:
		return "setup"
	case SpanStall:
		return "stall"
	default:
		return fmt.Sprintf("span(%d)", uint8(k))
	}
}

// Span is one interval of a processor's timeline.
type Span struct {
	Proc  int
	Kind  SpanKind
	Start time.Duration
	End   time.Duration
	Color palette.Color // for paint/wait/pickup spans
	Cell  geom.Pt       // for paint spans
}

// ProcStats summarizes one processor's run.
type ProcStats struct {
	Name          string
	Cells         int
	Finish        time.Duration
	FirstPaint    time.Duration // pipeline-fill measurement: when the first cell started
	PaintTime     time.Duration // includes movement
	WaitImplement time.Duration
	WaitLayer     time.Duration
	Overhead      time.Duration // pickup + putdown + repair
}

// ImplementStats summarizes one implement's run.
type ImplementStats struct {
	ID        int
	Color     palette.Color
	Kind      implement.Kind
	BusyTime  time.Duration
	Handoffs  int // acquisitions after the first
	MaxQueue  int
	Breakages int
}

// Result is the outcome of a simulation run.
type Result struct {
	Plan       *workplan.Plan
	Makespan   time.Duration
	SetupTime  time.Duration
	Procs      []ProcStats
	Implements []ImplementStats
	Breaks     int
	Grid       *grid.Grid
	Trace      []Span // nil unless Config.Trace
	Events     uint64
	// MaxEventQueue is the kernel's high-water event-queue depth — a
	// capacity-planning counter for large simulations.
	MaxEventQueue int
	// Steals counts work-stealing migrations (RunSteal only).
	Steals int
	// Migrated counts cells painted by a processor other than the one the
	// starting plan assigned (RunSteal only) — the cell-level footprint of
	// the Steals operations, each of which moves a batch of cells.
	Migrated int
	// Faults tallies what the run's fault injector did; the zero value
	// (Injected false) means no injector was installed.
	Faults FaultStats
	// Counts tallies the run's engine events in the Probe vocabulary.
	Counts Counts
}

// Counts is the engine's own tally of one run, kept on both opcode
// families: with the rest of the Result it holds what an installed
// Probe would have been called with, so a publisher can report a whole
// run from its Result without putting the run on the instrumented
// path. What other Result fields already determine is not repeated:
// cells painted are the sum of Procs[i].Cells, and SpanCounts derives
// the setup and stall spans. The tally is kept small because the sweep
// memo holds a Result per computed spec.
type Counts struct {
	// Grants counts implement acquisitions, handoffs included
	// (Probe.Grant); Releases counts put-backs (Probe.Release).
	Grants, Releases uint32
	// Retired counts processors that ran out of work (Probe.ProcDone).
	Retired uint32
	// LayerBlocks counts parks on a layer dependency; ImplementBlocks[c]
	// counts joins of color c's implement queue (Probe.Block).
	LayerBlocks     uint32
	ImplementBlocks [palette.NColors]uint32
	// The span counts are the spans of each kind an observed run
	// materializes (Probe.Span): one paint span per cell attempt,
	// pickup, put-down and wait spans only when they last longer than
	// zero, and one repair span per break that costs time.
	PaintSpans, WaitImplementSpans, WaitLayerSpans uint32
	PickupSpans, PutDownSpans, RepairSpans         uint32
	// Instrumented reports that the run took the hook-bearing opcodes
	// because it was traced, probed or fault-injected.
	Instrumented bool
}

// SpanCounts returns, by kind, the spans the run materialized, or
// would have had it been observed: the engine's tally plus one setup
// span per processor when the run had a setup phase and one stall span
// per fault-injected stall.
func (r *Result) SpanCounts() [NumSpanKinds]uint32 {
	c := &r.Counts
	var n [NumSpanKinds]uint32
	n[SpanPaint] = c.PaintSpans
	n[SpanWaitImplement] = c.WaitImplementSpans
	n[SpanWaitLayer] = c.WaitLayerSpans
	n[SpanPickup] = c.PickupSpans
	n[SpanPutDown] = c.PutDownSpans
	n[SpanRepair] = c.RepairSpans
	if r.SetupTime > 0 {
		n[SpanSetup] = uint32(len(r.Procs))
	}
	n[SpanStall] = uint32(r.Faults.Stalls)
	return n
}

// TotalWaitImplement sums implement-contention wait across processors —
// the paper's contention lesson in one number.
func (r *Result) TotalWaitImplement() time.Duration {
	var t time.Duration
	for _, p := range r.Procs {
		t += p.WaitImplement
	}
	return t
}

// TotalWaitLayer sums dependency-stall time across processors.
func (r *Result) TotalWaitLayer() time.Duration {
	var t time.Duration
	for _, p := range r.Procs {
		t += p.WaitLayer
	}
	return t
}

// PipelineFill returns the latest first-paint time across processors: how
// long it took for work to reach every stage of the pipeline (§III-C:
// "the processors are idle until they get the first implement").
func (r *Result) PipelineFill() time.Duration {
	var fill time.Duration
	for _, p := range r.Procs {
		if p.Cells > 0 && p.FirstPaint > fill {
			fill = p.FirstPaint
		}
	}
	return fill
}

// Verify checks the run's final grid against the flag's reference raster.
func (r *Result) Verify(f *flagspec.Flag) error {
	return r.verify(grid.Rasterize(f, r.Plan.W, r.Plan.H))
}

// VerifyGeometry is Verify against g's reference grid, which must be the
// run's flag at the run's size: the same check and the same errors
// without rasterizing the flag again.
func (r *Result) VerifyGeometry(g *workplan.Geometry) error {
	return r.verify(g.Reference())
}

func (r *Result) verify(want *grid.Grid, err error) error {
	if err != nil {
		return err
	}
	if !r.Grid.Equal(want) {
		diff, _ := r.Grid.Diff(want)
		return fmt.Errorf("sim: run of %q left %d cells wrong", r.Plan.Strategy, len(diff))
	}
	return nil
}

// Config describes one simulation run.
type Config struct {
	Plan  *workplan.Plan
	Procs []*processor.Processor
	Set   *implement.Set
	// Hold selects the implement retention policy; default GreedyHold.
	Hold HoldPolicy
	// Setup is the serial phase before any processor starts (scenario
	// explanation + team organization). It is the run's inherent serial
	// fraction.
	Setup time.Duration
	// Trace records per-span timelines (memory-proportional to tasks).
	Trace bool
	// Probes observe engine events (grants, releases, blocks, completed
	// cells, spans) without the engine knowing about them.
	Probes []Probe
	// Faults, when non-nil, injects deterministic faults (stalls,
	// degraded cells, forced breakages, delayed handoffs, repaints) into
	// the run; see FaultInjector. nil keeps the unchecked hot path.
	Faults FaultInjector
	// Arena, when non-nil, runs through the caller-owned arena: all
	// per-run state is recycled and the returned Result aliases arena
	// memory valid only until the arena's next run. nil draws scratch
	// from an internal pool and returns an independent Result. See
	// arena.go for the full contract.
	Arena *Arena
}

// planSource is the static scheduling policy: every processor works
// through its fixed ordered task list (scenarios 1–4). Blocked processors
// park per prerequisite layer and wake when that layer completes.
type planSource struct {
	plan *workplan.Plan
	// next[pi] indexes the processor's current task.
	next []int
	// layerWaiters holds processors parked on a layer's completion.
	layerWaiters [][]int
}

// Select implements TaskSource: the next task of pi's plan, a layer wait,
// or done when the plan is exhausted.
func (s *planSource) Select(e *Engine, pi int) Selection {
	tasks := s.plan.PerProc[pi]
	if s.next[pi] == len(tasks) {
		return Selection{Kind: SelectDone}
	}
	task := tasks[s.next[pi]]
	if dep, blocked := e.LayerBlocked(task.Layer); blocked {
		return Selection{Kind: SelectWait, Layer: dep}
	}
	return Selection{Kind: SelectTask, Task: task}
}

// Requeue implements TaskSource. Static plans only consume a task when it
// is painted, so there is nothing to hand back.
func (s *planSource) Requeue(*Engine, int, workplan.Task) {}

// Park implements TaskSource: pi waits on the blocking layer.
func (s *planSource) Park(_ *Engine, pi int, sel Selection) {
	s.layerWaiters[sel.Layer] = append(s.layerWaiters[sel.Layer], pi)
}

// CellDone implements TaskSource: consume the task and wake processors
// parked on the layer once it completes.
func (s *planSource) CellDone(e *Engine, pi int, task workplan.Task) {
	s.next[pi]++
	if e.LayerRemaining(task.Layer) > 0 {
		return
	}
	// Reslice to zero rather than nil so the waiter buffer is reused by
	// the arena. Safe against the wakes below: a completed layer can
	// never block anyone again, so nothing appends to this backing while
	// (or after) we iterate the old header.
	waiters := s.layerWaiters[task.Layer]
	s.layerWaiters[task.Layer] = waiters[:0]
	for _, w := range waiters {
		e.Wake(w)
	}
}

// batchLen reports how many tasks, starting at processor pi's current
// plan position (whose task is first, already selected and color-matched
// to the held implement), may be painted as one fast-path batch. The
// batch extends while tasks keep the same color, their layers are
// unblocked at this instant (dependencies only ever complete, so
// unblocked-now stays unblocked), and no touched layer is a prerequisite
// of another layer — a non-dep layer is never parked on and its
// remaining count is never read across processors, so collapsing its
// per-cell completions into one event is unobservable.
func (s *planSource) batchLen(e *Engine, pi int, first workplan.Task) int {
	if e.layerIsDep[first.Layer] {
		return 1
	}
	tasks := s.plan.PerProc[pi]
	i := s.next[pi]
	k := 1
	for i+k < len(tasks) {
		t := tasks[i+k]
		if t.Color != first.Color || e.layerIsDep[t.Layer] {
			break
		}
		if _, blocked := e.LayerBlocked(t.Layer); blocked {
			break
		}
		k++
	}
	return k
}

// HasMore implements TaskSource.
func (s *planSource) HasMore(_ *Engine, pi int) bool {
	return s.next[pi] < len(s.plan.PerProc[pi])
}

// CheckComplete implements TaskSource.
func (s *planSource) CheckComplete(*Engine) error {
	for i, tasks := range s.plan.PerProc {
		if s.next[i] != len(tasks) {
			return fmt.Errorf("sim: deadlock: processor %d stopped at task %d of %d",
				i, s.next[i], len(tasks))
		}
	}
	return nil
}

// Run executes the configuration to completion and returns the result.
func Run(cfg Config) (*Result, error) { return RunCtx(nil, cfg) }

// RunCtx is Run with a cancellation context: when ctx is canceled the
// engine aborts at the next checkpoint and returns an error wrapping
// ErrCanceled. A nil ctx runs unchecked (identical to Run).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	a, pooled := acquireArena(cfg.Arena)
	if pooled {
		defer arenaPool.Put(a)
	}
	if err := a.validateStatic(&cfg); err != nil {
		return nil, err
	}
	e := a.bind(engineConfig{
		ctx:            ctx,
		source:         a.planSourceFor(cfg.Plan),
		procs:          cfg.Procs,
		set:            cfg.Set,
		hold:           cfg.Hold,
		setup:          cfg.Setup,
		trace:          cfg.Trace,
		probes:         cfg.Probes,
		faults:         cfg.Faults,
		w:              cfg.Plan.W,
		h:              cfg.Plan.H,
		layerDeps:      cfg.Plan.LayerDeps,
		layerCellCount: cfg.Plan.LayerCellCount,
	})
	makespan, err := e.run()
	if err != nil {
		return nil, err
	}
	res := a.buildResult(e, cfg.Plan, makespan)
	e.notifyResult(res)
	return res, nil
}
