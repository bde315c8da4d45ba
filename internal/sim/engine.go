package sim

// The unified simulation engine. One deterministic event core executes
// every policy: the engine owns the kernel, the grid, the implement pools
// with their FIFO ticket queues, the layer dependency counters, the
// per-processor timing model, and trace emission. What used to be two
// parallel executors (the static per-plan one and the dynamic shared-bag
// one) is now a single state machine parameterized by a TaskSource — the
// pluggable scheduling policy that decides what each processor does next.
//
// The split of responsibilities:
//
//   - Engine: resource mechanics (grant/release/pickup/put-down), paint
//     execution and statistics, layer counters, span emission, probes.
//   - TaskSource: task selection, claim bookkeeping, parking and waking
//     of blocked processors, completion checks.
//
// Three sources ship with the package: planSource (static per-processor
// plans, scenarios 1–4), bagSource (shared work bag, self-scheduling),
// and stealSource (static plans plus work stealing by idle processors).
//
// Memory and dispatch layout (see DESIGN.md §3f): all per-run state is
// flat and index-addressed — processors and implements are value slices,
// per-color implement pools and FIFO ticket queues are fixed-size arrays
// indexed by palette.Color, and every continuation is an op-coded kernel
// event (an opcode plus a processor index) instead of a heap-allocated
// closure. The state lives in a run arena (arena.go) recycled across
// runs, which is what makes a warm run allocation-free. The event loop
// is specialized once at run entry: a run with no probes, no tracing,
// and no fault injector executes the fast opcode variants, whose bodies
// contain no hook sites at all; any hook installs the instrumented
// variants, which are line-for-line the hook-bearing equivalents. The
// fast path additionally batches contiguous same-color plan spans into
// a single completion event where no other processor could observe the
// intermediate state. Both families keep the run's event tally
// (Result.Counts), so a publisher reads a fast run's grants, blocks and
// spans from its Result instead of installing a probe.

import (
	"context"
	"fmt"
	"time"

	"flagsim/internal/devent"
	"flagsim/internal/grid"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/processor"
	"flagsim/internal/workplan"
)

// SelectKind classifies a TaskSource decision.
type SelectKind uint8

// TaskSource decisions.
const (
	// SelectTask hands the engine a task to execute. The engine either
	// paints it (right implement in hand) or returns it via Requeue and
	// first switches or acquires implements.
	SelectTask SelectKind = iota
	// SelectWait parks the processor until the source wakes it (a layer
	// dependency or an empty-but-unfinished work pool).
	SelectWait
	// SelectDone retires the processor: no more work will ever arrive.
	SelectDone
)

// Selection is a TaskSource's decision for one processor at one instant.
type Selection struct {
	Kind SelectKind
	// Task is the selected work when Kind == SelectTask.
	Task workplan.Task
	// Layer is the blocking layer when Kind == SelectWait and the wait is
	// a layer dependency (planSource and stealSource park per layer;
	// bagSource parks globally and leaves it zero).
	Layer int
}

// TaskSource is the pluggable scheduling policy of the engine. Sources
// may inspect engine state through the exported accessors (Now, Holding,
// LayerBlocked, LayerRemaining, HasFreeImplement) and must wake parked
// processors with Wake.
type TaskSource interface {
	// Select decides what processor pi does next at the current virtual
	// time. A returned task is claimed: the engine paints it or hands it
	// back via Requeue before switching implements.
	Select(e *Engine, pi int) Selection
	// Requeue returns a claimed-but-unpainted task to the source (the
	// processor must acquire or switch implements first and will
	// re-Select afterwards).
	Requeue(e *Engine, pi int, task workplan.Task)
	// Park records pi as blocked under the given SelectWait selection.
	// The engine has already stamped the processor's waitStart.
	Park(e *Engine, pi int, sel Selection)
	// CellDone records that pi painted task. The engine has already
	// painted the grid cell and decremented the layer counter; the source
	// updates its bookkeeping and wakes any processors the completion
	// unblocks via e.Wake.
	CellDone(e *Engine, pi int, task workplan.Task)
	// HasMore reports whether pi has further known work — it gates the
	// EagerRelease hold policy's put-down after each cell.
	HasMore(e *Engine, pi int) bool
	// CheckComplete validates that the run finished all work; it is
	// called after the event queue drains and returns the executor's
	// deadlock/stall error if work remains.
	CheckComplete(e *Engine) error
}

// procState is the runtime state machine of one processor. It is stored
// by value in the engine's flat processor slice.
type procState struct {
	proc *processor.Processor
	// holding indexes the held implement in Engine.impls, or -1.
	holding int32
	stats   ProcStats
	// waitStart marks when the current wait began, for accounting.
	waitStart time.Duration
	painted   bool // has painted at least one cell
	// In-flight paint state: an op-coded completion event carries only
	// the processor index, so the task being painted (and the repaint
	// attempt and fast-path batch length) lives here. Sound because a
	// processor has at most one pending kernel event at any instant.
	curTask workplan.Task
	attempt int32
	batch   int32
}

// implState is the runtime state of one physical implement, stored by
// value in the engine's flat implement slice.
type implState struct {
	im     *implement.Implement
	holder int32 // processor index, or -1
	stats  ImplementStats
	// busySince marks acquisition time while held.
	busySince time.Duration
	acquired  int
}

// waitQueue is a FIFO ring of processor indices over a reusable backing
// array: pushes and pops move cursors instead of growing or re-slicing,
// so a run never reallocates and an arena reuses the ring across runs.
// The ring is sized to the processor count at bind time — each waiter is
// a distinct processor, so it can never overflow.
type waitQueue struct {
	buf  []int32
	head int
	n    int
}

func (q *waitQueue) reset(procs int) {
	if cap(q.buf) < procs {
		q.buf = make([]int32, procs)
	} else {
		q.buf = q.buf[:cap(q.buf)]
	}
	q.head, q.n = 0, 0
}

func (q *waitQueue) len() int { return q.n }

func (q *waitQueue) push(pi int32) {
	q.buf[(q.head+q.n)%len(q.buf)] = pi
	q.n++
}

func (q *waitQueue) pop() int32 {
	pi := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return pi
}

// engineConfig assembles an Engine; the exported Run* constructors
// translate their public configs into one of these.
type engineConfig struct {
	// ctx, when non-nil, is polled at cancellation checkpoints so an
	// abandoned run stops mid-simulation instead of burning CPU to the
	// end. nil keeps the unchecked hot path.
	ctx    context.Context
	source TaskSource
	procs  []*processor.Processor
	set    *implement.Set
	hold   HoldPolicy
	setup  time.Duration
	trace  bool
	probes []Probe
	// faults, when non-nil, injects deterministic faults into the run.
	faults FaultInjector
	w, h   int
	// layerDeps and layerCellCount describe the workload's dependency
	// structure; the engine owns the live remaining counters.
	layerDeps      [][]int
	layerCellCount []int
}

// Opcodes for the kernel's op-coded events. Each op carries a processor
// index. The fast/instrumented pairs are distinct opcodes — the variant
// is chosen once at run entry (Engine.opAdvance et al.), so dispatch
// jumps straight to the specialized body with no per-event mode check.
const (
	opAdvanceFast uint8 = iota
	opAdvanceInst
	opPaintDoneFast
	opPaintDoneInst
	opPutDownFast
	opPutDownInst
)

// Engine is the unified executor state. Sources receive it on every
// callback; external policies use the exported accessors. Engines are
// embedded in an Arena and rebound per run — see arena.go.
type Engine struct {
	ctx    context.Context
	source TaskSource
	hold   HoldPolicy
	setup  time.Duration
	// observing is true when spans must be materialized (tracing or at
	// least one probe installed); tracing additionally stores them.
	observing bool
	tracing   bool
	// instrumented records which dispatch variant this run selected:
	// false means the fast opcodes (no probe, fault, or trace hook sites
	// compiled into the executed bodies), true the hook-bearing ones.
	instrumented bool
	// probes holds the run-resolved probe set: RunScopedProbes from the
	// config are replaced by their per-run children.
	probes []Probe
	// faults is the run's fault injector (nil on the unchecked hot path);
	// unsound is its UnsoundInjector extension when present. fstats
	// tallies what the injector did.
	faults  FaultInjector
	unsound UnsoundInjector
	fstats  FaultStats

	kernel devent.Kernel
	grid   *grid.Grid
	procs  []procState
	impls  []implState
	// byColor indexes implement states per color: flat index slices into
	// impls, carved from one arena-backed array.
	byColor [palette.NColors][]int32
	// queues holds the FIFO implement waiters per color.
	queues [palette.NColors]waitQueue
	// layerRemaining counts unpainted cells per layer.
	layerRemaining []int
	layerDeps      [][]int
	// layerIsDep[l] is true when l is a prerequisite of some other layer.
	// Only such layers can be parked on or have their remaining count
	// read by another processor, so completions within a non-dep layer
	// may be applied as one batch — no one can observe the intermediate
	// counter states.
	layerIsDep []bool
	trace      []Span
	breaks     int
	err        error
	// synthEvents counts the per-cell completion events elided by span
	// batching, so Result.Events reports the same logical event count as
	// the equivalent unbatched (instrumented) run.
	synthEvents uint64
	// counts is the run's event tally (Result.Counts), kept on both
	// opcode families at the sites where the probe callbacks and span
	// emission sit.
	counts Counts

	// plansrc, bagsrc, and stealsrc are the source downcast to the
	// in-package policies, set once at bind. They devirtualize the
	// per-event source callbacks (see srcSelect) and, for plansrc, gate
	// fast-path span batching. At most one is non-nil; an external
	// TaskSource leaves all three nil and dispatches through the
	// interface.
	plansrc  *planSource
	bagsrc   *bagSource
	stealsrc *stealSource
	// The opcode variants selected once at run entry.
	opAdvance, opPaintDone, opPutDown uint8
}

// srcSelect and the sibling helpers below dispatch source callbacks to
// the concrete in-package policy when one is bound. An interface call
// per event is measurable at this frequency (three to four callbacks
// per cell); the downcast happens once per run, the nil checks here
// predict perfectly, and the direct calls are inline candidates.

func (e *Engine) srcRequeue(pi int, task workplan.Task) {
	if s := e.plansrc; s != nil {
		s.Requeue(e, pi, task)
		return
	}
	if s := e.bagsrc; s != nil {
		s.Requeue(e, pi, task)
		return
	}
	if s := e.stealsrc; s != nil {
		s.Requeue(e, pi, task)
		return
	}
	e.source.Requeue(e, pi, task)
}

func (e *Engine) srcPark(pi int, sel Selection) {
	if s := e.plansrc; s != nil {
		s.Park(e, pi, sel)
		return
	}
	if s := e.bagsrc; s != nil {
		s.Park(e, pi, sel)
		return
	}
	if s := e.stealsrc; s != nil {
		s.Park(e, pi, sel)
		return
	}
	e.source.Park(e, pi, sel)
}

func (e *Engine) srcHasMore(pi int) bool {
	if s := e.plansrc; s != nil {
		return s.HasMore(e, pi)
	}
	if s := e.bagsrc; s != nil {
		return s.HasMore(e, pi)
	}
	if s := e.stealsrc; s != nil {
		return s.HasMore(e, pi)
	}
	return e.source.HasMore(e, pi)
}

// dispatch interprets op-coded kernel events. It is installed once per
// arena as the kernel's handler.
func (e *Engine) dispatch(op uint8, arg int32) {
	pi := int(arg)
	switch op {
	case opAdvanceFast:
		e.advanceFast(pi)
	case opAdvanceInst:
		e.advanceInst(pi)
	case opPaintDoneFast:
		e.paintDoneFast(pi)
	case opPaintDoneInst:
		e.paintDoneInst(pi)
	case opPutDownFast:
		e.release(pi, e.kernel.Now())
		e.advanceFast(pi)
	case opPutDownInst:
		e.release(pi, e.kernel.Now())
		e.advanceInst(pi)
	}
}

func (e *Engine) schedOp(d time.Duration, op uint8, pi int) {
	if err := e.kernel.ScheduleOp(d, op, int32(pi)); err != nil && e.err == nil {
		e.err = err
	}
}

// resolveProbes replaces every RunScopedProbe with the per-run child its
// BeginRun hands out, leaving plain probes in place. The copy keeps the
// caller's shared slice untouched.
func resolveProbes(probes []Probe) []Probe {
	scoped := false
	for _, p := range probes {
		if _, ok := p.(RunScopedProbe); ok {
			scoped = true
			break
		}
	}
	if !scoped {
		return probes
	}
	out := make([]Probe, len(probes))
	for i, p := range probes {
		if rsp, ok := p.(RunScopedProbe); ok {
			out[i] = rsp.BeginRun()
		} else {
			out[i] = p
		}
	}
	return out
}

// notifyResult fans the completed result out to the run-resolved probes
// (so a RunScopedProbe's child — not its shared parent — observes it).
// Executors call it after filling in their policy-specific Result fields.
func (e *Engine) notifyResult(res *Result) {
	notifyResultProbes(e.probes, res)
}

// run executes the engine to completion: serial setup, simultaneous
// start, event loop until drained, then the source's completion check.
func (e *Engine) run() (time.Duration, error) {
	if e.observing && e.setup > 0 {
		for i := range e.procs {
			e.emitSpan(Span{Proc: i, Kind: SpanSetup, Start: 0, End: e.setup})
		}
	}
	for i := range e.procs {
		if err := e.kernel.ScheduleOp(e.setup, e.opAdvance, int32(i)); err != nil {
			return 0, err
		}
	}
	makespan, err := e.drain()
	if err != nil {
		return 0, err
	}
	if e.err != nil {
		return 0, e.err
	}
	if err := e.source.CheckComplete(e); err != nil {
		return 0, err
	}
	return makespan, nil
}

// cancelCheckEvery is the event-loop cancellation granularity: with a
// context installed the drain loop polls ctx.Err() once per this many
// events. Small enough that an abandoned request stops within a few
// hundred microseconds of wall time, large enough that the poll never
// shows up in the engine benchmarks.
const cancelCheckEvery = 256

// drain executes the event loop until the queue empties. It pulls op
// events out of the kernel with StepInto and dispatches them with a
// direct call — one indirect call per event through the kernel's
// handler closure is measurable at engine event rates. With a context
// installed, cancellation checkpoints make the run abort early with
// ErrCanceled.
func (e *Engine) drain() (time.Duration, error) {
	if e.ctx == nil {
		for {
			op, arg, kind := e.kernel.StepInto()
			if kind == devent.StepEmpty {
				return e.kernel.Now(), nil
			}
			if kind == devent.StepOp {
				e.dispatch(op, arg)
			}
		}
	}
	if err := e.ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w before the first event: %v", ErrCanceled, err)
	}
	var n uint64
	for {
		op, arg, kind := e.kernel.StepInto()
		if kind == devent.StepEmpty {
			return e.kernel.Now(), nil
		}
		if kind == devent.StepOp {
			e.dispatch(op, arg)
		}
		n++
		if n%cancelCheckEvery == 0 {
			if err := e.ctx.Err(); err != nil {
				return 0, fmt.Errorf("%w after %d events at t=%v: %v",
					ErrCanceled, e.kernel.Processed(), e.kernel.Now(), err)
			}
		}
	}
}

// ---- Accessors for TaskSource implementations ----

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.kernel.Now() }

// NumProcs returns the processor count.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Holding returns the implement processor pi holds, or nil.
func (e *Engine) Holding(pi int) *implement.Implement {
	if h := e.procs[pi].holding; h >= 0 {
		return e.impls[h].im
	}
	return nil
}

// Layers returns the number of layers in the workload.
func (e *Engine) Layers() int { return len(e.layerRemaining) }

// LayerRemaining returns the number of unpainted cells of layer l.
func (e *Engine) LayerRemaining(l int) int { return e.layerRemaining[l] }

// LayerBlocked reports the first incomplete prerequisite layer of l.
func (e *Engine) LayerBlocked(l int) (dep int, blocked bool) {
	for _, d := range e.layerDeps[l] {
		if e.layerRemaining[d] > 0 {
			return d, true
		}
	}
	return 0, false
}

// HasFreeImplement reports whether an implement of color c is free now.
func (e *Engine) HasFreeImplement(c palette.Color) bool {
	return e.freeImplement(c) >= 0
}

// Wake unparks processor pi: accounts its layer-wait time, emits the
// wait-layer span, and schedules its re-advance at the current instant.
func (e *Engine) Wake(pi int) {
	now := e.kernel.Now()
	ps := &e.procs[pi]
	ps.stats.WaitLayer += now - ps.waitStart
	if now > ps.waitStart {
		e.counts.WaitLayerSpans++
		if e.observing {
			e.emitSpan(Span{Proc: pi, Kind: SpanWaitLayer, Start: ps.waitStart, End: now})
		}
	}
	e.schedOp(0, e.opAdvance, pi)
}

// ---- Event loop: instrumented variants ----
//
// The instrumented bodies are the reference semantics: every probe,
// fault, and trace hook in place. The fast variants below are the same
// control flow with the hook sites removed, valid only when no hook is
// installed — the selection happens once, in Arena.bind.

// advanceInst drives processor pi as far as it can go at the current
// virtual time, parking it on a queue or scheduling a completion event.
func (e *Engine) advanceInst(pi int) {
	if e.err != nil {
		return
	}
	ps := &e.procs[pi]
	now := e.kernel.Now()

	// A stall window covering this instant freezes the processor until
	// the window ends; the re-advance lands at the window's end, where
	// StallUntil no longer covers now, so time always progresses.
	if e.faults != nil {
		if until := e.faults.StallUntil(pi, now); until > now {
			e.fstats.Stalls++
			e.fstats.StallTime += until - now
			if e.observing {
				e.emitSpan(Span{Proc: pi, Kind: SpanStall, Start: now, End: until})
			}
			e.schedOp(until-now, e.opAdvance, pi)
			return
		}
	}

	var sel Selection
	if s := e.plansrc; s != nil {
		sel = s.Select(e, pi)
	} else if s := e.bagsrc; s != nil {
		sel = s.Select(e, pi)
	} else if s := e.stealsrc; s != nil {
		sel = s.Select(e, pi)
	} else {
		sel = e.source.Select(e, pi)
	}
	switch sel.Kind {
	case SelectDone:
		// Done: release anything held so teammates can proceed.
		if ps.holding >= 0 {
			e.release(pi, now)
		}
		if ps.stats.Finish < now {
			ps.stats.Finish = now
		}
		e.counts.Retired++
		for _, p := range e.probes {
			p.ProcDone(pi, now)
		}
		return

	case SelectWait:
		// Before parking, put down anything held so a teammate can use it
		// (a student waiting for the background to finish does not hoard
		// the red marker).
		if ps.holding >= 0 {
			e.putDown(pi, now)
			return
		}
		e.srcPark(pi, sel)
		ps.waitStart = now
		e.counts.LayerBlocks++
		for _, p := range e.probes {
			p.Block(pi, SpanWaitLayer, palette.None, now)
		}
		return
	}

	task := sel.Task

	// Implement in hand of the right color: paint.
	if ps.holding >= 0 && e.impls[ps.holding].im.Color == task.Color {
		e.paintAttemptInst(pi, task, now, 0)
		return
	}

	// Wrong implement in hand: hand the task back, put the implement down
	// (busy during put-down, then re-advance).
	if ps.holding >= 0 {
		e.srcRequeue(pi, task)
		e.putDown(pi, now)
		return
	}

	// Need to acquire an implement of task.Color.
	e.srcRequeue(pi, task)
	if ii := e.freeImplement(task.Color); ii >= 0 {
		e.grant(pi, ii, e.kernel.Now())
		return
	}

	// All implements of that color are busy: join the FIFO queue.
	e.queues[task.Color].push(int32(pi))
	ps.waitStart = now
	depth := e.queues[task.Color].len()
	for _, ii := range e.byColor[task.Color] {
		if depth > e.impls[ii].stats.MaxQueue {
			e.impls[ii].stats.MaxQueue = depth
		}
	}
	e.counts.ImplementBlocks[task.Color]++
	for _, p := range e.probes {
		p.Block(pi, SpanWaitImplement, task.Color, now)
	}
}

// putDown spends the put-down time, then releases the held implement and
// re-enters the processor's advance loop (via the put-down opcode).
func (e *Engine) putDown(pi int, now time.Duration) {
	ps := &e.procs[pi]
	im := e.impls[ps.holding].im
	putDown := im.Spec.PutDown
	if putDown > 0 {
		e.counts.PutDownSpans++
		if e.observing {
			e.emitSpan(Span{Proc: pi, Kind: SpanPutDown,
				Start: now, End: now + putDown, Color: im.Color})
		}
	}
	ps.stats.Overhead += putDown
	e.schedOp(putDown, e.opPutDown, pi)
}

// freeImplement returns the index of a free implement of color c (lowest
// ID first for determinism), or -1.
func (e *Engine) freeImplement(c palette.Color) int32 {
	for _, ii := range e.byColor[c] {
		if e.impls[ii].holder == -1 {
			return ii
		}
	}
	return -1
}

// grant reserves implement ii for processor pi and schedules the pickup.
func (e *Engine) grant(pi int, ii int32, now time.Duration) {
	ps := &e.procs[pi]
	is := &e.impls[ii]
	is.holder = int32(pi)
	is.busySince = now
	is.acquired++
	if is.acquired > 1 {
		is.stats.Handoffs++
	}
	pickup := is.im.Spec.Pickup
	// A faulty handoff (any acquisition after the implement's first)
	// extends the pickup; the delay is overhead like the pickup itself.
	if e.faults != nil && is.acquired > 1 {
		if d := e.faults.HandoffDelay(pi, is.im, now); d > 0 {
			pickup += d
			e.fstats.HandoffDelays++
			e.fstats.HandoffDelayTime += d
		}
	}
	if pickup > 0 {
		e.counts.PickupSpans++
		if e.observing {
			e.emitSpan(Span{Proc: pi, Kind: SpanPickup,
				Start: now, End: now + pickup, Color: is.im.Color})
		}
	}
	ps.stats.Overhead += pickup
	ps.holding = ii
	e.counts.Grants++
	for _, p := range e.probes {
		p.Grant(pi, is.im, now)
	}
	e.schedOp(pickup, e.opAdvance, pi)
}

// release frees processor pi's implement at time now and hands it to the
// first queued waiter, if any.
func (e *Engine) release(pi int, now time.Duration) {
	ps := &e.procs[pi]
	ii := ps.holding
	is := &e.impls[ii]
	ps.holding = -1
	is.holder = -1
	is.stats.BusyTime += now - is.busySince
	e.counts.Releases++
	for _, p := range e.probes {
		p.Release(pi, is.im, now)
	}

	c := is.im.Color
	q := &e.queues[c]
	if q.len() == 0 {
		return
	}
	next := int(q.pop())
	waiter := &e.procs[next]
	waiter.stats.WaitImplement += now - waiter.waitStart
	if now > waiter.waitStart {
		e.counts.WaitImplementSpans++
		if e.observing {
			e.emitSpan(Span{Proc: next, Kind: SpanWaitImplement,
				Start: waiter.waitStart, End: now, Color: c})
		}
	}
	e.grant(next, ii, now)
}

// forcedBreakRepair is the repair delay charged when a fault-injected
// breakage hits an implement whose own spec has no repair time (only
// crayons model breakage natively); it matches the crayon repair delay.
const forcedBreakRepair = 8 * time.Second

// paintAttemptInst runs one paint attempt (attempt 0 unless a
// fault-injected paint failure forced a repaint) and schedules its
// completion.
func (e *Engine) paintAttemptInst(pi int, task workplan.Task, now time.Duration, attempt int32) {
	ps := &e.procs[pi]
	im := e.impls[ps.holding].im
	// ServiceTime draws from the processor's RNG stream; it must stay the
	// first stochastic call so fault-free runs keep their exact sequence.
	service := ps.proc.ServiceTime(task.Cell, im)
	if e.faults != nil {
		if f := e.faults.ServiceFactor(pi, task); f != 1 {
			service = time.Duration(float64(service) * f)
			e.fstats.DegradedCells++
		}
	}
	var repair time.Duration
	if ps.proc.Breaks(im) {
		repair = im.Spec.Repair
		e.breaks++
		e.impls[ps.holding].stats.Breakages++
	} else if e.faults != nil && attempt == 0 && e.faults.ForcedBreak(pi, task) {
		// Fault-forced breakage: tallied separately from the implement's
		// own stochastic breaks (Result.Breaks stays comparable to the
		// fault-free run).
		repair = im.Spec.Repair
		if repair <= 0 {
			repair = forcedBreakRepair
		}
		e.fstats.ForcedBreaks++
	}
	if repair > 0 {
		e.counts.RepairSpans++
		if e.observing {
			e.emitSpan(Span{Proc: pi, Kind: SpanRepair,
				Start: now + service, End: now + service + repair, Color: task.Color})
		}
	}
	e.counts.PaintSpans++
	if e.observing {
		e.emitSpan(Span{Proc: pi, Kind: SpanPaint,
			Start: now, End: now + service, Color: task.Color, Cell: task.Cell})
	}
	if !ps.painted {
		ps.painted = true
		ps.stats.FirstPaint = now
	}
	ps.stats.PaintTime += service
	ps.stats.Overhead += repair
	ps.curTask = task
	ps.attempt = attempt
	e.schedOp(service+repair, opPaintDoneInst, pi)
}

// paintDoneInst completes the in-flight paint attempt of processor pi.
func (e *Engine) paintDoneInst(pi int) {
	ps := &e.procs[pi]
	task := ps.curTask
	// A transient paint failure forces a full repaint of the cell: the
	// attempt's time is spent but the task is not complete.
	if e.faults != nil && e.faults.PaintFails(pi, task, int(ps.attempt)) {
		e.fstats.Repaints++
		e.paintAttemptInst(pi, task, e.kernel.Now(), ps.attempt+1)
		return
	}
	if e.unsound != nil && e.unsound.LosePaint(pi, task) {
		// Oracle self-test backdoor: drop the grid write but report
		// the task complete — a seeded lost-update bug.
		e.fstats.LostPaints++
	} else if err := e.grid.Paint(task.Cell, task.Color); err != nil {
		e.err = err
		return
	}
	ps.stats.Cells++
	e.layerRemaining[task.Layer]--
	if s := e.bagsrc; s != nil {
		s.CellDone(e, pi, task)
	} else if s := e.stealsrc; s != nil {
		s.CellDone(e, pi, task)
	} else if s := e.plansrc; s != nil {
		s.CellDone(e, pi, task)
	} else {
		e.source.CellDone(e, pi, task)
	}
	for _, p := range e.probes {
		p.Complete(pi, task, e.kernel.Now())
	}
	// EagerRelease puts the implement down after every cell even if the
	// next cell wants the same color.
	if e.hold == EagerRelease && ps.holding >= 0 && e.srcHasMore(pi) {
		e.putDown(pi, e.kernel.Now())
		return
	}
	e.advanceInst(pi)
}

// ---- Event loop: fast variants ----
//
// The same control flow as the instrumented variants with every probe,
// fault, and trace hook removed — straight-line resource mechanics and
// the event tally.
// Selected at run entry only when no probe, no tracing, and no fault
// injector is installed, so removing the hooks cannot change results.

func (e *Engine) advanceFast(pi int) {
	if e.err != nil {
		return
	}
	ps := &e.procs[pi]
	now := e.kernel.Now()

	var sel Selection
	if s := e.plansrc; s != nil {
		sel = s.Select(e, pi)
	} else if s := e.bagsrc; s != nil {
		sel = s.Select(e, pi)
	} else if s := e.stealsrc; s != nil {
		sel = s.Select(e, pi)
	} else {
		sel = e.source.Select(e, pi)
	}
	switch sel.Kind {
	case SelectDone:
		if ps.holding >= 0 {
			e.release(pi, now)
		}
		if ps.stats.Finish < now {
			ps.stats.Finish = now
		}
		e.counts.Retired++
		return

	case SelectWait:
		if ps.holding >= 0 {
			e.putDown(pi, now)
			return
		}
		e.srcPark(pi, sel)
		ps.waitStart = now
		e.counts.LayerBlocks++
		return
	}

	task := sel.Task

	if ps.holding >= 0 && e.impls[ps.holding].im.Color == task.Color {
		e.paintFast(pi, task, now)
		return
	}

	if ps.holding >= 0 {
		e.srcRequeue(pi, task)
		e.putDown(pi, now)
		return
	}

	e.srcRequeue(pi, task)
	if ii := e.freeImplement(task.Color); ii >= 0 {
		e.grant(pi, ii, now)
		return
	}

	e.queues[task.Color].push(int32(pi))
	ps.waitStart = now
	depth := e.queues[task.Color].len()
	for _, ii := range e.byColor[task.Color] {
		if depth > e.impls[ii].stats.MaxQueue {
			e.impls[ii].stats.MaxQueue = depth
		}
	}
	e.counts.ImplementBlocks[task.Color]++
}

// paintFast executes the claimed task — and, when the static plan policy
// allows, the whole contiguous same-color span it starts — under a
// single completion event. Batching is sound only when nothing else in
// the run can observe the intermediate per-cell state: the plan's task
// order is fixed, the processor keeps holding the one implement
// (GreedyHold), every batched cell's layer is already unblocked (layer
// dependencies only ever complete), and no batched layer is a
// prerequisite of any other layer (so no one parks on it or reads its
// remaining count). Per-cell service and breakage draws happen upfront
// in plan order from the processor's own stream — exactly the sequence
// the per-cell path would draw — so timing, statistics, and breakages
// are bit-identical; Result.Events stays comparable via synthEvents.
func (e *Engine) paintFast(pi int, task workplan.Task, now time.Duration) {
	ps := &e.procs[pi]
	im := e.impls[ps.holding].im
	k := 1
	if e.plansrc != nil && e.hold == GreedyHold {
		k = e.plansrc.batchLen(e, pi, task)
	}
	var service, repair time.Duration
	breaks := 0
	if k == 1 {
		service = ps.proc.ServiceTime(task.Cell, im)
		if ps.proc.Breaks(im) {
			repair = im.Spec.Repair
			breaks = 1
		}
	} else {
		tasks := e.plansrc.plan.PerProc[pi]
		i := e.plansrc.next[pi]
		for j := 0; j < k; j++ {
			t := tasks[i+j]
			service += ps.proc.ServiceTime(t.Cell, im)
			if ps.proc.Breaks(im) {
				repair += im.Spec.Repair
				breaks++
			}
		}
	}
	if breaks > 0 {
		e.breaks += breaks
		e.impls[ps.holding].stats.Breakages += breaks
		// The instrumented path emits one repair span per break that
		// costs time.
		if im.Spec.Repair > 0 {
			e.counts.RepairSpans += uint32(breaks)
		}
	}
	e.counts.PaintSpans += uint32(k)
	if !ps.painted {
		ps.painted = true
		ps.stats.FirstPaint = now
	}
	ps.stats.PaintTime += service
	ps.stats.Overhead += repair
	ps.curTask = task
	ps.batch = int32(k)
	e.synthEvents += uint64(k - 1)
	e.schedOp(service+repair, opPaintDoneFast, pi)
}

// paintDoneFast applies the completed paint (or batch of paints) of
// processor pi and re-enters its advance loop.
func (e *Engine) paintDoneFast(pi int) {
	ps := &e.procs[pi]
	if s := e.plansrc; s != nil {
		tasks := s.plan.PerProc[pi]
		for j := int32(0); j < ps.batch; j++ {
			task := tasks[s.next[pi]]
			if err := e.grid.Paint(task.Cell, task.Color); err != nil {
				e.err = err
				return
			}
			ps.stats.Cells++
			e.layerRemaining[task.Layer]--
			s.CellDone(e, pi, task)
		}
	} else {
		task := ps.curTask
		if err := e.grid.Paint(task.Cell, task.Color); err != nil {
			e.err = err
			return
		}
		ps.stats.Cells++
		e.layerRemaining[task.Layer]--
		if s := e.bagsrc; s != nil {
			s.CellDone(e, pi, task)
		} else if s := e.stealsrc; s != nil {
			s.CellDone(e, pi, task)
		} else if s := e.plansrc; s != nil {
			s.CellDone(e, pi, task)
		} else {
			e.source.CellDone(e, pi, task)
		}
	}
	if e.hold == EagerRelease && ps.holding >= 0 && e.srcHasMore(pi) {
		e.putDown(pi, e.kernel.Now())
		return
	}
	e.advanceFast(pi)
}

// emitSpan stores the span when tracing and fans it out to probes.
func (e *Engine) emitSpan(sp Span) {
	if e.tracing {
		e.trace = append(e.trace, sp)
	}
	for _, p := range e.probes {
		p.Span(sp)
	}
}
