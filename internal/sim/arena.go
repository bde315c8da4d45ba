package sim

// Run arenas: the allocation story of the engine.
//
// Every executor run needs the same per-run state — the engine's flat
// processor/implement slices, the per-color index tables and wait rings,
// the layer counters, a grid, the task source's scratch, and a Result.
// An Arena owns all of it in reusable buffers, so a *warm* run (second
// and later runs of same-shaped workloads through one arena) performs
// zero heap allocations: every buffer is capacity-checked and resliced
// instead of remade, the kernel's event queue is recycled via
// devent.Kernel.Reset, and continuations are op-coded events rather
// than closures.
//
// Two ownership modes:
//
//   - Owned (NewArena): the caller holds the arena and runs through it
//     via Config.Arena / DynamicConfig.Arena. The returned Result — its
//     stats slices, trace, synthesized plan, and Grid — is arena memory,
//     valid only until the arena's next run. Maximum reuse, caller takes
//     the aliasing contract. An owned arena is not safe for concurrent
//     use; give each goroutine its own.
//
//   - Pooled (no Arena configured): runs draw a shared arena from a
//     sync.Pool. Engine-internal scratch is recycled, but everything the
//     Result can see (the Result itself, stats slices, trace, grid,
//     synthesized plans) is allocated fresh, because callers — the
//     Sweeper memoizes *sim.Result indefinitely — may hold the Result
//     long after the arena has moved on to another run.
//
// Sizing is deterministic: every buffer's required capacity is a
// function of run-invariant quantities (processor count, implement
// count, total task count, layer count, grid size), never of stochastic
// run outcomes. That is what makes "warm" well-defined — one cold run
// grows every buffer to its final size and every subsequent run of the
// same shape allocates nothing, even though service times and breakages
// differ run to run.
//
// The arena also memoizes pointer-keyed validation: re-running the same
// *workplan.Plan / *implement.Set / *flagspec.Flag through one arena
// skips the O(tasks) validation walk and the strategy-string formatting.
// Holding the cached pointer in the arena pins the object, so pointer
// equality is a sound cache key for these immutable-by-convention
// inputs.

import (
	"fmt"
	"sync"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/grid"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/workplan"
)

// Arena is a reusable run context: engine state, task-source scratch,
// and (in owned mode) result storage, recycled across runs. The zero
// value is NOT ready — use NewArena, or leave Config.Arena nil to use
// the internal pool.
type Arena struct {
	e     Engine
	owned bool

	// Engine scratch.
	procBuf       []procState
	implBuf       []implState
	byColorBuf    []int32
	layerRemBuf   []int
	layerIsDepBuf []bool
	grid          grid.Grid

	// Task-source scratch (one of each policy; an arena can alternate
	// between executors without reallocating).
	plan  planSource
	bag   bagSource
	steal stealSource
	rec   assignRecorder

	// Owned-mode result storage.
	result       Result
	traceBuf     []Span
	procStatsBuf []ProcStats
	implStatsBuf []ImplementStats
	synthPlan    workplan.Plan
	perProcBuf   [][]workplan.Task
	taskBuf      []workplan.Task

	// Pointer-keyed validation and formatting caches.
	vPlan           *workplan.Plan
	vSet            *implement.Set
	vDynFlag        *flagspec.Flag
	vDynSet         *implement.Set
	seqFlag         *flagspec.Flag
	seqW, seqH      int
	seqPlan         *workplan.Plan
	stratPolicy     PullPolicy
	stratProcs      int
	stratDyn        string
	stealPlanCached *workplan.Plan
	stratSteal      string
}

// NewArena returns an owned arena. Configure it on Config.Arena or
// DynamicConfig.Arena; each run through it reuses the arena's buffers,
// and the returned Result aliases arena memory valid only until the next
// run through the same arena.
func NewArena() *Arena {
	a := &Arena{owned: true}
	a.e.kernel.SetHandler(a.e.dispatch)
	return a
}

// arenaPool recycles pooled arenas across runs that did not bring their
// own. Pooled arenas never own result-visible memory (see bind and
// buildResult), so returning one to the pool cannot invalidate any
// Result a caller still holds.
var arenaPool = sync.Pool{New: func() any {
	a := &Arena{}
	a.e.kernel.SetHandler(a.e.dispatch)
	return a
}}

// acquireArena resolves the run's arena: the caller's own, or one from
// the pool. pooled tells the caller to return it when the run is done.
func acquireArena(explicit *Arena) (a *Arena, pooled bool) {
	if explicit != nil {
		return explicit, false
	}
	return arenaPool.Get().(*Arena), true
}

// bind configures the arena's engine for one run, reusing every scratch
// buffer whose capacity suffices. It also selects the dispatch variant
// (fast vs instrumented) once, so the event loop never re-checks.
func (a *Arena) bind(cfg engineConfig) *Engine {
	e := &a.e
	e.kernel.Reset()
	e.ctx = cfg.ctx
	e.source = cfg.source
	e.hold = cfg.hold
	e.setup = cfg.setup
	e.tracing = cfg.trace
	e.observing = cfg.trace || len(cfg.probes) > 0
	e.probes = resolveProbes(cfg.probes)
	e.faults = cfg.faults
	e.unsound = nil
	e.fstats = FaultStats{}
	if cfg.faults != nil {
		e.fstats.Injected = true
		if u, ok := cfg.faults.(UnsoundInjector); ok {
			e.unsound = u
		}
	}

	// The one-time specialization: with no probe, no trace, and no fault
	// injector, the run executes the fast opcode bodies, which contain no
	// hook sites at all. Anything observable selects the instrumented
	// twins.
	e.instrumented = e.observing || cfg.faults != nil
	if e.instrumented {
		e.opAdvance, e.opPaintDone, e.opPutDown = opAdvanceInst, opPaintDoneInst, opPutDownInst
	} else {
		e.opAdvance, e.opPaintDone, e.opPutDown = opAdvanceFast, opPaintDoneFast, opPutDownFast
	}
	// Downcast the source once so the event loop calls it directly (see
	// srcSelect). Span batching additionally requires the fast opcodes,
	// which only ever run when instrumented is false.
	e.plansrc, e.bagsrc, e.stealsrc = nil, nil, nil
	switch s := cfg.source.(type) {
	case *planSource:
		e.plansrc = s
	case *bagSource:
		e.bagsrc = s
	case *stealSource:
		e.stealsrc = s
	}

	e.trace = nil
	if e.tracing && a.owned {
		e.trace = a.traceBuf[:0]
	}

	n := len(cfg.procs)
	if cap(a.procBuf) < n {
		a.procBuf = make([]procState, n)
	}
	e.procs = a.procBuf[:n]
	for i, pr := range cfg.procs {
		pr.ResetRun()
		e.procs[i] = procState{proc: pr, holding: -1, stats: ProcStats{Name: pr.Name}}
	}

	all := cfg.set.All()
	m := len(all)
	if cap(a.implBuf) < m {
		a.implBuf = make([]implState, m)
	}
	e.impls = a.implBuf[:m]
	var counts [palette.NColors]int
	for i, im := range all {
		e.impls[i] = implState{im: im, holder: -1,
			stats: ImplementStats{ID: im.ID, Color: im.Color, Kind: im.Kind}}
		counts[im.Color]++
	}
	// Carve the per-color index table out of one backing array. The
	// three-index sub-slices cap each segment exactly, so the appends
	// below fill in place and can never spill into a neighbor.
	if cap(a.byColorBuf) < m {
		a.byColorBuf = make([]int32, m)
	}
	pos := 0
	for c := range e.byColor {
		e.byColor[c] = a.byColorBuf[pos : pos : pos+counts[c]]
		pos += counts[c]
	}
	for i, im := range all {
		e.byColor[im.Color] = append(e.byColor[im.Color], int32(i))
	}
	for c := range e.queues {
		e.queues[c].reset(n)
	}

	layers := len(cfg.layerCellCount)
	if cap(a.layerRemBuf) < layers {
		a.layerRemBuf = make([]int, layers)
	}
	e.layerRemaining = a.layerRemBuf[:layers]
	copy(e.layerRemaining, cfg.layerCellCount)
	e.layerDeps = cfg.layerDeps
	if cap(a.layerIsDepBuf) < layers {
		a.layerIsDepBuf = make([]bool, layers)
	}
	e.layerIsDep = a.layerIsDepBuf[:layers]
	for i := range e.layerIsDep {
		e.layerIsDep[i] = false
	}
	for _, deps := range cfg.layerDeps {
		for _, d := range deps {
			e.layerIsDep[d] = true
		}
	}

	if a.owned {
		a.grid.Reuse(cfg.w, cfg.h)
		e.grid = &a.grid
	} else {
		// Pooled: the grid is result-visible, so it must outlive the
		// arena's next run.
		e.grid = grid.New(cfg.w, cfg.h)
	}

	e.breaks = 0
	e.err = nil
	e.synthEvents = 0
	e.counts = Counts{Instrumented: e.instrumented}
	return e
}

// buildResult assembles the shared Result fields; the caller supplies
// the workload description (static plans pass theirs, bag/steal sources
// synthesize the executed assignment). Owned arenas reuse their result
// storage; pooled arenas allocate it fresh because the Result escapes.
func (a *Arena) buildResult(e *Engine, plan *workplan.Plan, makespan time.Duration) *Result {
	var res *Result
	if a.owned {
		res = &a.result
		*res = Result{}
		if cap(a.procStatsBuf) < len(e.procs) {
			a.procStatsBuf = make([]ProcStats, len(e.procs))
		}
		res.Procs = a.procStatsBuf[:len(e.procs)]
		if cap(a.implStatsBuf) < len(e.impls) {
			a.implStatsBuf = make([]ImplementStats, len(e.impls))
		}
		res.Implements = a.implStatsBuf[:len(e.impls)]
		if e.trace != nil {
			// Keep the grown span buffer for the next traced run.
			a.traceBuf = e.trace
		}
	} else {
		res = &Result{
			Procs:      make([]ProcStats, len(e.procs)),
			Implements: make([]ImplementStats, len(e.impls)),
		}
	}
	for i := range e.procs {
		res.Procs[i] = e.procs[i].stats
	}
	for i := range e.impls {
		res.Implements[i] = e.impls[i].stats
	}
	res.Plan = plan
	res.Makespan = makespan
	res.SetupTime = e.setup
	res.Grid = e.grid
	res.Breaks = e.breaks
	res.Trace = e.trace
	// Events counts logical engine events: kernel events plus the
	// per-cell completions elided by fast-path span batching, so batched
	// and unbatched runs report identical event counts.
	res.Events = e.kernel.Processed() + e.synthEvents
	res.MaxEventQueue = e.kernel.MaxDepth()
	res.Faults = e.fstats
	res.Counts = e.counts
	return res
}

// validateStatic rejects inconsistent static configurations up front so
// the event loop never deadlocks on impossible inputs. The O(tasks)
// walks (plan validation, color coverage) are memoized on the
// (plan, set) pointer pair — the arena pins both, so pointer equality
// implies the same already-validated inputs.
func (a *Arena) validateStatic(cfg *Config) error {
	if cfg.Plan == nil {
		return fmt.Errorf("sim: nil plan")
	}
	cached := a.vPlan == cfg.Plan && a.vSet == cfg.Set
	if !cached {
		if err := cfg.Plan.Validate(); err != nil {
			return err
		}
	}
	if len(cfg.Procs) != cfg.Plan.NumProcs() {
		return fmt.Errorf("sim: plan wants %d processors, got %d", cfg.Plan.NumProcs(), len(cfg.Procs))
	}
	if cfg.Set == nil {
		return fmt.Errorf("sim: nil implement set")
	}
	if !cached {
		var need [palette.NColors]bool
		for _, tasks := range cfg.Plan.PerProc {
			for _, t := range tasks {
				need[t.Color] = true
			}
		}
		for _, c := range palette.All() {
			if need[c] && !cfg.Set.Has(c) {
				return fmt.Errorf("implement: set has no %s implement", c)
			}
		}
		a.vPlan, a.vSet = cfg.Plan, cfg.Set
	}
	if cfg.Setup < 0 {
		return fmt.Errorf("sim: negative setup time")
	}
	return nil
}

// planSourceFor rebinds the arena's static plan policy to plan.
func (a *Arena) planSourceFor(plan *workplan.Plan) *planSource {
	s := &a.plan
	s.plan = plan
	n := plan.NumProcs()
	if cap(s.next) < n {
		s.next = make([]int, n)
	} else {
		s.next = s.next[:n]
	}
	for i := range s.next {
		s.next[i] = 0
	}
	s.layerWaiters = reuseWaiters(s.layerWaiters, len(plan.LayerCellCount), n)
	return s
}

// reuseWaiters resizes a per-layer waiter table to layers entries, each
// an empty slice with capacity for every processor, keeping grown
// backing arrays.
func reuseWaiters(buf [][]int, layers, procs int) [][]int {
	if cap(buf) < layers {
		nbuf := make([][]int, layers)
		copy(nbuf, buf[:cap(buf)])
		buf = nbuf
	} else {
		buf = buf[:layers]
	}
	for i := range buf {
		if cap(buf[i]) < procs {
			buf[i] = make([]int, 0, procs)
		} else {
			buf[i] = buf[i][:0]
		}
	}
	return buf
}

// assignRecorder captures the executed (processor, task) assignment of a
// dynamic or stealing run in flat append-only arrays, deferring the
// per-processor plan construction to one materialize pass at the end —
// the zero-alloc replacement for growing per-processor task slices
// during the run.
type assignRecorder struct {
	tasks  []workplan.Task
	procs  []int32
	counts []int
}

// reset prepares the recorder for a run of at most total completions
// across nprocs processors.
func (r *assignRecorder) reset(nprocs, total int) {
	if cap(r.tasks) < total {
		r.tasks = make([]workplan.Task, 0, total)
	}
	r.tasks = r.tasks[:0]
	if cap(r.procs) < total {
		r.procs = make([]int32, 0, total)
	}
	r.procs = r.procs[:0]
	if cap(r.counts) < nprocs {
		r.counts = make([]int, nprocs)
	}
	r.counts = r.counts[:nprocs]
	for i := range r.counts {
		r.counts[i] = 0
	}
}

func (r *assignRecorder) record(pi int, t workplan.Task) {
	r.tasks = append(r.tasks, t)
	r.procs = append(r.procs, int32(pi))
	r.counts[pi]++
}

// materialize builds the per-processor task lists in completion order.
// Owned arenas carve them out of reusable backing; pooled arenas
// allocate fresh because the lists land in the escaping Result's plan.
// Processors that painted nothing get a nil list, matching what
// incremental appends would have produced.
func (r *assignRecorder) materialize(a *Arena, nprocs int) [][]workplan.Task {
	var heads [][]workplan.Task
	var backing []workplan.Task
	total := len(r.tasks)
	if a.owned {
		if cap(a.perProcBuf) < nprocs {
			a.perProcBuf = make([][]workplan.Task, nprocs)
		}
		heads = a.perProcBuf[:nprocs]
		if cap(a.taskBuf) < total {
			a.taskBuf = make([]workplan.Task, total)
		}
		backing = a.taskBuf[:total]
	} else {
		heads = make([][]workplan.Task, nprocs)
		backing = make([]workplan.Task, total)
	}
	pos := 0
	for pi := 0; pi < nprocs; pi++ {
		if r.counts[pi] == 0 {
			heads[pi] = nil
			continue
		}
		heads[pi] = backing[pos : pos : pos+r.counts[pi]]
		pos += r.counts[pi]
	}
	for i, t := range r.tasks {
		pi := r.procs[i]
		heads[pi] = append(heads[pi], t)
	}
	return heads
}
