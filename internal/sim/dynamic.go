package sim

import (
	"context"
	"fmt"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/processor"
	"flagsim/internal/workplan"
)

// Dynamic (self-scheduling) execution: instead of a fixed per-processor
// plan, every cell sits in a shared bag and an idle processor pulls its
// next task at run time. This is how a team actually behaves when told
// "just finish the flag together", and it is the classic answer to the
// load-imbalance lesson: a slow student simply colors fewer cells.
//
// Two pull policies are modeled:
//
//   - PullOrdered: take the globally next unpainted cell (lowest layer,
//     reading order) — maximally fair, maximally implement-thrashing;
//   - PullColorAffinity: prefer the next cell matching the implement
//     already in hand, falling back to the global order — what students
//     converge on after the contention discussion.
//
// Layer dependencies are honored: a cell becomes available only when
// every prerequisite layer is fully painted.

// PullPolicy selects how an idle processor chooses its next cell.
type PullPolicy uint8

// Pull policies.
const (
	PullOrdered PullPolicy = iota
	PullColorAffinity
)

// String names the policy.
func (p PullPolicy) String() string {
	switch p {
	case PullOrdered:
		return "pull-ordered"
	case PullColorAffinity:
		return "pull-color-affinity"
	default:
		return fmt.Sprintf("pull-policy(%d)", uint8(p))
	}
}

// DynamicConfig describes a self-scheduled run.
type DynamicConfig struct {
	// Flag and W, H define the workload (the full layered paint job).
	Flag *flagspec.Flag
	W, H int
	// Procs are the students; any number >= 1.
	Procs []*processor.Processor
	// Set is the shared implement pool.
	Set *implement.Set
	// Policy selects the pull rule; default PullOrdered.
	Policy PullPolicy
	// Setup is the serial organization phase.
	Setup time.Duration
	// Trace records spans.
	Trace bool
	// Probes observe engine events.
	Probes []Probe
	// Faults, when non-nil, injects deterministic faults into the run;
	// see FaultInjector.
	Faults FaultInjector
	// Arena, when non-nil, runs through the caller-owned arena (the
	// Result aliases arena memory — see Config.Arena and arena.go).
	Arena *Arena
	// Geometry, when non-nil, is Flag's precomputed raster at the run's
	// size (see workplan.Geometry); the run plans from it instead of
	// rasterizing the flag. A geometry of another flag or size is an
	// error.
	Geometry *workplan.Geometry
}

// bagSource is the self-scheduling policy: a shared bag of unclaimed
// tasks, pulled at run time under the configured policy. Processors that
// find no available work park globally and wake on any layer completion.
//
// Layout: the bag is an intrusive doubly-linked ring per layer, threaded
// through index arrays over the fixed sequential task list. Claiming
// unlinks a node and requeueing relinks it at the ring's front — both
// O(1) with zero allocation and zero copying, where the slice-splice
// representation this replaced spent half the dynamic executor's CPU in
// memmove. Per-layer color counts let the affinity policy skip whole
// layers without walking their rings.
type bagSource struct {
	policy PullPolicy
	// tasks is the sequential task list (one entry per layer cell), read
	// only; ring links address tasks by index into it.
	tasks []workplan.Task
	// next and prev hold the rings. Nodes 0..len(tasks)-1 are tasks;
	// node len(tasks)+l is layer l's sentinel. next[sentinel] is the
	// layer's head (claim order), prev[sentinel] its tail.
	next, prev []int32
	nlayers    int
	w, wh      int
	// taskIdx maps layer*wh + y*w + x to the task's ring node, for O(1)
	// requeue of a claimed task.
	taskIdx []int32
	// colorCount[l][c] counts bagged tasks of color c in layer l.
	colorCount [][palette.NColors]int32
	// bagged counts unclaimed tasks across all layers.
	bagged int
	// idle marks processors parked because nothing was available.
	idle []bool
	// rec records executed tasks per proc, for the Result's plan.
	rec *assignRecorder

	// Initial-state snapshot, keyed on the task list identity. Rebinding
	// to the same tasks (the arena caches the sequential plan, so warm
	// runs always are) restores the rings with three bulk copies instead
	// of relinking every node. taskIdx is not snapshotted: claims and
	// requeues never modify it, so it stays valid as built.
	initFor            *workplan.Task
	initN, initLayers  int
	initW              int
	initNext, initPrev []int32
	initColor          [][palette.NColors]int32
}

// sentinel returns layer l's ring sentinel node.
func (s *bagSource) sentinel(l int) int32 { return int32(len(s.tasks) + l) }

// bagSourceFor rebinds the arena's bag policy to a fresh run over tasks.
func (a *Arena) bagSourceFor(policy PullPolicy, layers, procs int, tasks []workplan.Task, w, h int) *bagSource {
	s := &a.bag
	s.policy = policy
	s.tasks = tasks
	s.nlayers = layers
	s.w, s.wh = w, w*h
	n := len(tasks)
	sz := n + layers
	// Same task list as the previous build (the arena pins the cached
	// sequential plan, so the pointer identifies immutable content, like
	// the other pointer-keyed caches): restore the snapshot instead of
	// relinking node by node.
	if n > 0 && s.initFor == &tasks[0] && s.initN == n && s.initLayers == layers && s.initW == w {
		copy(s.next, s.initNext)
		copy(s.prev, s.initPrev)
		copy(s.colorCount, s.initColor)
	} else {
		if cap(s.next) < sz {
			s.next = make([]int32, sz)
			s.prev = make([]int32, sz)
		} else {
			s.next = s.next[:sz]
			s.prev = s.prev[:sz]
		}
		if cap(s.colorCount) < layers {
			s.colorCount = make([][palette.NColors]int32, layers)
		} else {
			s.colorCount = s.colorCount[:layers]
		}
		for l := range s.colorCount {
			s.colorCount[l] = [palette.NColors]int32{}
		}
		for l := 0; l < layers; l++ {
			si := int32(n + l)
			s.next[si], s.prev[si] = si, si
		}
		idxLen := layers * s.wh
		if cap(s.taskIdx) < idxLen {
			s.taskIdx = make([]int32, idxLen)
		} else {
			s.taskIdx = s.taskIdx[:idxLen]
		}
		for i, t := range tasks {
			// Append at the layer tail: rings hold tasks in input (reading)
			// order, exactly the claim order of the slice bag this replaced.
			si := s.sentinel(t.Layer)
			node := int32(i)
			last := s.prev[si]
			s.next[last] = node
			s.prev[node] = last
			s.next[node] = si
			s.prev[si] = node
			s.colorCount[t.Layer][t.Color]++
			s.taskIdx[t.Layer*s.wh+t.Cell.Y*s.w+t.Cell.X] = node
		}
		if n > 0 {
			if cap(s.initNext) < sz {
				s.initNext = make([]int32, sz)
				s.initPrev = make([]int32, sz)
			} else {
				s.initNext = s.initNext[:sz]
				s.initPrev = s.initPrev[:sz]
			}
			if cap(s.initColor) < layers {
				s.initColor = make([][palette.NColors]int32, layers)
			} else {
				s.initColor = s.initColor[:layers]
			}
			copy(s.initNext, s.next)
			copy(s.initPrev, s.prev)
			copy(s.initColor, s.colorCount)
			s.initFor, s.initN, s.initLayers, s.initW = &tasks[0], n, layers, w
		}
	}
	s.bagged = n
	if cap(s.idle) < procs {
		s.idle = make([]bool, procs)
	} else {
		s.idle = s.idle[:procs]
	}
	for i := range s.idle {
		s.idle[i] = false
	}
	s.rec = &a.rec
	s.rec.reset(procs, n)
	return s
}

// available reports whether layer l has unclaimed tasks whose
// prerequisites are all complete.
func (s *bagSource) available(e *Engine, l int) bool {
	if _, blocked := e.LayerBlocked(l); blocked {
		return false
	}
	si := s.sentinel(l)
	return s.next[si] != si
}

// claim unlinks ring node i and returns its task.
func (s *bagSource) claim(i int32) workplan.Task {
	s.next[s.prev[i]] = s.next[i]
	s.prev[s.next[i]] = s.prev[i]
	t := s.tasks[i]
	s.colorCount[t.Layer][t.Color]--
	s.bagged--
	return t
}

// nextTask claims the next available task for processor pi under the
// configured policy, or reports none.
func (s *bagSource) nextTask(e *Engine, pi int) (workplan.Task, bool) {
	if s.policy == PullColorAffinity {
		if holding := e.Holding(pi); holding != nil {
			// Prefer cells matching the implement in hand. The per-layer
			// color counts skip layers with no match without a ring walk.
			c := holding.Color
			for l := 0; l < s.nlayers; l++ {
				if s.colorCount[l][c] == 0 || !s.available(e, l) {
					continue
				}
				si := s.sentinel(l)
				for i := s.next[si]; i != si; i = s.next[i] {
					if s.tasks[i].Color == c {
						return s.claim(i), true
					}
				}
			}
		} else {
			// Empty-handed: prefer a color whose implement is free right
			// now — a student grabs an idle marker rather than queueing
			// behind a teammate. Layers with no free-implement color are
			// skipped by count before walking the ring.
			for l := 0; l < s.nlayers; l++ {
				if !s.available(e, l) {
					continue
				}
				anyFree := false
				for c := palette.Color(1); c < palette.NColors; c++ {
					if s.colorCount[l][c] > 0 && e.HasFreeImplement(c) {
						anyFree = true
						break
					}
				}
				if !anyFree {
					continue
				}
				si := s.sentinel(l)
				for i := s.next[si]; i != si; i = s.next[i] {
					if e.HasFreeImplement(s.tasks[i].Color) {
						return s.claim(i), true
					}
				}
			}
		}
	}
	for l := 0; l < s.nlayers; l++ {
		if s.available(e, l) {
			return s.claim(s.next[s.sentinel(l)]), true
		}
	}
	return workplan.Task{}, false
}

// Select implements TaskSource: claim a task, park when cells remain but
// are dependency-blocked, retire when the bag is empty (in-flight cells
// may still be painting).
func (s *bagSource) Select(e *Engine, pi int) Selection {
	if task, ok := s.nextTask(e, pi); ok {
		return Selection{Kind: SelectTask, Task: task}
	}
	if s.bagged > 0 {
		return Selection{Kind: SelectWait}
	}
	return Selection{Kind: SelectDone}
}

// Requeue implements TaskSource: the task goes back to the front of its
// layer (after pickup the processor re-advances and claims again,
// possibly the same cell).
func (s *bagSource) Requeue(_ *Engine, _ int, task workplan.Task) {
	i := s.taskIdx[task.Layer*s.wh+task.Cell.Y*s.w+task.Cell.X]
	si := s.sentinel(task.Layer)
	first := s.next[si]
	s.next[si] = i
	s.prev[i] = si
	s.next[i] = first
	s.prev[first] = i
	s.colorCount[task.Layer][task.Color]++
	s.bagged++
}

// Park implements TaskSource: pi idles until any layer completes.
func (s *bagSource) Park(_ *Engine, pi int, _ Selection) {
	s.idle[pi] = true
}

// CellDone implements TaskSource: record the assignment and wake every
// idle processor when a layer completes (new work may be available).
func (s *bagSource) CellDone(e *Engine, pi int, task workplan.Task) {
	s.rec.record(pi, task)
	if e.LayerRemaining(task.Layer) != 0 {
		return
	}
	for w, parked := range s.idle {
		if !parked {
			continue
		}
		s.idle[w] = false
		e.Wake(w)
	}
}

// HasMore implements TaskSource.
func (s *bagSource) HasMore(*Engine, int) bool { return s.bagged > 0 }

// CheckComplete implements TaskSource.
func (s *bagSource) CheckComplete(e *Engine) error {
	for l := 0; l < e.Layers(); l++ {
		if remaining := e.LayerRemaining(l); remaining != 0 {
			return fmt.Errorf("sim: dynamic run stalled with %d cells left", remaining)
		}
	}
	return nil
}

// RunDynamic executes the self-scheduled run.
func RunDynamic(cfg DynamicConfig) (*Result, error) { return RunDynamicCtx(nil, cfg) }

// RunDynamicCtx is RunDynamic with a cancellation context (see RunCtx).
func RunDynamicCtx(ctx context.Context, cfg DynamicConfig) (*Result, error) {
	a, pooled := acquireArena(cfg.Arena)
	if pooled {
		defer arenaPool.Put(a)
	}
	if cfg.Flag == nil {
		return nil, fmt.Errorf("sim: nil flag")
	}
	w, h := cfg.W, cfg.H
	if w <= 0 {
		w = cfg.Flag.DefaultW
	}
	if h <= 0 {
		h = cfg.Flag.DefaultH
	}
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("sim: no processors")
	}
	if cfg.Set == nil {
		return nil, fmt.Errorf("sim: nil implement set")
	}
	// The flag's colours are memoized on the flag pointer, which the
	// arena pins; the set, fresh per run for most callers, is checked
	// against them on every run.
	if a.vDynFlag != cfg.Flag {
		a.vDynFlag, a.vDynColors = cfg.Flag, cfg.Flag.Colors()
	}
	if err := cfg.Set.Covers(a.vDynColors); err != nil {
		return nil, err
	}
	if cfg.Setup < 0 {
		return nil, fmt.Errorf("sim: negative setup")
	}
	if cfg.Geometry != nil {
		if err := cfg.Geometry.Match(cfg.Flag, w, h); err != nil {
			return nil, err
		}
	}
	// Build the bag from a sequential plan: one entry per (layer, cell).
	// The decomposition is pure in (flag, w, h), so the arena caches it.
	var seq *workplan.Plan
	if a.seqFlag == cfg.Flag && a.seqW == w && a.seqH == h {
		seq = a.seqPlan
	} else {
		geo := cfg.Geometry
		if geo == nil {
			geo = workplan.NewGeometry(cfg.Flag, w, h)
		}
		var err error
		seq, err = geo.Sequential()
		if err != nil {
			return nil, err
		}
		a.seqFlag, a.seqW, a.seqH, a.seqPlan = cfg.Flag, w, h, seq
	}
	source := a.bagSourceFor(cfg.Policy, len(cfg.Flag.Layers), len(cfg.Procs), seq.PerProc[0], w, h)
	e := a.bind(engineConfig{
		ctx:            ctx,
		source:         source,
		procs:          cfg.Procs,
		set:            cfg.Set,
		setup:          cfg.Setup,
		trace:          cfg.Trace,
		probes:         cfg.Probes,
		faults:         cfg.Faults,
		w:              w,
		h:              h,
		layerDeps:      seq.LayerDeps,
		layerCellCount: seq.LayerCellCount,
	})
	makespan, err := e.run()
	if err != nil {
		return nil, err
	}

	// Synthesize the executed assignment as a Plan so the Result carries
	// the usual workload description.
	if a.stratDyn == "" || a.stratPolicy != cfg.Policy || a.stratProcs != len(cfg.Procs) {
		a.stratPolicy, a.stratProcs = cfg.Policy, len(cfg.Procs)
		a.stratDyn = fmt.Sprintf("dynamic-%s(p=%d)", cfg.Policy, len(cfg.Procs))
	}
	var plan *workplan.Plan
	if a.owned {
		plan = &a.synthPlan
	} else {
		plan = &workplan.Plan{}
	}
	*plan = workplan.Plan{
		FlagName: cfg.Flag.Name, W: w, H: h,
		Strategy:       a.stratDyn,
		PerProc:        a.rec.materialize(a, len(cfg.Procs)),
		LayerDeps:      seq.LayerDeps,
		LayerCellCount: seq.LayerCellCount,
		Overpainted:    true,
	}
	res := a.buildResult(e, plan, makespan)
	e.notifyResult(res)
	return res, nil
}
