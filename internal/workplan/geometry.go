package workplan

import (
	"fmt"
	"math/bits"
	"sync"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
)

// Geometry is a flag's raster at one size, computed once and read by
// every planner and every final-grid check of that (flag, size): the
// sequential task list (every layer's cells as tasks, layer by layer,
// each layer in reading order), each layer's cell count, each layer's
// dependencies, and the reference grid. In the activity the flag is
// gridded onto the handout once and every team and scenario colours
// that same handout; a Geometry is that handout.
//
// A Geometry also memoizes every plan it returns, keyed by strategy and
// parameters: the first call builds and validates the plan, and every
// later call, from any goroutine, returns the same *Plan. Sequential and
// LayerBlocks carve their task lists out of the geometry's own task
// array instead of copying it.
//
// A Geometry is immutable once built, apart from its plan memo, and
// safe to share between goroutines. Plans built from it alias its task
// array and its dependency and count slices, so neither it, what its
// accessors return, nor any plan it returns may be modified.
type Geometry struct {
	flag *flagspec.Flag
	w, h int
	// tasks is the sequential task list; layers[l] is layer l's part
	// of it, capped, nil for a layer with no cells.
	tasks  []Task
	layers [][]Task
	counts []int
	deps   [][]int
	ref    *grid.Grid
	refErr error

	// plans memoizes the plans returned so far. A batch geometry sees
	// only a few strategies, so a short slice is searched linearly.
	mu    sync.Mutex
	plans []*planEntry
}

// planKey names a memoized plan: the planner and its parameters.
type planKey struct {
	strategy  planner
	p, gx, gy int
	rotate    bool
	order     Ordering
}

// planner identifies the Geometry method that builds a plan.
type planner uint8

const (
	plannerLayerBlocks planner = iota
	plannerVerticalSlices
	plannerBlocks
	plannerCyclic
	plannerSequentialOrdered
)

// planEntry is one memoized plan, built by its key's first caller.
type planEntry struct {
	key  planKey
	once sync.Once
	plan *Plan
	err  error
}

// NewGeometry rasterizes f at w×h with one Shape.Contains test per layer
// per cell, on each layer's shape prepared for w×h (geom.Prepare). Each
// layer's cells equal grid.LayerCells(f, w, h), the dependencies are
// each layer's explicit DependsOn plus the earlier layers it overlaps
// (flagspec.Flag.Overlaps), sorted, and the reference grid is what
// grid.Rasterize(f, w, h) returns, errors included.
func NewGeometry(f *flagspec.Flag, w, h int) *Geometry {
	nl := len(f.Layers)
	g := &Geometry{flag: f, w: w, h: h,
		layers: make([][]Task, nl), counts: make([]int, nl), deps: make([][]int, nl)}
	if err := f.Validate(); err != nil {
		g.refErr = err
	} else if w <= 0 || h <= 0 {
		g.refErr = fmt.Errorf("workplan: no reference grid at %dx%d", w, h)
	} else {
		g.ref = grid.New(w, h)
	}
	cellsN := max(w, 0) * max(h, 0)
	// Bitsets of layer indices, words wide: cover[c] holds the layers
	// painted so far that contain cell c, waits[l] the layers l must
	// wait for. Once every layer is tested, cover holds each layer's
	// cells, so the task array is sized exactly and filled afterwards.
	words := (nl + 63) / 64
	cover := make([]uint64, cellsN*words)
	waits := make([]uint64, nl*words)
	var index map[string]int
	for li, layer := range f.Layers {
		wait := waits[li*words : (li+1)*words]
		wi, bit := li/64, uint64(1)<<(li%64)
		n := 0
		shape := geom.Prepare(layer.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Pt{X: x, Y: y}
				if !shape.Contains(p, w, h) {
					continue
				}
				n++
				c := (y*w + x) * words
				for k := range wait {
					wait[k] |= cover[c+k]
				}
				cover[c+wi] |= bit
				if g.ref != nil {
					if err := g.ref.Paint(p, layer.Color); err != nil {
						g.ref, g.refErr = nil, fmt.Errorf("rasterize %s/%s: %w", f.Name, layer.Name, err)
					}
				}
			}
		}
		g.counts[li] = n
		if len(layer.DependsOn) > 0 && index == nil {
			index = make(map[string]int, nl)
			for i, l := range f.Layers {
				index[l.Name] = i
			}
		}
		for _, dep := range layer.DependsOn {
			d := index[dep]
			wait[d/64] |= 1 << (d % 64)
		}
	}
	cells := 0
	for _, n := range g.counts {
		cells += n
	}
	g.tasks = make([]Task, 0, cells)
	for li, layer := range f.Layers {
		if g.counts[li] == 0 {
			continue
		}
		start := len(g.tasks)
		wi, bit := li/64, uint64(1)<<(li%64)
		for c := 0; c < cellsN; c++ {
			if cover[c*words+wi]&bit != 0 {
				g.tasks = append(g.tasks, Task{Cell: geom.Pt{X: c % w, Y: c / w}, Color: layer.Color, Layer: li})
			}
		}
		g.layers[li] = g.tasks[start:len(g.tasks):len(g.tasks)]
	}
	total := 0
	for _, word := range waits {
		total += bits.OnesCount64(word)
	}
	buf := make([]int, 0, total)
	for li := range g.deps {
		start := len(buf)
		for k, word := range waits[li*words : (li+1)*words] {
			for ; word != 0; word &= word - 1 {
				buf = append(buf, k*64+bits.TrailingZeros64(word))
			}
		}
		g.deps[li] = buf[start:len(buf):len(buf)]
	}
	return g
}

// Flag returns the flag the geometry rasterizes.
func (g *Geometry) Flag() *flagspec.Flag { return g.flag }

// Size returns the raster size.
func (g *Geometry) Size() (w, h int) { return g.w, g.h }

// LayerTasks returns each layer's cells as tasks, in reading order, nil
// for a layer that covers none: the sequential task list cut at layer
// boundaries. Shared: do not modify.
func (g *Geometry) LayerTasks() [][]Task { return g.layers }

// LayerCellCount returns each layer's cell count. Shared: do not modify.
func (g *Geometry) LayerCellCount() []int { return g.counts }

// LayerDeps returns each layer's prerequisite layers, sorted, empty but
// never nil for an independent layer. Shared: do not modify.
func (g *Geometry) LayerDeps() [][]int { return g.deps }

// Reference returns the flag's reference raster, the image every run of
// this geometry must leave, or the error grid.Rasterize would return.
// Shared: do not modify.
func (g *Geometry) Reference() (*grid.Grid, error) { return g.ref, g.refErr }

// Match reports an error unless the geometry is f's at w×h: a geometry
// is never silently used for another flag or size.
func (g *Geometry) Match(f *flagspec.Flag, w, h int) error {
	if g.flag != f || g.w != w || g.h != h {
		return fmt.Errorf("workplan: geometry of %s at %dx%d given for %s at %dx%d",
			g.flag.Name, g.w, g.h, f.Name, w, h)
	}
	return nil
}

// memo returns the plan memoized under k, building it with g.build on
// k's first call. Concurrent first calls wait for that one build.
func (g *Geometry) memo(k planKey) (*Plan, error) {
	g.mu.Lock()
	var e *planEntry
	for _, c := range g.plans {
		if c.key == k {
			e = c
			break
		}
	}
	if e == nil {
		e = &planEntry{key: k}
		g.plans = append(g.plans, e)
	}
	g.mu.Unlock()
	e.once.Do(func() { e.plan, e.err = g.build(k) })
	return e.plan, e.err
}

// build runs the planner k names.
func (g *Geometry) build(k planKey) (*Plan, error) {
	switch k.strategy {
	case plannerLayerBlocks:
		return g.layerBlocks(k.p)
	case plannerVerticalSlices:
		return g.verticalSlices(k.p, k.rotate)
	case plannerBlocks:
		return g.blocks(k.p, k.gx, k.gy)
	case plannerCyclic:
		return g.cyclic(k.p)
	default:
		return g.sequentialOrdered(k.order)
	}
}
