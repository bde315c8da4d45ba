package workplan

import (
	"fmt"
	"math/bits"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
)

// Geometry is a flag's raster at one size, computed once and read by
// every planner and every final-grid check of that (flag, size): each
// layer's cells in reading order, each layer's cell count, each layer's
// dependencies, and the reference grid. In the activity the flag is
// gridded onto the handout once and every team and scenario colours
// that same handout; a Geometry is that handout.
//
// A Geometry is immutable once built and safe to share between
// goroutines. Plans built from it alias its dependency and count
// slices, so neither it nor what its accessors return may be modified.
type Geometry struct {
	flag   *flagspec.Flag
	w, h   int
	cells  [][]geom.Pt
	counts []int
	deps   [][]int
	ref    *grid.Grid
	refErr error
}

// NewGeometry rasterizes f at w×h with one Shape.Contains test per layer
// per cell, on each layer's shape prepared for w×h (geom.Prepare). The
// cells equal grid.LayerCells(f, w, h), the dependencies are each
// layer's explicit DependsOn plus the earlier layers it overlaps
// (flagspec.Flag.Overlaps), sorted, and the reference grid is what
// grid.Rasterize(f, w, h) returns, errors included.
func NewGeometry(f *flagspec.Flag, w, h int) *Geometry {
	nl := len(f.Layers)
	g := &Geometry{flag: f, w: w, h: h,
		cells: make([][]geom.Pt, nl), counts: make([]int, nl), deps: make([][]int, nl)}
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
	// wait for.
	words := (nl + 63) / 64
	cover := make([]uint64, cellsN*words)
	waits := make([]uint64, nl*words)
	all := make([]geom.Pt, 0, cellsN)
	var index map[string]int
	for li, layer := range f.Layers {
		wait := waits[li*words : (li+1)*words]
		wi, bit := li/64, uint64(1)<<(li%64)
		n := len(all)
		shape := geom.Prepare(layer.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Pt{X: x, Y: y}
				if !shape.Contains(p, w, h) {
					continue
				}
				all = append(all, p)
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
		g.counts[li] = len(all) - n
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
	// Carve the layers out of the final backing array, so that growth
	// while appending leaves no layer on a discarded one.
	start := 0
	for li, n := range g.counts {
		if n > 0 {
			g.cells[li] = all[start : start+n : start+n]
		}
		start += n
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

// LayerCells returns each layer's cells in reading order, nil for a
// layer that covers none. Shared: do not modify.
func (g *Geometry) LayerCells() [][]geom.Pt { return g.cells }

// LayerCellCount returns each layer's cell count. Shared: do not modify.
func (g *Geometry) LayerCellCount() []int { return g.counts }

// LayerDeps returns each layer's prerequisite layers, sorted, empty but
// never nil for an independent layer. Shared: do not modify.
func (g *Geometry) LayerDeps() [][]int { return g.deps }

// cellTotal returns the number of cells over all layers, overpaints
// included: the task count of a full-layer plan.
func (g *Geometry) cellTotal() int {
	total := 0
	for _, n := range g.counts {
		total += n
	}
	return total
}

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
