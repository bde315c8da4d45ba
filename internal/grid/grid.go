// Package grid implements the pixel grid the activity's "processors" paint:
// storage, paint operations, rasterization of flag specs, comparison, and
// region extraction. Rendering to ASCII/PPM/SVG lives in render.go.
//
// A Grid is the shared mutable state of a simulation run. The deterministic
// discrete-event executor paints it from a single goroutine; the concurrent
// executor paints it from many, so the paint path uses a per-grid mutex
// guarded variant (PaintLocked) rather than requiring callers to serialize.
package grid

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/palette"
)

// Grid is a W×H cell canvas. Cells start as palette.None (bare paper).
type Grid struct {
	w, h  int
	cells []palette.Color

	mu     sync.Mutex
	paints int // total paint operations, including overpaints
}

// New returns a blank w×h grid. It panics on non-positive dimensions, which
// are always a programming error.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: non-positive size %dx%d", w, h))
	}
	return &Grid{w: w, h: h, cells: make([]palette.Color, w*h)}
}

// Reuse resizes g to a blank w×h grid in place, keeping the cell backing
// array whenever its capacity suffices — the arena path for simulation
// runs that recycle one grid across many runs instead of allocating a
// fresh canvas per run. Like New it panics on non-positive dimensions.
func (g *Grid) Reuse(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: non-positive size %dx%d", w, h))
	}
	n := w * h
	if cap(g.cells) < n {
		g.cells = make([]palette.Color, n)
	} else {
		g.cells = g.cells[:n]
		for i := range g.cells {
			g.cells[i] = palette.None
		}
	}
	g.w, g.h = w, h
	g.paints = 0
}

// W returns the grid width in cells.
func (g *Grid) W() int { return g.w }

// H returns the grid height in cells.
func (g *Grid) H() int { return g.h }

// Bounds returns the full-grid rectangle.
func (g *Grid) Bounds() geom.Rect { return geom.R(0, 0, g.w, g.h) }

// At returns the color of cell p. Out-of-bounds reads return palette.None.
func (g *Grid) At(p geom.Pt) palette.Color {
	if !p.In(g.Bounds()) {
		return palette.None
	}
	return g.cells[p.Y*g.w+p.X]
}

// Paint colors cell p. Painting out of bounds is reported as an error
// rather than a panic: in the simulator it corresponds to a mis-assigned
// task, which the scheduler surfaces as a failed run.
func (g *Grid) Paint(p geom.Pt, c palette.Color) error {
	if !p.In(g.Bounds()) {
		return fmt.Errorf("grid: paint outside %dx%d grid at %v", g.w, g.h, p)
	}
	if !c.Valid() {
		return fmt.Errorf("grid: invalid color %d", uint8(c))
	}
	g.cells[p.Y*g.w+p.X] = c
	g.paints++
	return nil
}

// PaintLocked is Paint under the grid's mutex, for the concurrent executor
// where multiple processor goroutines share one grid.
func (g *Grid) PaintLocked(p geom.Pt, c palette.Color) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Paint(p, c)
}

// PaintCount returns the total number of successful paint operations,
// counting overpaints. For a layered flag this exceeds the cell count; the
// difference is exactly the overpaint work the Painter's algorithm trades
// for simpler geometry (§III-D).
func (g *Grid) PaintCount() int { return g.paints }

// PaintedCells returns the number of cells that are not palette.None.
func (g *Grid) PaintedCells() int {
	n := 0
	for _, c := range g.cells {
		if c != palette.None {
			n++
		}
	}
	return n
}

// Clone returns a deep copy (paint counter included).
func (g *Grid) Clone() *Grid {
	out := New(g.w, g.h)
	copy(out.cells, g.cells)
	out.paints = g.paints
	return out
}

// Reset blanks every cell and zeroes the paint counter.
func (g *Grid) Reset() {
	for i := range g.cells {
		g.cells[i] = palette.None
	}
	g.paints = 0
}

// Equal reports whether g and o have identical size and cell colors.
func (g *Grid) Equal(o *Grid) bool {
	if g.w != o.w || g.h != o.h {
		return false
	}
	return g.diffCount(o) == 0
}

// EqualAssumingWhitePaper is Equal except that None and White compare
// equal, matching the paper's grading rule that leaving white regions
// unpainted is correct because the paper is already white (§V-C).
func (g *Grid) EqualAssumingWhitePaper(o *Grid) bool {
	if g.w != o.w || g.h != o.h {
		return false
	}
	norm := func(c palette.Color) palette.Color {
		if c == palette.None {
			return palette.White
		}
		return c
	}
	for i := range g.cells {
		if norm(g.cells[i]) != norm(o.cells[i]) {
			return false
		}
	}
	return true
}

// Diff returns the cells at which g and o differ. Both grids must have the
// same dimensions.
func (g *Grid) Diff(o *Grid) ([]geom.Pt, error) {
	if g.w != o.w || g.h != o.h {
		return nil, fmt.Errorf("grid: diff of %dx%d against %dx%d", g.w, g.h, o.w, o.h)
	}
	var out []geom.Pt
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			if g.cells[y*g.w+x] != o.cells[y*g.w+x] {
				out = append(out, geom.Pt{X: x, Y: y})
			}
		}
	}
	return out, nil
}

func (g *Grid) diffCount(o *Grid) int {
	n := 0
	for i := range g.cells {
		if g.cells[i] != o.cells[i] {
			n++
		}
	}
	return n
}

// CellsOfColor returns all cells with color c in row-major order.
func (g *Grid) CellsOfColor(c palette.Color) []geom.Pt {
	var out []geom.Pt
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			if g.cells[y*g.w+x] == c {
				out = append(out, geom.Pt{X: x, Y: y})
			}
		}
	}
	return out
}

// ColorHistogram returns the number of cells of each color.
func (g *Grid) ColorHistogram() map[palette.Color]int {
	out := make(map[palette.Color]int)
	for _, c := range g.cells {
		out[c]++
	}
	return out
}

// Rasterize paints flag f onto a fresh grid of the given size, honoring
// layer order. This is the reference image every simulation run is checked
// against: a run is correct only if its final grid matches Rasterize's.
func Rasterize(f *flagspec.Flag, w, h int) (*Grid, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	g := New(w, h)
	for _, layer := range f.Layers {
		shape := geom.Prepare(layer.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Pt{X: x, Y: y}
				if shape.Contains(p, w, h) {
					if err := g.Paint(p, layer.Color); err != nil {
						return nil, fmt.Errorf("rasterize %s/%s: %w", f.Name, layer.Name, err)
					}
				}
			}
		}
	}
	return g, nil
}

// RasterizeDefault rasterizes f at its handout dimensions.
func RasterizeDefault(f *flagspec.Flag) (*Grid, error) {
	return Rasterize(f, f.DefaultW, f.DefaultH)
}

// LayerCells returns, per layer of f at size w×h, the cells that layer
// covers. Together with the flag's dependency edges this is the raw
// material of every decomposition in package workplan.
func LayerCells(f *flagspec.Flag, w, h int) [][]geom.Pt {
	out := make([][]geom.Pt, len(f.Layers))
	for i, layer := range f.Layers {
		shape := geom.Prepare(layer.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Pt{X: x, Y: y}
				if shape.Contains(p, w, h) {
					out[i] = append(out[i], p)
				}
			}
		}
	}
	return out
}

// VisibleLayerCells returns, per layer, the cells where that layer is the
// topmost (final) color — i.e. the cells a "smart" non-layered plan would
// paint exactly once. The difference between LayerCells and
// VisibleLayerCells across a flag quantifies overpaint.
func VisibleLayerCells(f *flagspec.Flag, w, h int) [][]geom.Pt {
	top := make([]int, w*h)
	for i := range top {
		top[i] = -1
	}
	for li, layer := range f.Layers {
		shape := geom.Prepare(layer.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if shape.Contains(geom.Pt{X: x, Y: y}, w, h) {
					top[y*w+x] = li
				}
			}
		}
	}
	out := make([][]geom.Pt, len(f.Layers))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if li := top[y*w+x]; li >= 0 {
				out[li] = append(out[li], geom.Pt{X: x, Y: y})
			}
		}
	}
	return out
}

// String renders the grid as ASCII art, one rune per cell.
func (g *Grid) String() string {
	var b strings.Builder
	b.Grow((g.w + 1) * g.h)
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			b.WriteRune(g.cells[y*g.w+x].Rune())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// digestChunk is how many bytes of String()'s form Digest renders before
// handing them to the hash: a stack buffer, so Digest allocates nothing
// whatever the grid's size.
const digestChunk = 512

// glyph maps every colour byte to the one-byte rune String() renders it
// as: palette runes are ASCII, '?' for an invalid colour included.
var glyph = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(palette.Color(i).Rune())
	}
	return t
}()

// Digest returns sha256.Sum256([]byte(g.String())) without building the
// string: rows are rendered chunk by chunk into a stack buffer and hashed
// as they go. It allocates nothing.
func (g *Grid) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [digestChunk]byte
	n := 0
	for y := 0; y < g.h; y++ {
		row := g.cells[y*g.w : (y+1)*g.w]
		for len(row) > 0 {
			if n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
			src := row[:min(len(row), len(buf)-n)]
			dst := buf[n : n+len(src)]
			for i, c := range src {
				dst[i] = glyph[c]
			}
			n += len(src)
			row = row[len(src):]
		}
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		buf[n] = '\n'
		n++
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
