// Package geom provides the small integer geometry toolkit used to describe
// flags and grids: points, rectangles, and scan-conversion of the shapes
// that appear on the flags used by the activity (stripes, crosses,
// diagonals, triangles, discs, stars, and the maple leaf).
//
// All coordinates are grid-cell coordinates: x grows rightward, y grows
// downward, and a cell is identified by its top-left corner. Shapes report
// membership per cell center, which keeps rasterization exact and
// resolution-independent for the simple geometry flags use.
package geom

import "fmt"

// Pt is a grid cell coordinate.
type Pt struct {
	X, Y int
}

// Add returns p translated by q.
func (p Pt) Add(q Pt) Pt { return Pt{p.X + q.X, p.Y + q.Y} }

// In reports whether p lies inside r.
func (p Pt) In(r Rect) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// String returns "(x,y)".
func (p Pt) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// ManhattanDist returns the L1 distance between p and q, the cost model for
// a student moving their implement between cells.
func (p Pt) ManhattanDist(q Pt) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Rect is a half-open cell rectangle [Min.X, Max.X) × [Min.Y, Max.Y).
type Rect struct {
	Min, Max Pt
}

// R is shorthand for constructing a Rect from edges.
func R(x0, y0, x1, y1 int) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{Pt{x0, y0}, Pt{x1, y1}}
}

// Dx returns the width of r in cells.
func (r Rect) Dx() int { return r.Max.X - r.Min.X }

// Dy returns the height of r in cells.
func (r Rect) Dy() int { return r.Max.Y - r.Min.Y }

// Area returns the number of cells in r.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Empty reports whether r contains no cells.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Intersect returns the largest rectangle contained in both r and s.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Pt{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Pt{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Contains reports whether s is entirely within r.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Min.Y >= r.Min.Y &&
		s.Max.X <= r.Max.X && s.Max.Y <= r.Max.Y
}

// String returns "[x0,y0)-[x1,y1)".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)-(%d,%d)", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

// Cells returns every cell in r, in row-major order. Row-major is the
// activity's canonical "reading order": the paper's scenario slides number
// cells so students fill them left-to-right, top-to-bottom.
func (r Rect) Cells() []Pt {
	out := make([]Pt, 0, r.Area())
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			out = append(out, Pt{x, y})
		}
	}
	return out
}

// SplitRows partitions r into n horizontal bands of near-equal height, top
// to bottom. Extra rows go to the earlier bands. Bands may be empty when
// n exceeds the height.
func (r Rect) SplitRows(n int) []Rect {
	return splitAxis(r, n, true)
}

// SplitCols partitions r into n vertical bands of near-equal width, left to
// right. This is the scenario-4 "vertical slice" decomposition.
func (r Rect) SplitCols(n int) []Rect {
	return splitAxis(r, n, false)
}

func splitAxis(r Rect, n int, rows bool) []Rect {
	if n <= 0 {
		panic("geom: split into non-positive parts")
	}
	size := r.Dx()
	if rows {
		size = r.Dy()
	}
	out := make([]Rect, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		extent := size / n
		if i < size%n {
			extent++
		}
		end := start + extent
		if rows {
			out = append(out, R(r.Min.X, r.Min.Y+start, r.Max.X, r.Min.Y+end))
		} else {
			out = append(out, R(r.Min.X+start, r.Min.Y, r.Min.X+end, r.Max.Y))
		}
		start = end
	}
	return out
}

// Shape is anything that can report cell membership. The rasterizer in
// package grid asks each shape once per cell.
type Shape interface {
	// Contains reports whether the center of cell p is inside the shape
	// when the shape is laid out on a canvas of the given width and height
	// in cells. Shapes are defined in normalized [0,1]×[0,1] space so one
	// flag spec rasterizes at any grid resolution.
	Contains(p Pt, w, h int) bool
}

// Preparer is implemented by shapes that have per-canvas work to do
// once rather than on every Contains call. Every loop that tests a
// shape over a whole raster prepares it first (see Prepare).
type Preparer interface {
	// Prepare returns a shape whose Contains answers exactly as the
	// receiver's does, at any size, and faster at w×h.
	Prepare(w, h int) Shape
}

// Prepare returns s prepared for a w×h canvas when s is a Preparer, and
// s itself otherwise.
func Prepare(s Shape, w, h int) Shape {
	if p, ok := s.(Preparer); ok {
		return p.Prepare(w, h)
	}
	return s
}

// center maps cell p on a w×h canvas to normalized coordinates of its
// center point.
func center(p Pt, w, h int) (float64, float64) {
	return (float64(p.X) + 0.5) / float64(w), (float64(p.Y) + 0.5) / float64(h)
}

// Full covers the whole canvas; flags use it for background layers.
type Full struct{}

// Contains always reports true.
func (Full) Contains(Pt, int, int) bool { return true }

// Band is a normalized axis-aligned rectangle [X0,X1)×[Y0,Y1).
type Band struct {
	X0, Y0, X1, Y1 float64
}

// Contains reports whether the cell center lies in the band.
func (b Band) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	return x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1
}

// HStripe returns the i-th of n equal horizontal stripes.
func HStripe(i, n int) Band {
	return Band{0, float64(i) / float64(n), 1, float64(i+1) / float64(n)}
}

// VStripe returns the i-th of n equal vertical stripes.
func VStripe(i, n int) Band {
	return Band{float64(i) / float64(n), 0, float64(i+1) / float64(n), 1}
}

// Disc is a normalized-space circle (for the star disc on Jordan's flag and
// the sun-style discs on other flags).
type Disc struct {
	CX, CY, R float64
}

// Contains reports whether the cell center lies in the disc. Aspect ratio
// is corrected so the disc is round on non-square canvases.
func (d Disc) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	aspect := float64(w) / float64(h)
	dx := (x - d.CX) * aspect
	dy := y - d.CY
	return dx*dx+dy*dy <= d.R*d.R*aspect // radius expressed in y units
}

// Triangle is a normalized-space triangle defined by three vertices.
type Triangle struct {
	AX, AY, BX, BY, CX, CY float64
}

// Contains uses sign-of-cross-product tests; boundary cells count as inside
// so triangles meet their neighboring stripes without gaps.
func (t Triangle) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	d1 := cross(x, y, t.AX, t.AY, t.BX, t.BY)
	d2 := cross(x, y, t.BX, t.BY, t.CX, t.CY)
	d3 := cross(x, y, t.CX, t.CY, t.AX, t.AY)
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

func cross(px, py, ax, ay, bx, by float64) float64 {
	return (px-bx)*(ay-by) - (ax-bx)*(py-by)
}

// DiagonalStripe is a stripe of the given half-width running between two
// normalized points — the St Andrew's saltire arms on the Union Flag.
type DiagonalStripe struct {
	X0, Y0, X1, Y1 float64
	HalfWidth      float64
}

// Contains reports whether the cell center lies within HalfWidth of the
// segment (X0,Y0)-(X1,Y1), measured in normalized units.
func (d DiagonalStripe) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	// Distance from point to segment.
	vx, vy := d.X1-d.X0, d.Y1-d.Y0
	wx, wy := x-d.X0, y-d.Y0
	c1 := vx*wx + vy*wy
	c2 := vx*vx + vy*vy
	t := 0.0
	if c2 > 0 {
		t = c1 / c2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx := x - (d.X0 + t*vx)
	dy := y - (d.Y0 + t*vy)
	return dx*dx+dy*dy <= d.HalfWidth*d.HalfWidth
}

// Star is a k-pointed star centered at (CX,CY) with outer radius R and
// inner radius R*Inner. Jordan's flag has a 7-pointed star; at coarse grid
// resolutions it degrades gracefully to a disc-like blob, exactly as the
// paper's hand-gridded version does.
type Star struct {
	CX, CY, R, Inner float64
	Points           int
	Rotation         float64 // radians; 0 puts one point straight up
}

// Contains tests membership by winding through the star's boundary polygon.
func (s Star) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	aspect := float64(w) / float64(h)
	// Build the 2k-gon boundary and run a point-in-polygon test.
	if s.Points < 2 {
		return false
	}
	inside := false
	x1, y1 := s.vertex(0, aspect)
	for i := 1; i <= 2*s.Points; i++ {
		x0, y0 := x1, y1
		x1, y1 = s.vertex(i, aspect)
		if crosses(x, y, x0, y0, x1, y1) {
			inside = !inside
		}
	}
	return inside
}

// vertex returns the i-th point of the star's boundary on a canvas of
// the given aspect ratio: outer points at even i, inner at odd i, and
// the first point again at i = 2·Points.
func (s Star) vertex(i int, aspect float64) (float64, float64) {
	r := s.R
	if i%2 == 1 {
		r *= s.Inner
	}
	ang := s.Rotation - 3.14159265358979323846/2 + float64(i)*3.14159265358979323846/float64(s.Points)
	return s.CX + r*cosApprox(ang)/aspect, s.CY + r*sinApprox(ang)
}

// crosses reports whether a rightward ray from (x, y) crosses the edge
// (x0, y0)-(x1, y1): the even-odd step of a point-in-polygon test.
func crosses(x, y, x0, y0, x1, y1 float64) bool {
	return (y0 > y) != (y1 > y) && x < x0+(y-y0)*(x1-x0)/(y1-y0)
}

// Prepare computes the star's boundary polygon for a w×h canvas once,
// instead of once per Contains call. A star of fewer than two points
// contains nothing and is returned as it is.
func (s Star) Prepare(w, h int) Shape {
	if s.Points < 2 {
		return s
	}
	aspect := float64(w) / float64(h)
	ps := &preparedStar{star: s, w: w, h: h, vs: make([][2]float64, 2*s.Points+1)}
	for i := range ps.vs {
		ps.vs[i][0], ps.vs[i][1] = s.vertex(i, aspect)
	}
	return ps
}

// preparedStar is a Star with its boundary polygon computed for one
// canvas size; at any other size it defers to the Star.
type preparedStar struct {
	star Star
	w, h int
	vs   [][2]float64
}

// Contains runs the Star's crossing test over the stored polygon.
func (ps *preparedStar) Contains(p Pt, w, h int) bool {
	if w != ps.w || h != ps.h {
		return ps.star.Contains(p, w, h)
	}
	x, y := center(p, w, h)
	inside := false
	for i := 1; i < len(ps.vs); i++ {
		if crosses(x, y, ps.vs[i-1][0], ps.vs[i-1][1], ps.vs[i][0], ps.vs[i][1]) {
			inside = !inside
		}
	}
	return inside
}

// MapleLeaf is a stylized 11-point maple leaf approximated as a union of
// triangles and a stem band, matching the blocky leaf of the paper's
// pre-gridded Canadian flag handout (Fig. 2). It is intentionally a coarse
// polygonal leaf: the activity rasterizes it at ~25×12 cells.
type MapleLeaf struct {
	CX, CY, Scale float64
}

// Contains reports membership in the stylized leaf.
func (m MapleLeaf) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	// Normalize into leaf-local space: (-1..1, -1..1) box of the leaf.
	lx := (x - m.CX) / m.Scale * 2
	ly := (y - m.CY) / m.Scale * 2
	return leafLocal(lx, ly)
}

// leafLocal is the leaf silhouette in local coordinates; |x|,|y| <= 1.
func leafLocal(x, y float64) bool {
	ax := x
	if ax < 0 {
		ax = -ax
	}
	switch {
	case ax > 1 || y < -1 || y > 1:
		return false
	case y > 0.55: // stem
		return ax < 0.08
	case y > 0.25: // lower lobes narrowing to stem
		return ax < 0.55-(y-0.25)*1.3
	case y > -0.35: // central body with side points
		return ax < 0.72-absf(y+0.05)*0.35
	default: // top point
		return ax < (1+y)*0.62
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Cross is the union of a horizontal and a vertical band centered on the
// canvas — the St George's cross.
type Cross struct {
	CX, CY, HalfWidth float64
}

// Contains reports whether the cell center is on either arm.
func (c Cross) Contains(p Pt, w, h int) bool {
	x, y := center(p, w, h)
	return absf(x-c.CX) <= c.HalfWidth || absf(y-c.CY) <= c.HalfWidth
}

// Saltire is the union of the two corner-to-corner diagonal stripes.
type Saltire struct {
	HalfWidth float64
}

// Contains reports whether the cell center is on either diagonal.
func (s Saltire) Contains(p Pt, w, h int) bool {
	a := DiagonalStripe{0, 0, 1, 1, s.HalfWidth}
	b := DiagonalStripe{0, 1, 1, 0, s.HalfWidth}
	return a.Contains(p, w, h) || b.Contains(p, w, h)
}

// Union combines shapes; a cell is in the union if any member contains it.
type Union []Shape

// Contains reports whether any member shape contains the cell.
func (u Union) Contains(p Pt, w, h int) bool {
	for _, s := range u {
		if s.Contains(p, w, h) {
			return true
		}
	}
	return false
}

// Prepare prepares every member for a w×h canvas.
func (u Union) Prepare(w, h int) Shape {
	out := make(Union, len(u))
	for i, s := range u {
		out[i] = Prepare(s, w, h)
	}
	return out
}

// sin/cos via math would be fine; small wrappers keep the import local to
// the two shapes that need trigonometry.
func sinApprox(x float64) float64 { return mathSin(x) }
func cosApprox(x float64) float64 { return mathCos(x) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
