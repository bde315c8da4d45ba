// Package workplan turns a flag into per-processor ordered task lists —
// the task decompositions of the activity.
//
// The paper's four scenarios (Fig. 1) are instances of the strategies here:
//
//	Scenario 1: Sequential            — one processor colors everything.
//	Scenario 2: LayerBlocks(p=2)      — stripe pairs (red+blue / yellow+green).
//	Scenario 3: LayerBlocks(p=4)      — one stripe per processor.
//	Scenario 4: VerticalSlices(p=4)   — vertical slices crossing every stripe.
//
// Scenario 4 additionally admits two cell orderings: the naive reading
// order, under which every processor wants the same implement color at the
// same moment (the contention lesson), and the pipelined rotation, under
// which processor i starts on stripe i and the implements circulate like
// data through an arithmetic pipeline (the pipelining lesson).
//
// Block and Cyclic decompositions are not in the paper's core activity but
// are the standard PDC follow-ons; they drive the E19 ablation.
package workplan

import (
	"fmt"
	"sort"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
	"flagsim/internal/palette"
)

// Task is one unit of work: color one cell with one color. Layer records
// which flag layer the cell belongs to, for dependency enforcement.
type Task struct {
	Cell  geom.Pt
	Color palette.Color
	Layer int
}

// Plan is a complete decomposition: an ordered task list per processor,
// plus the layer dependency structure the simulator must enforce.
type Plan struct {
	// FlagName and W, H identify the workload.
	FlagName string
	W, H     int
	// Strategy names the decomposition for reports ("sequential",
	// "layer-blocks", "vertical-slices", ...).
	Strategy string
	// PerProc[i] is the ordered work of processor i.
	PerProc [][]Task
	// LayerDeps[l] lists layer indices that must be fully painted before
	// any cell of layer l may start. Derived from the flag spec.
	LayerDeps [][]int
	// LayerCellCount[l] is the total number of cells of layer l across
	// all processors, for the simulator's completion counters.
	LayerCellCount []int
	// Overpainted reports whether the plan paints full layers (Painter's
	// algorithm, some cells painted more than once) rather than only
	// visible cells.
	Overpainted bool
}

// NumProcs returns the number of processors the plan expects.
func (p *Plan) NumProcs() int { return len(p.PerProc) }

// TotalTasks returns the total number of cell-coloring tasks.
func (p *Plan) TotalTasks() int {
	n := 0
	for _, tasks := range p.PerProc {
		n += len(tasks)
	}
	return n
}

// Validate checks that the plan is internally consistent: tasks in bounds,
// valid colors, layer references within range, per-processor task order
// non-decreasing in layer when that layer has dependencies, and layer cell
// counts matching the task lists.
func (p *Plan) Validate() error {
	if p.W <= 0 || p.H <= 0 {
		return fmt.Errorf("workplan: bad dimensions %dx%d", p.W, p.H)
	}
	if len(p.PerProc) == 0 {
		return fmt.Errorf("workplan: no processors")
	}
	bounds := geom.R(0, 0, p.W, p.H)
	counts := make([]int, len(p.LayerCellCount))
	for pi, tasks := range p.PerProc {
		for ti, t := range tasks {
			if !t.Cell.In(bounds) {
				return fmt.Errorf("workplan: proc %d task %d out of bounds at %v", pi, ti, t.Cell)
			}
			if !t.Color.Valid() || t.Color == palette.None {
				return fmt.Errorf("workplan: proc %d task %d has invalid color", pi, ti)
			}
			if t.Layer < 0 || t.Layer >= len(p.LayerCellCount) {
				return fmt.Errorf("workplan: proc %d task %d references layer %d of %d", pi, ti, t.Layer, len(p.LayerCellCount))
			}
			counts[t.Layer]++
		}
	}
	for l, want := range p.LayerCellCount {
		if counts[l] != want {
			return fmt.Errorf("workplan: layer %d has %d tasks, expected %d", l, counts[l], want)
		}
	}
	for l, deps := range p.LayerDeps {
		for _, d := range deps {
			if d < 0 || d >= len(p.LayerCellCount) {
				return fmt.Errorf("workplan: layer %d depends on invalid layer %d", l, d)
			}
			if d == l {
				return fmt.Errorf("workplan: layer %d depends on itself", l)
			}
		}
	}
	return nil
}

// Verify paints the plan onto a blank grid in any dependency-respecting
// order and compares against the flag's reference raster. It is the
// correctness oracle used by tests: a decomposition bug (dropped cell,
// wrong color, bad layer order) fails here regardless of timing.
func (p *Plan) Verify(f *flagspec.Flag) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := grid.New(p.W, p.H)
	// Paint in global layer order, which respects every LayerDeps edge
	// because flag specs only allow dependencies on earlier layers.
	byLayer := make([][]Task, len(p.LayerCellCount))
	for _, tasks := range p.PerProc {
		for _, t := range tasks {
			byLayer[t.Layer] = append(byLayer[t.Layer], t)
		}
	}
	for _, tasks := range byLayer {
		for _, t := range tasks {
			if err := g.Paint(t.Cell, t.Color); err != nil {
				return err
			}
		}
	}
	want, err := grid.Rasterize(f, p.W, p.H)
	if err != nil {
		return err
	}
	if !g.Equal(want) {
		diff, _ := g.Diff(want)
		return fmt.Errorf("workplan: plan %q does not reproduce %s: %d cells differ (first: %v)",
			p.Strategy, f.Name, len(diff), first(diff))
	}
	return nil
}

func first(pts []geom.Pt) geom.Pt {
	if len(pts) == 0 {
		return geom.Pt{}
	}
	return pts[0]
}

// plan assembles a full-layer (overpainted) plan over g's layer
// structure and validates it.
func (g *Geometry) plan(strategy string, perProc [][]Task) (*Plan, error) {
	plan := &Plan{
		FlagName: g.flag.Name, W: g.w, H: g.h,
		Strategy:       strategy,
		PerProc:        perProc,
		LayerDeps:      g.deps,
		LayerCellCount: g.counts,
		Overpainted:    true,
	}
	return plan, plan.Validate()
}

// taskLists allocates one task list per processor at its final length,
// leaving a processor with no tasks nil.
func taskLists(counts []int) [][]Task {
	perProc := make([][]Task, len(counts))
	for pi, n := range counts {
		if n > 0 {
			perProc[pi] = make([]Task, 0, n)
		}
	}
	return perProc
}

// Sequential is scenario 1: one processor paints every layer in order,
// each layer in reading order.
func Sequential(f *flagspec.Flag, w, h int) (*Plan, error) {
	return NewGeometry(f, w, h).Sequential()
}

// Sequential is the package-level Sequential over g.
func (g *Geometry) Sequential() (*Plan, error) { return g.LayerBlocks(1) }

// LayerBlocks distributes whole layers over p processors in contiguous
// blocks, balancing by cell count: with Mauritius and p=2 this is the
// paper's scenario 2 (stripe pairs); with p=4, scenario 3 (one stripe
// each). Each processor performs its layers in flag order, each layer in
// reading order.
func LayerBlocks(f *flagspec.Flag, w, h int, p int) (*Plan, error) {
	return NewGeometry(f, w, h).LayerBlocks(p)
}

// LayerBlocks is the package-level LayerBlocks over g.
func (g *Geometry) LayerBlocks(p int) (*Plan, error) {
	f := g.flag
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	if p > len(f.Layers) {
		return nil, fmt.Errorf("workplan: layer-blocks with %d processors but %s has only %d layers",
			p, f.Name, len(f.Layers))
	}
	// Contiguous balanced partition of layers by cell count (simple
	// greedy: target = total/p, close a block when it reaches target).
	total := g.cellTotal()
	procOf := make([]int, len(f.Layers))
	counts := make([]int, p)
	proc, acc := 0, 0
	remainingLayers := len(f.Layers)
	for li, n := range g.counts {
		remainingProcs := p - proc - 1
		// Never leave more processors than layers remaining.
		mustClose := remainingLayers-1 < remainingProcs+1 && proc < p-1
		procOf[li] = proc
		counts[proc] += n
		acc += n
		remainingLayers--
		if proc < p-1 && (mustClose || acc >= (total*(proc+1))/p) {
			proc++
		}
	}
	perProc := taskLists(counts)
	for li, cells := range g.cells {
		pi := procOf[li]
		for _, c := range cells {
			perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
	}
	return g.plan(fmt.Sprintf("layer-blocks(p=%d)", p), perProc)
}

// VerticalSlices is scenario 4: the canvas is split into p vertical
// slices, one per processor; each processor paints every layer's cells
// within its slice. With rotate=false each processor takes layers in flag
// order (the naive, maximally contended order). With rotate=true processor
// i starts at layer (i*len(layers)/p) and wraps — the pipelined rotation
// of §III-C under which the implements circulate.
func VerticalSlices(f *flagspec.Flag, w, h, p int, rotate bool) (*Plan, error) {
	return NewGeometry(f, w, h).VerticalSlices(p, rotate)
}

// VerticalSlices is the package-level VerticalSlices over g.
func (g *Geometry) VerticalSlices(p int, rotate bool) (*Plan, error) {
	f := g.flag
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	if p > g.w {
		return nil, fmt.Errorf("workplan: %d slices across width %d", p, g.w)
	}
	if rotate && hasInterLayerDeps(g.deps) {
		return nil, fmt.Errorf("workplan: pipelined rotation is only valid for flags with independent layers; %s has layer dependencies", f.Name)
	}
	// Slices span the full height, so a cell's slice is its column's.
	sliceOf := make([]int, g.w)
	for pi, slice := range geom.R(0, 0, g.w, g.h).SplitCols(p) {
		for x := slice.Min.X; x < slice.Max.X; x++ {
			sliceOf[x] = pi
		}
	}
	counts := make([]int, p)
	for _, cells := range g.cells {
		for _, c := range cells {
			counts[sliceOf[c.X]]++
		}
	}
	perProc := taskLists(counts)
	nl := len(f.Layers)
	for pi := range perProc {
		for k := 0; k < nl; k++ {
			li := k
			if rotate {
				li = (pi*nl/p + k) % nl
			}
			for _, c := range g.cells[li] {
				if sliceOf[c.X] == pi {
					perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
				}
			}
		}
	}
	name := "vertical-slices"
	if rotate {
		name = "vertical-slices-pipelined"
	}
	return g.plan(fmt.Sprintf("%s(p=%d)", name, p), perProc)
}

func hasInterLayerDeps(deps [][]int) bool {
	for _, d := range deps {
		if len(d) > 0 {
			return true
		}
	}
	return false
}

// Blocks tiles the canvas into a gx×gy grid of rectangular blocks assigned
// to processors round-robin; each processor paints its blocks layer by
// layer. gx*gy must be >= p.
func Blocks(f *flagspec.Flag, w, h, p, gx, gy int) (*Plan, error) {
	return NewGeometry(f, w, h).Blocks(p, gx, gy)
}

// Blocks is the package-level Blocks over g.
func (g *Geometry) Blocks(p, gx, gy int) (*Plan, error) {
	f := g.flag
	if p <= 0 || gx <= 0 || gy <= 0 {
		return nil, fmt.Errorf("workplan: bad block parameters p=%d gx=%d gy=%d", p, gx, gy)
	}
	if gx*gy < p {
		return nil, fmt.Errorf("workplan: %d blocks for %d processors", gx*gy, p)
	}
	// Blocks are numbered column-major (each column band split into gy
	// row bands), so cell c lies in block colOf[c.X]*gy + rowOf[c.Y].
	// A non-positive size has no cells, and no columns or rows to map.
	bounds := geom.R(0, 0, g.w, g.h)
	colOf, rowOf := make([]int, max(g.w, 0)), make([]int, max(g.h, 0))
	for ci, col := range bounds.SplitCols(gx) {
		for x := max(col.Min.X, 0); x < col.Max.X; x++ {
			colOf[x] = ci
		}
	}
	for ri, row := range bounds.SplitRows(gy) {
		for y := max(row.Min.Y, 0); y < row.Max.Y; y++ {
			rowOf[y] = ri
		}
	}
	blockOf := func(c geom.Pt) int { return colOf[c.X]*gy + rowOf[c.Y] }
	counts := make([]int, p)
	for _, cells := range g.cells {
		for _, c := range cells {
			counts[blockOf(c)%p]++
		}
	}
	// Each processor paints layer by layer so dependencies are
	// satisfiable, and within a layer its blocks in order.
	perProc := taskLists(counts)
	for li, cells := range g.cells {
		for bi := 0; bi < gx*gy; bi++ {
			pi := bi % p
			for _, c := range cells {
				if blockOf(c) == bi {
					perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
				}
			}
		}
	}
	return g.plan(fmt.Sprintf("blocks(p=%d,%dx%d)", p, gx, gy), perProc)
}

// Cyclic deals cells of each layer to processors round-robin in reading
// order — fine-grained interleaving with perfect load balance and maximal
// implement thrash, the canonical "cyclic distribution" of PDC curricula.
func Cyclic(f *flagspec.Flag, w, h, p int) (*Plan, error) {
	return NewGeometry(f, w, h).Cyclic(p)
}

// Cyclic is the package-level Cyclic over g.
func (g *Geometry) Cyclic(p int) (*Plan, error) {
	f := g.flag
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	total := g.cellTotal()
	counts := make([]int, p)
	for pi := range counts {
		counts[pi] = total / p
		if pi < total%p {
			counts[pi]++
		}
	}
	perProc := taskLists(counts)
	// One continuous deal across all layers: restarting at processor 0
	// per layer would hand the low-index processors an extra cell per
	// layer and compound the imbalance.
	deal := 0
	for li, cells := range g.cells {
		for _, c := range cells {
			pi := deal % p
			deal++
			perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
	}
	return g.plan(fmt.Sprintf("cyclic(p=%d)", p), perProc)
}

// VisibleOnly rewrites a flag into a single-pass plan that paints only the
// finally visible color of each cell, split over p processors by balanced
// contiguous runs in reading order. It has no layer dependencies and no
// overpaint — the "smart sequential" baseline that quantifies what the
// Painter's algorithm costs.
func VisibleOnly(f *flagspec.Flag, w, h, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	visible := grid.VisibleLayerCells(f, w, h)
	type cellColor struct {
		c     geom.Pt
		color palette.Color
		layer int
	}
	var all []cellColor
	for li := range f.Layers {
		for _, c := range visible[li] {
			all = append(all, cellColor{c, f.Layers[li].Color, li})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].c.Y != all[b].c.Y {
			return all[a].c.Y < all[b].c.Y
		}
		return all[a].c.X < all[b].c.X
	})
	perProc := make([][]Task, p)
	n := len(all)
	start := 0
	counts := make([]int, len(f.Layers))
	for pi := 0; pi < p; pi++ {
		extent := n / p
		if pi < n%p {
			extent++
		}
		for _, cc := range all[start : start+extent] {
			perProc[pi] = append(perProc[pi], Task{Cell: cc.c, Color: cc.color, Layer: cc.layer})
			counts[cc.layer]++
		}
		start += extent
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("visible-only(p=%d)", p),
		PerProc:        perProc,
		LayerDeps:      make([][]int, len(f.Layers)),
		LayerCellCount: counts,
		Overpainted:    false,
	}
	return plan, plan.Validate()
}
