package workplan

// Geometry against the independent reference helpers, and every planner
// built on it against the planners it replaced, whose bodies are kept
// below as references: same plans (reflect.DeepEqual and JSON bytes),
// same error strings, and every task list allocated at its final length.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
)

// geometryCase is one (flag, size) the geometry tests cover.
type geometryCase struct {
	f    *flagspec.Flag
	w, h int
}

func (c geometryCase) String() string { return fmt.Sprintf("%s@%dx%d", c.f.Name, c.w, c.h) }

// geometryCases is every builtin flag at its default size, 13×7 and
// 31×17, plus gen:v1:7:0 to gen:v1:7:63 at their defaults.
func geometryCases(t *testing.T) []geometryCase {
	t.Helper()
	var out []geometryCase
	for _, f := range flagspec.All() {
		out = append(out, geometryCase{f, f.DefaultW, f.DefaultH},
			geometryCase{f, 13, 7}, geometryCase{f, 31, 17})
	}
	for v := uint64(0); v < 64; v++ {
		f, err := flagspec.Lookup(flaggen.Name(7, v))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, geometryCase{f, f.DefaultW, f.DefaultH})
	}
	return out
}

func TestGeometryMatchesReferenceHelpers(t *testing.T) {
	for _, c := range geometryCases(t) {
		g := NewGeometry(c.f, c.w, c.h)
		if !reflect.DeepEqual(layerCells(g), grid.LayerCells(c.f, c.w, c.h)) {
			t.Errorf("%v: cells differ from grid.LayerCells", c)
		}
		for li, tasks := range g.LayerTasks() {
			if g.LayerCellCount()[li] != len(tasks) {
				t.Errorf("%v: layer %d counts %d cells, has %d", c, li, g.LayerCellCount()[li], len(tasks))
			}
			for _, task := range tasks {
				if task.Layer != li || task.Color != c.f.Layers[li].Color {
					t.Fatalf("%v: layer %d holds task %+v", c, li, task)
				}
			}
		}
		if !reflect.DeepEqual(g.LayerDeps(), refLayerDeps(c.f, c.w, c.h)) {
			t.Errorf("%v: deps %v, reference %v", c, g.LayerDeps(), refLayerDeps(c.f, c.w, c.h))
		}
		want, err := grid.Rasterize(c.f, c.w, c.h)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		ref, err := g.Reference()
		if err != nil || !ref.Equal(want) || ref.PaintCount() != want.PaintCount() {
			t.Errorf("%v: reference grid differs from grid.Rasterize (err %v)", c, err)
		}
		if w, h := g.Size(); g.Flag() != c.f || w != c.w || h != c.h || g.Match(c.f, c.w, c.h) != nil {
			t.Errorf("%v: geometry does not identify its flag and size", c)
		}
	}
}

// TestGeometryReferenceErrors: a flag grid.Rasterize refuses gets the
// same error from Reference, and its cells and dependencies are still
// what the reference helpers derive.
func TestGeometryReferenceErrors(t *testing.T) {
	bad := &flagspec.Flag{Name: "dup", DefaultW: 4, DefaultH: 2, Layers: []flagspec.Layer{
		{Name: "a", Color: flagspec.Mauritius.Layers[0].Color, Shape: flagspec.Mauritius.Layers[0].Shape},
		{Name: "a", Color: flagspec.Mauritius.Layers[1].Color, Shape: flagspec.Mauritius.Layers[1].Shape, DependsOn: []string{"a", "missing"}},
	}}
	_, want := grid.Rasterize(bad, 4, 2)
	g := NewGeometry(bad, 4, 2)
	if ref, err := g.Reference(); ref != nil || err == nil || err.Error() != want.Error() {
		t.Errorf("Reference() = %v, %v; want grid.Rasterize's %v", ref, err, want)
	}
	if !reflect.DeepEqual(layerCells(g), grid.LayerCells(bad, 4, 2)) ||
		!reflect.DeepEqual(g.LayerDeps(), refLayerDeps(bad, 4, 2)) {
		t.Errorf("cells or deps of an invalid flag differ from the reference helpers")
	}
	if _, err := NewGeometry(flagspec.Mauritius, 0, 8).Reference(); err == nil {
		t.Error("a 0x8 geometry has a reference grid")
	}
	if err := NewGeometry(flagspec.Mauritius, 12, 8).Match(flagspec.Mauritius, 12, 9); err == nil {
		t.Error("a 12x8 geometry matched a 12x9 run")
	}
	if err := NewGeometry(flagspec.Mauritius, 12, 8).Match(flagspec.France, 12, 8); err == nil {
		t.Error("a mauritius geometry matched a france run")
	}
}

// layerCells returns the cells of g's layer task lists, nil for a layer
// with none, in grid.LayerCells form.
func layerCells(g *Geometry) [][]geom.Pt {
	out := make([][]geom.Pt, len(g.LayerTasks()))
	for li, tasks := range g.LayerTasks() {
		for _, task := range tasks {
			out[li] = append(out[li], task.Cell)
		}
	}
	return out
}

// planResult is one planner call's outcome in comparable form.
type planResult struct {
	plan *Plan
	err  error
}

// plannerCalls runs every planner with p processors, vertical slices
// with rotate off and on, twice: the reference body on the flag, and the
// geometry method on g.
func plannerCalls(c geometryCase, g *Geometry, p int) map[string][2]planResult {
	call := func(ref func() (*Plan, error), got func() (*Plan, error)) [2]planResult {
		var out [2]planResult
		out[0].plan, out[0].err = ref()
		out[1].plan, out[1].err = got()
		return out
	}
	f, w, h := c.f, c.w, c.h
	out := map[string][2]planResult{
		"sequential": call(func() (*Plan, error) { return refSequential(f, w, h) }, g.Sequential),
		"layer-blocks": call(func() (*Plan, error) { return refLayerBlocks(f, w, h, p) },
			func() (*Plan, error) { return g.LayerBlocks(p) }),
		"cyclic": call(func() (*Plan, error) { return refCyclic(f, w, h, p) },
			func() (*Plan, error) { return g.Cyclic(p) }),
	}
	for _, rotate := range []bool{false, true} {
		out[fmt.Sprintf("vertical-slices-rotate=%v", rotate)] = call(
			func() (*Plan, error) { return refVerticalSlices(f, w, h, p, rotate) },
			func() (*Plan, error) { return g.VerticalSlices(p, rotate) })
	}
	for _, b := range [][2]int{{1, 1}, {2, 2}, {p, 2}, {3, 4}, {w + 1, 1}} {
		gx, gy := b[0], b[1]
		out[fmt.Sprintf("blocks-%dx%d", gx, gy)] = call(
			func() (*Plan, error) { return refBlocks(f, w, h, p, gx, gy) },
			func() (*Plan, error) { return g.Blocks(p, gx, gy) })
	}
	for _, o := range []Ordering{ReadingOrder, Serpentine} {
		out["sequential-"+o.String()] = call(
			func() (*Plan, error) { return refSequentialOrdered(f, w, h, o) },
			func() (*Plan, error) { return g.SequentialOrdered(o) })
	}
	return out
}

func TestPlannersMatchReference(t *testing.T) {
	for _, c := range geometryCases(t) {
		// One geometry serves every planner, as in a sweep batch: a
		// planner that modified it would show in the later calls.
		g := NewGeometry(c.f, c.w, c.h)
		for p := 1; p <= 5; p++ {
			for name, r := range plannerCalls(c, g, p) {
				comparePlans(t, fmt.Sprintf("%v/%s/p=%d", c, name, p), r[0], r[1])
			}
		}
		if !reflect.DeepEqual(layerCells(g), grid.LayerCells(c.f, c.w, c.h)) ||
			!reflect.DeepEqual(g.LayerDeps(), refLayerDeps(c.f, c.w, c.h)) {
			t.Errorf("%v: planning modified the shared geometry", c)
		}
	}
}

// TestFreePlannersMatchReference: the package-level planners, which
// build a geometry per call, give what the reference bodies give, at the
// handout size and at sizes with no cells.
func TestFreePlannersMatchReference(t *testing.T) {
	f := flagspec.GreatBritain
	for _, size := range [][2]int{{f.DefaultW, f.DefaultH}, {0, 0}, {-3, -2}} {
		freePlannersMatchReference(t, f, size[0], size[1])
	}
}

func freePlannersMatchReference(t *testing.T, f *flagspec.Flag, w, h int) {
	t.Helper()
	for p := 1; p <= 5; p++ {
		for _, rotate := range []bool{false, true} {
			pairs := map[string][2]func() (*Plan, error){
				"sequential": {func() (*Plan, error) { return refSequential(f, w, h) },
					func() (*Plan, error) { return Sequential(f, w, h) }},
				"layer-blocks": {func() (*Plan, error) { return refLayerBlocks(f, w, h, p) },
					func() (*Plan, error) { return LayerBlocks(f, w, h, p) }},
				"vertical-slices": {func() (*Plan, error) { return refVerticalSlices(f, w, h, p, rotate) },
					func() (*Plan, error) { return VerticalSlices(f, w, h, p, rotate) }},
				"blocks": {func() (*Plan, error) { return refBlocks(f, w, h, p, p, 2) },
					func() (*Plan, error) { return Blocks(f, w, h, p, p, 2) }},
				"cyclic": {func() (*Plan, error) { return refCyclic(f, w, h, p) },
					func() (*Plan, error) { return Cyclic(f, w, h, p) }},
				"serpentine": {func() (*Plan, error) { return refSequentialOrdered(f, w, h, Serpentine) },
					func() (*Plan, error) { return SequentialOrdered(f, w, h, Serpentine) }},
			}
			for name, pair := range pairs {
				var ref, got planResult
				ref.plan, ref.err = pair[0]()
				got.plan, got.err = pair[1]()
				comparePlans(t, fmt.Sprintf("%dx%d/%s/p=%d/rotate=%v", w, h, name, p, rotate), ref, got)
			}
		}
	}
}

// comparePlans requires got to equal ref: the same error text, or
// deeply equal plans with equal JSON and every task list at cap == len.
func comparePlans(t *testing.T, where string, ref, got planResult) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) || ref.err != nil && ref.err.Error() != got.err.Error() {
		t.Errorf("%s: error %v, reference %v", where, got.err, ref.err)
		return
	}
	if (ref.plan == nil) != (got.plan == nil) {
		t.Errorf("%s: plan %v, reference %v", where, got.plan != nil, ref.plan != nil)
		return
	}
	if ref.plan == nil {
		return
	}
	if !reflect.DeepEqual(ref.plan, got.plan) {
		t.Errorf("%s: plan differs from the reference", where)
		return
	}
	refJSON, err1 := json.Marshal(ref.plan)
	gotJSON, err2 := json.Marshal(got.plan)
	if err1 != nil || err2 != nil || string(refJSON) != string(gotJSON) {
		t.Errorf("%s: plan JSON differs from the reference (%v, %v)", where, err1, err2)
	}
	for pi, tasks := range got.plan.PerProc {
		if cap(tasks) != len(tasks) {
			t.Errorf("%s: proc %d task list has cap %d for %d tasks", where, pi, cap(tasks), len(tasks))
		}
	}
}

// The planners as they were before Geometry, kept as references.

// refLayerDeps extracts the explicit dependency lists from the flag as
// layer indices, adding implied overpaint dependencies: any layer that
// overlaps an earlier layer must wait for it even without an explicit
// DependsOn.
func refLayerDeps(f *flagspec.Flag, w, h int) [][]int {
	index := make(map[string]int, len(f.Layers))
	for i, l := range f.Layers {
		index[l.Name] = i
	}
	overlaps := f.Overlaps(w, h)
	out := make([][]int, len(f.Layers))
	for i, l := range f.Layers {
		set := make(map[int]bool)
		for _, dep := range l.DependsOn {
			set[index[dep]] = true
		}
		for _, j := range overlaps[i] {
			set[j] = true
		}
		deps := make([]int, 0, len(set))
		for d := range set {
			deps = append(deps, d)
		}
		sort.Ints(deps)
		out[i] = deps
	}
	return out
}

func refCellCounts(layerCells [][]geom.Pt) []int {
	out := make([]int, len(layerCells))
	for i, cells := range layerCells {
		out[i] = len(cells)
	}
	return out
}

func refSequential(f *flagspec.Flag, w, h int) (*Plan, error) {
	return refLayerBlocks(f, w, h, 1)
}

func refLayerBlocks(f *flagspec.Flag, w, h int, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	layerCells := grid.LayerCells(f, w, h)
	if p > len(f.Layers) {
		return nil, fmt.Errorf("workplan: layer-blocks with %d processors but %s has only %d layers",
			p, f.Name, len(f.Layers))
	}
	total := 0
	for _, cells := range layerCells {
		total += len(cells)
	}
	perProc := make([][]Task, p)
	proc, acc := 0, 0
	remainingLayers := len(f.Layers)
	for li, cells := range layerCells {
		remainingProcs := p - proc - 1
		mustClose := remainingLayers-1 < remainingProcs+1 && proc < p-1
		for _, c := range cells {
			perProc[proc] = append(perProc[proc], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
		acc += len(cells)
		remainingLayers--
		if proc < p-1 && (mustClose || acc >= (total*(proc+1))/p) {
			proc++
		}
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("layer-blocks(p=%d)", p),
		PerProc:        perProc,
		LayerDeps:      refLayerDeps(f, w, h),
		LayerCellCount: refCellCounts(layerCells),
		Overpainted:    true,
	}
	return plan, plan.Validate()
}

func refVerticalSlices(f *flagspec.Flag, w, h, p int, rotate bool) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	if p > w {
		return nil, fmt.Errorf("workplan: %d slices across width %d", p, w)
	}
	layerCells := grid.LayerCells(f, w, h)
	slices := geom.R(0, 0, w, h).SplitCols(p)
	perProc := make([][]Task, p)
	nl := len(f.Layers)
	for pi, slice := range slices {
		order := make([]int, nl)
		for k := 0; k < nl; k++ {
			if rotate {
				order[k] = (pi*nl/p + k) % nl
			} else {
				order[k] = k
			}
		}
		for _, li := range order {
			for _, c := range layerCells[li] {
				if c.In(slice) {
					perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
				}
			}
		}
	}
	name := "vertical-slices"
	if rotate {
		name = "vertical-slices-pipelined"
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("%s(p=%d)", name, p),
		PerProc:        perProc,
		LayerDeps:      refLayerDeps(f, w, h),
		LayerCellCount: refCellCounts(layerCells),
		Overpainted:    true,
	}
	if rotate && hasInterLayerDeps(plan.LayerDeps) {
		return nil, fmt.Errorf("workplan: pipelined rotation is only valid for flags with independent layers; %s has layer dependencies", f.Name)
	}
	return plan, plan.Validate()
}

func refBlocks(f *flagspec.Flag, w, h, p, gx, gy int) (*Plan, error) {
	if p <= 0 || gx <= 0 || gy <= 0 {
		return nil, fmt.Errorf("workplan: bad block parameters p=%d gx=%d gy=%d", p, gx, gy)
	}
	if gx*gy < p {
		return nil, fmt.Errorf("workplan: %d blocks for %d processors", gx*gy, p)
	}
	layerCells := grid.LayerCells(f, w, h)
	cols := geom.R(0, 0, w, h).SplitCols(gx)
	var blocks []geom.Rect
	for _, col := range cols {
		blocks = append(blocks, col.SplitRows(gy)...)
	}
	perProc := make([][]Task, p)
	for bi, blk := range blocks {
		pi := bi % p
		for li := range f.Layers {
			for _, c := range layerCells[li] {
				if c.In(blk) {
					perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
				}
			}
		}
	}
	for pi := range perProc {
		sort.SliceStable(perProc[pi], func(a, b int) bool {
			return perProc[pi][a].Layer < perProc[pi][b].Layer
		})
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("blocks(p=%d,%dx%d)", p, gx, gy),
		PerProc:        perProc,
		LayerDeps:      refLayerDeps(f, w, h),
		LayerCellCount: refCellCounts(layerCells),
		Overpainted:    true,
	}
	return plan, plan.Validate()
}

func refCyclic(f *flagspec.Flag, w, h, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	layerCells := grid.LayerCells(f, w, h)
	perProc := make([][]Task, p)
	deal := 0
	for li := range f.Layers {
		for _, c := range layerCells[li] {
			pi := deal % p
			deal++
			perProc[pi] = append(perProc[pi], Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("cyclic(p=%d)", p),
		PerProc:        perProc,
		LayerDeps:      refLayerDeps(f, w, h),
		LayerCellCount: refCellCounts(layerCells),
		Overpainted:    true,
	}
	return plan, plan.Validate()
}

func refSequentialOrdered(f *flagspec.Flag, w, h int, o Ordering) (*Plan, error) {
	layerCells := grid.LayerCells(f, w, h)
	var tasks []Task
	counts := make([]int, len(f.Layers))
	for li, cells := range layerCells {
		for _, c := range refReorder(cells, o) {
			tasks = append(tasks, Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
		counts[li] = len(cells)
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("sequential-%s", o),
		PerProc:        [][]Task{tasks},
		LayerDeps:      refLayerDeps(f, w, h),
		LayerCellCount: counts,
		Overpainted:    true,
	}
	return plan, plan.Validate()
}

func refReorder(cells []geom.Pt, o Ordering) []geom.Pt {
	out := append([]geom.Pt(nil), cells...)
	switch o {
	case Serpentine:
		sort.SliceStable(out, func(a, b int) bool {
			if out[a].Y != out[b].Y {
				return out[a].Y < out[b].Y
			}
			if out[a].Y%2 == 0 {
				return out[a].X < out[b].X
			}
			return out[a].X > out[b].X
		})
	default:
		sort.SliceStable(out, func(a, b int) bool {
			if out[a].Y != out[b].Y {
				return out[a].Y < out[b].Y
			}
			return out[a].X < out[b].X
		})
	}
	return out
}
