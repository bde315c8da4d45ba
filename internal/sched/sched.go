// Package sched provides load-balancing schedulers that build workplans
// beyond the paper's hand-assigned scenarios: LPT (longest processing time
// first) static balancing, fixed-size chunk self-scheduling, and guided
// self-scheduling with geometrically shrinking chunks.
//
// These are the standard PDC scheduling disciplines the activity's
// discussion leads toward ("how having extra resources would reduce the
// contention", load balancing in the Webster variation); they drive the
// E19 decomposition ablation against the scenario decompositions.
//
// All schedulers operate on estimated unit cost per cell (every cell costs
// the same a priori, as in the classroom), produce workplan.Plan values,
// and inherit the plan Verify/Validate oracles.
package sched

import (
	"fmt"
	"sort"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/workplan"
)

// region is a contiguous run of same-layer cells, the scheduling unit.
type region struct {
	layer int
	cells []geom.Pt
}

// regionsOf splits each layer's cells into row runs — the natural "color
// this row of the stripe" units students actually divide work into.
func regionsOf(g *workplan.Geometry) []region {
	var out []region
	for li, cells := range g.LayerCells() {
		byRow := make(map[int][]geom.Pt)
		var rows []int
		for _, c := range cells {
			if _, ok := byRow[c.Y]; !ok {
				rows = append(rows, c.Y)
			}
			byRow[c.Y] = append(byRow[c.Y], c)
		}
		sort.Ints(rows)
		for _, y := range rows {
			out = append(out, region{layer: li, cells: byRow[y]})
		}
	}
	return out
}

func buildPlan(g *workplan.Geometry, strategy string, perProc [][]workplan.Task) (*workplan.Plan, error) {
	w, h := g.Size()
	plan := &workplan.Plan{
		FlagName: g.Flag().Name, W: w, H: h,
		Strategy:       strategy,
		PerProc:        perProc,
		LayerDeps:      g.LayerDeps(),
		LayerCellCount: g.LayerCellCount(),
		Overpainted:    true,
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// LPT assigns row regions to p processors longest-first onto the least
// loaded processor — the classic static balancing heuristic. Within each
// processor, tasks are ordered by layer so dependencies remain
// satisfiable.
func LPT(f *flagspec.Flag, w, h, p int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	g := workplan.NewGeometry(f, w, h)
	regions := regionsOf(g)
	// Stable sort: longest first, then layer, then first cell for
	// determinism.
	sort.SliceStable(regions, func(a, b int) bool {
		if len(regions[a].cells) != len(regions[b].cells) {
			return len(regions[a].cells) > len(regions[b].cells)
		}
		return regions[a].layer < regions[b].layer
	})
	load := make([]int, p)
	perProc := make([][]workplan.Task, p)
	for _, r := range regions {
		// Least-loaded processor, lowest index on ties.
		pi := 0
		for i := 1; i < p; i++ {
			if load[i] < load[pi] {
				pi = i
			}
		}
		for _, c := range r.cells {
			perProc[pi] = append(perProc[pi], workplan.Task{
				Cell: c, Color: f.Layers[r.layer].Color, Layer: r.layer,
			})
		}
		load[pi] += len(r.cells)
	}
	for pi := range perProc {
		sortTasks(perProc[pi])
	}
	return buildPlan(g, fmt.Sprintf("lpt(p=%d)", p), perProc)
}

// Chunked models fixed-size chunk self-scheduling: an idle processor takes
// the next chunk of chunk cells from the global reading-order stream. With
// unit cost estimates this reduces to round-robin chunk dealing, which is
// exactly how chunk self-scheduling behaves when all workers run at the
// same speed.
func Chunked(f *flagspec.Flag, w, h, p, chunk int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("sched: chunk size %d", chunk)
	}
	g := workplan.NewGeometry(f, w, h)
	stream := taskStream(g)
	perProc := make([][]workplan.Task, p)
	for i := 0; i < len(stream); i += chunk {
		end := i + chunk
		if end > len(stream) {
			end = len(stream)
		}
		pi := (i / chunk) % p
		perProc[pi] = append(perProc[pi], stream[i:end]...)
	}
	for pi := range perProc {
		sortTasks(perProc[pi])
	}
	return buildPlan(g, fmt.Sprintf("chunked(p=%d,chunk=%d)", p, chunk), perProc)
}

// Guided models guided self-scheduling: each grab takes
// ceil(remaining / p) cells, so chunks shrink geometrically and the tail
// is finely balanced.
func Guided(f *flagspec.Flag, w, h, p int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	g := workplan.NewGeometry(f, w, h)
	stream := taskStream(g)
	perProc := make([][]workplan.Task, p)
	load := make([]int, p)
	i := 0
	for i < len(stream) {
		remaining := len(stream) - i
		take := (remaining + p - 1) / p
		if take < 1 {
			take = 1
		}
		// The next grab goes to the first idle worker — with equal
		// speeds, the least-loaded processor (lowest index on ties).
		pi := 0
		for j := 1; j < p; j++ {
			if load[j] < load[pi] {
				pi = j
			}
		}
		perProc[pi] = append(perProc[pi], stream[i:i+take]...)
		load[pi] += take
		i += take
	}
	for pi := range perProc {
		sortTasks(perProc[pi])
	}
	return buildPlan(g, fmt.Sprintf("guided(p=%d)", p), perProc)
}

// taskStream flattens the flag into layer-then-reading-order tasks.
func taskStream(g *workplan.Geometry) []workplan.Task {
	f := g.Flag()
	var out []workplan.Task
	for li, cells := range g.LayerCells() {
		for _, c := range cells {
			out = append(out, workplan.Task{Cell: c, Color: f.Layers[li].Color, Layer: li})
		}
	}
	return out
}

// sortTasks orders a processor's tasks by layer (dependency safety), then
// reading order.
func sortTasks(tasks []workplan.Task) {
	sort.SliceStable(tasks, func(a, b int) bool {
		if tasks[a].Layer != tasks[b].Layer {
			return tasks[a].Layer < tasks[b].Layer
		}
		if tasks[a].Cell.Y != tasks[b].Cell.Y {
			return tasks[a].Cell.Y < tasks[b].Cell.Y
		}
		return tasks[a].Cell.X < tasks[b].Cell.X
	})
}

// Imbalance returns (max load − min load) / mean load over processors
// with any tasks, a dimensionless balance score for comparing schedulers.
func Imbalance(p *workplan.Plan) float64 {
	if len(p.PerProc) == 0 {
		return 0
	}
	minL, maxL, sum, n := -1, 0, 0, 0
	for _, tasks := range p.PerProc {
		l := len(tasks)
		sum += l
		n++
		if l > maxL {
			maxL = l
		}
		if minL == -1 || l < minL {
			minL = l
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(n)
	return float64(maxL-minL) / mean
}
