package workplan

import (
	"fmt"
	"sort"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
)

// Cell orderings. Reading order (the default everywhere else) jumps from
// the right edge back to the left at each row break, paying the full
// carriage-return movement; serpentine (boustrophedon) order alternates
// row direction so consecutive cells are always adjacent.
//
// On paper this is how experienced students actually color; in the
// simulator it isolates a movement-cost ablation with a direct PDC
// analogy: traversal order changes performance even when the work is
// identical — the unplugged version of cache-friendly access patterns.

// Ordering selects the cell traversal within each layer region.
type Ordering uint8

// Orderings.
const (
	// ReadingOrder is left-to-right, top-to-bottom.
	ReadingOrder Ordering = iota
	// Serpentine alternates row direction (boustrophedon).
	Serpentine
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case ReadingOrder:
		return "reading-order"
	case Serpentine:
		return "serpentine"
	default:
		return fmt.Sprintf("ordering(%d)", uint8(o))
	}
}

// reorder sorts cells into the requested traversal.
func reorder(cells []geom.Pt, o Ordering) []geom.Pt {
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

// SequentialOrdered is Sequential with an explicit cell traversal within
// each layer.
func SequentialOrdered(f *flagspec.Flag, w, h int, o Ordering) (*Plan, error) {
	return NewGeometry(f, w, h).SequentialOrdered(o)
}

// SequentialOrdered is the package-level SequentialOrdered over g.
func (g *Geometry) SequentialOrdered(o Ordering) (*Plan, error) {
	tasks := taskLists([]int{g.cellTotal()})[0]
	for li, cells := range g.cells {
		for _, c := range reorder(cells, o) {
			tasks = append(tasks, Task{Cell: c, Color: g.flag.Layers[li].Color, Layer: li})
		}
	}
	return g.plan(fmt.Sprintf("sequential-%s", o), [][]Task{tasks})
}

// MovementCost sums the Manhattan distances between consecutive tasks of
// each processor — the abstract travel a plan demands, independent of any
// processor's speed.
func MovementCost(p *Plan) int {
	total := 0
	for _, tasks := range p.PerProc {
		for i := 1; i < len(tasks); i++ {
			total += tasks[i-1].Cell.ManhattanDist(tasks[i].Cell)
		}
	}
	return total
}
