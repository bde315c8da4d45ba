package workplan

import (
	"fmt"
	"sync"
	"testing"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
)

// planFlags is every builtin flag and gen:v1:31:0 to gen:v1:31:7.
func planFlags(t *testing.T) []*flagspec.Flag {
	t.Helper()
	flags := flagspec.All()
	for v := uint64(0); v < 8; v++ {
		f, err := flagspec.Lookup(flaggen.Name(31, v))
		if err != nil {
			t.Fatal(err)
		}
		flags = append(flags, f)
	}
	return flags
}

// planCalls is one call of every planner a geometry memoizes, by name,
// each name a distinct memo key; Sequential is LayerBlocks(1).
func planCalls(g *Geometry) map[string]func() (*Plan, error) {
	calls := map[string]func() (*Plan, error){
		"blocks(4,2x2)": func() (*Plan, error) { return g.Blocks(4, 2, 2) },
		"cyclic(3)":     func() (*Plan, error) { return g.Cyclic(3) },
	}
	for p := 1; p <= 4; p++ {
		calls[fmt.Sprintf("layer-blocks(%d)", p)] = func() (*Plan, error) { return g.LayerBlocks(p) }
		for _, rotate := range []bool{false, true} {
			calls[fmt.Sprintf("vertical-slices(%d,%v)", p, rotate)] = func() (*Plan, error) { return g.VerticalSlices(p, rotate) }
		}
	}
	for _, o := range []Ordering{ReadingOrder, Serpentine} {
		calls["sequential-"+o.String()] = func() (*Plan, error) { return g.SequentialOrdered(o) }
	}
	return calls
}

// TestGeometryMemoizesPlans: every planner returns the same *Plan (or
// the same error) on every call, every plan reproduces its flag, and
// Sequential and LayerBlocks carve capped task lists out of the one
// task array, in processor order.
func TestGeometryMemoizesPlans(t *testing.T) {
	for _, f := range planFlags(t) {
		g := NewGeometry(f, f.DefaultW, f.DefaultH)
		for name, call := range planCalls(g) {
			p1, err1 := call()
			p2, err2 := call()
			if p1 != p2 || err1 != err2 {
				t.Errorf("%s/%s: a second call returned another plan or error", f.Name, name)
			}
			if err1 != nil {
				continue
			}
			if err := p1.Verify(f); err != nil {
				t.Errorf("%s/%s: %v", f.Name, name, err)
			}
		}
		seq, err := g.Sequential()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if lb1, _ := g.LayerBlocks(1); lb1 != seq {
			t.Errorf("%s: Sequential and LayerBlocks(1) are two plans", f.Name)
		}
		all := seq.PerProc[0]
		if len(all) != len(g.tasks) || &all[0] != &g.tasks[0] || cap(all) != len(all) {
			t.Fatalf("%s: Sequential's list is not the geometry's capped task array", f.Name)
		}
		for p := 1; p <= len(f.Layers); p++ {
			plan, err := g.LayerBlocks(p)
			if err != nil {
				t.Fatalf("%s: LayerBlocks(%d): %v", f.Name, p, err)
			}
			off := 0
			for pi, tasks := range plan.PerProc {
				if cap(tasks) != len(tasks) {
					t.Errorf("%s: LayerBlocks(%d) proc %d list has cap %d for %d tasks", f.Name, p, pi, cap(tasks), len(tasks))
				}
				if len(tasks) > 0 && &tasks[0] != &all[off] {
					t.Errorf("%s: LayerBlocks(%d) proc %d list is not tasks[%d:] of the task array", f.Name, p, pi, off)
				}
				off += len(tasks)
			}
			// An append to a capped list moves it off the shared array,
			// so the next processor's list keeps its first task.
			if len(plan.PerProc) > 1 && len(plan.PerProc[0]) > 0 && len(plan.PerProc[1]) > 0 {
				next := plan.PerProc[1][0]
				grown := append(plan.PerProc[0], Task{Layer: -1})
				if plan.PerProc[1][0] != next || &grown[0] == &all[0] {
					t.Errorf("%s: LayerBlocks(%d): an append to proc 0's list overwrote proc 1's", f.Name, p)
				}
			}
		}
	}
}

// TestGeometryFirstPlanCallsRace: concurrent first calls of every
// planner on one geometry build each plan once, and every caller gets
// it (run under -race).
func TestGeometryFirstPlanCallsRace(t *testing.T) {
	for _, f := range planFlags(t) {
		g := NewGeometry(f, f.DefaultW, f.DefaultH)
		calls := planCalls(g)
		const callers = 8
		got := make([]map[string]*Plan, callers)
		var start, done sync.WaitGroup
		start.Add(1)
		for c := range got {
			got[c] = make(map[string]*Plan, len(calls))
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				for name, call := range calls {
					got[c][name], _ = call()
				}
			}()
		}
		start.Done()
		done.Wait()
		for c := 1; c < callers; c++ {
			for name, plan := range got[c] {
				if plan != got[0][name] {
					t.Errorf("%s/%s: callers 0 and %d got different plans", f.Name, name, c)
				}
			}
		}
		if len(g.plans) != len(calls) {
			t.Errorf("%s: %d memo entries for %d planner calls", f.Name, len(g.plans), len(calls))
		}
	}
}
