package sweep

// The batch geometry table: one geometry per (flag, size) per batch,
// built by the first spec that computes and dropped after the batch's
// last spec of it, however the batch ends.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/flaggen"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// genExecSpecs is generated-cold's sweep shape: n generated flags from
// variant first on, each under all three executors, at scenario 2.
func genExecSpecs(first, n int) []Spec {
	var out []Spec
	for _, exec := range []Exec{ExecStatic, ExecSteal, ExecDynamic} {
		for v := first; v < first+n; v++ {
			out = append(out, Spec{Exec: exec, Flag: flaggen.Name(5, uint64(v)),
				Scenario: core.S2, Workers: 2, Kind: implement.ThickMarker, Seed: 2})
		}
	}
	return out
}

func TestBatchBuildsOneGeometryPerFlag(t *testing.T) {
	sw := New(Options{Workers: 4})
	specs := genExecSpecs(0, 8)
	batch := sw.Run(nil, specs)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if built, live := sw.geoBuilt.Load(), sw.geoLive.Load(); built != 8 || live != 0 {
		t.Fatalf("8 flags x 3 execs built %d geometries and left %d, want 8 and 0", built, live)
	}
	for i, run := range batch.Runs {
		want, err := specs[i].RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		if run.Result.Makespan != want.Makespan || run.Result.Events != want.Events || !run.Result.Grid.Equal(want.Grid) {
			t.Errorf("%s: shared-geometry run differs from RunOnce", specs[i].Label())
		}
	}
	// A warm rerun is served from the memo and builds nothing.
	sw.Run(nil, specs)
	if built := sw.geoBuilt.Load(); built != 8 {
		t.Fatalf("warm rerun built geometries: %d in total, want 8", built)
	}
}

// TestBatchGeometryKeyedBySpecSize: a zero size and the explicit
// default are distinct entries, like distinct keys, and a lookup error
// is every spec's error without a geometry.
func TestBatchGeometryKeyedBySpecSize(t *testing.T) {
	sw := New(Options{Workers: 2})
	specs := []Spec{
		{Flag: "mauritius", Kind: implement.ThickMarker, Seed: 1},
		{Flag: "mauritius", W: 12, H: 8, Kind: implement.ThickMarker, Seed: 1},
		{Flag: "mauritius", W: 13, H: 7, Exec: ExecDynamic, Kind: implement.ThickMarker, Seed: 1},
		{Flag: "atlantis", Seed: 1},
		{Flag: "atlantis", Seed: 2},
	}
	batch := sw.Run(nil, specs)
	for i, run := range batch.Runs[:3] {
		if run.Err != nil {
			t.Fatalf("spec %d: %v", i, run.Err)
		}
	}
	for _, run := range batch.Runs[3:] {
		if _, want := specs[3].RunOnce(nil); run.Err == nil || run.Err.Error() != want.Error() {
			t.Fatalf("unknown flag: err %v, want %v", run.Err, want)
		}
	}
	if built, live := sw.geoBuilt.Load(), sw.geoLive.Load(); built != 3 || live != 0 {
		t.Fatalf("built %d geometries and left %d, want 3 and 0", built, live)
	}
}

// cancelProbe cancels its context at the first painted cell.
type cancelProbe struct {
	sim.BaseProbe
	once   sync.Once
	cancel context.CancelFunc
}

func (p *cancelProbe) Complete(int, workplan.Task, time.Duration) { p.once.Do(p.cancel) }

func TestCanceledBatchLeavesNoGeometry(t *testing.T) {
	sw := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batch := sw.RunProbed(ctx, genExecSpecs(100, 8), &cancelProbe{cancel: cancel})
	canceled := 0
	for _, run := range batch.Runs {
		if errors.Is(run.Err, sim.ErrCanceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no run of the batch was canceled")
	}
	if live := sw.geoLive.Load(); live != 0 {
		t.Fatalf("canceled batch left %d geometries (built %d)", live, sw.geoBuilt.Load())
	}

	before, cancel2 := context.WithCancel(context.Background())
	cancel2()
	sw.Run(before, genExecSpecs(200, 8))
	if live := sw.geoLive.Load(); live != 0 {
		t.Fatalf("batch canceled before start left %d geometries", live)
	}
}

// TestConcurrentBatchesShareCleanly runs 8 batches at once over
// overlapping flags on one Sweeper (run it under -race): every run
// matches its standalone result and no geometry outlives its batch.
func TestConcurrentBatchesShareCleanly(t *testing.T) {
	sw := New(Options{Workers: 4})
	var wg sync.WaitGroup
	batches := make([]*Result, 8)
	for b := range batches {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batches[b] = sw.Run(nil, genExecSpecs(b%3, 6))
		}(b)
	}
	wg.Wait()
	for b, batch := range batches {
		if err := batch.Err(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, run := range batch.Runs {
			want, err := run.Spec.RunOnce(nil)
			if err != nil {
				t.Fatal(err)
			}
			if run.Result.Makespan != want.Makespan || !run.Result.Grid.Equal(want.Grid) {
				t.Errorf("batch %d: %s differs from RunOnce", b, run.Spec.Label())
			}
		}
	}
	if live := sw.geoLive.Load(); live != 0 {
		t.Fatalf("%d geometries outlived their batches", live)
	}
}
