package sweep

// The record-mode crew arena and the heap. A crew member borrows one
// arena from sim's pool at its first compute and runs every later
// compute of the batch through it, so those computes allocate only
// what their record keeps plus the run's own team and implement set.
// A batch served wholly from the memo must never borrow: sync.Pool's
// victim cache survives one GC, so arenas cycled through the pool by
// warm batches would still count as live heap after a forced GC.

import (
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"testing"

	"flagsim/internal/core"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
)

// allHitAllocs is what one all-hit 8-spec record-mode batch at Workers
// 2 allocates (testing.AllocsPerRun): the batch Result and its Runs,
// the geometry table's done flags, the crew and the batch's hit and
// miss counters, which the crew's closure captures, so each escapes to
// the heap. A hit path that touched an arena or the pool would show
// here, and so would one more per-batch counter.
const allHitAllocs = 11

// TestAllHitBatchTakesNoArena: a record-mode batch served wholly from
// the memo borrows no arena and allocates what it did before crews
// borrowed arenas; a batch that computes borrows one per member.
func TestAllHitBatchTakesNoArena(t *testing.T) {
	s := New(Options{Workers: 2, Encode: testEncode})
	specs := testGrid()[:8]
	if err := s.Run(nil, specs).Err(); err != nil {
		t.Fatal(err)
	}
	taken := s.arenasTaken.Load()
	if taken < 1 || taken > 2 {
		t.Fatalf("a cold batch at Workers 2 borrowed %d arenas, want 1 or 2", taken)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if batch := s.Run(nil, specs); batch.Cache.Hits != len(specs) {
			t.Fatalf("warm batch: %+v, want %d hits", batch.Cache, len(specs))
		}
	})
	if got := s.arenasTaken.Load() - taken; got != 0 {
		t.Errorf("all-hit batches borrowed %d arenas, want 0", got)
	}
	if allocs != allHitAllocs && !raceEnabled {
		t.Errorf("an all-hit batch allocates %v times, want %d", allocs, allHitAllocs)
	}
}

// allocObserver reads the heap's cumulative allocation counters each
// time a compute finishes. At Workers 1 one crew member computes the
// batch in input order, so the difference between two readings is what
// one compute cost, the memo's bookkeeping included.
type allocObserver struct {
	ms             runtime.MemStats
	mallocs, bytes []uint64
}

func (o *allocObserver) ObserveResult(*sim.Result) {
	runtime.ReadMemStats(&o.ms)
	o.mallocs = append(o.mallocs, o.ms.Mallocs)
	o.bytes = append(o.bytes, o.ms.TotalAlloc)
}

// TestCrewComputeAllocations pins what a record-mode compute allocates
// once its crew member's arena is warm: its memo entry, its team and
// implement set, and its record. Below the exact count, the bytes per
// compute stay under the size of the run's grid, so no compute after
// the first allocates a grid, a plan task list or an assignment list
// (each at least as large) of its own.
func TestCrewComputeAllocations(t *testing.T) {
	const w, h, n = 120, 80, 6
	// Exact counts, the same on 32- and 64-bit platforms: the memo entry
	// and its channel (2), the record with its slim Result, plan and
	// stats copies (5), Flag.Colors's list (1), the implement set with
	// its implements' one array and their pointer list (3), and a team's
	// processor array and pointer list (2) with one random stream per
	// member: 4 for static and steal, 3 for dynamic.
	for _, c := range []struct {
		exec   Exec
		allocs uint64
	}{
		{ExecStatic, 17},
		{ExecSteal, 17},
		{ExecDynamic, 16},
	} {
		obs := &allocObserver{mallocs: make([]uint64, 0, n), bytes: make([]uint64, 0, n)}
		s := New(Options{Workers: 1, Encode: testEncode, Observer: obs})
		// A memo sized for the batch, so that its growth stays out of
		// the measurement.
		s.cache = make(map[[sha256.Size]byte]*entry, 4*n)
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Spec{Exec: c.exec, Flag: "mauritius", W: w, H: h, Scenario: core.S3,
				Workers: 4, Kind: implement.Crayon, Seed: uint64(i + 1)}
			if c.exec == ExecDynamic {
				specs[i].Workers, specs[i].Policy = 3, sim.PullColorAffinity
			}
		}
		// As in testing.AllocsPerRun, one P: a goroutine that moved to
		// another P would miss fmt's printer pool, which also refills
		// after a GC empties it, so no GC runs during the batch either.
		procs := runtime.GOMAXPROCS(1)
		gc := debug.SetGCPercent(-1)
		batch := s.Run(nil, specs)
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
		if err := batch.Err(); err != nil {
			t.Fatal(err)
		}
		if len(obs.mallocs) != n {
			t.Fatalf("%v: observed %d computes, want %d", c.exec, len(obs.mallocs), n)
		}
		for i := 1; i < n; i++ {
			allocs, bytes := obs.mallocs[i]-obs.mallocs[i-1], obs.bytes[i]-obs.bytes[i-1]
			if allocs != c.allocs && !raceEnabled {
				t.Errorf("%v: compute %d allocates %d times, want %d", c.exec, i+1, allocs, c.allocs)
			}
			if bytes >= w*h {
				t.Errorf("%v: compute %d allocates %d B, at least a %dx%d grid's %d B", c.exec, i+1, bytes, w, h, w*h)
			}
		}
	}
}
