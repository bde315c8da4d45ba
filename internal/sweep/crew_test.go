package sweep

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"flagsim/internal/core"
	"flagsim/internal/flaggen"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
)

// gateObserver blocks the pool's first computes until `width` of them
// are observed at once, reads the pool's depth at that moment, and
// records the most computes it ever saw at once. The Observer runs on
// the crew member that computed, before it takes its next spec, so what
// it sees at once is what computes at once.
type gateObserver struct {
	width   int64
	s       *Sweeper
	active  atomic.Int64
	peak    atomic.Int64
	arrived atomic.Int64
	full    chan struct{}
	once    sync.Once
	// running and queued are PoolDepth when width computes were first
	// observed at once.
	running, queued int
}

func (o *gateObserver) ObserveResult(*sim.Result) {
	n := o.active.Add(1)
	for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
	}
	if n == o.width {
		o.once.Do(func() {
			o.running, o.queued = o.s.PoolDepth()
			close(o.full)
		})
	}
	if o.arrived.Add(1) <= o.width {
		<-o.full
	}
	o.active.Add(-1)
}

// TestCrewBoundsComputes: a 64-spec batch at Workers 3 computes three
// specs at once and never more, its first three computes leave 61 specs
// queued, and it leaves PoolDepth at (0, 0).
func TestCrewBoundsComputes(t *testing.T) {
	obs := &gateObserver{width: 3, full: make(chan struct{})}
	s := New(Options{Workers: 3, Observer: obs})
	obs.s = s
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Spec{Flag: "mauritius", Scenario: core.S4, Kind: implement.ThickMarker, Seed: uint64(i)}
	}
	batch := s.Run(nil, specs)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if batch.Cache.Misses != len(specs) {
		t.Fatalf("%d computes for %d distinct specs", batch.Cache.Misses, len(specs))
	}
	if peak := obs.peak.Load(); peak != 3 {
		t.Fatalf("at most %d computes ran at once, want 3", peak)
	}
	if obs.running != 3 || obs.queued != len(specs)-3 {
		t.Fatalf("with three computes observed, PoolDepth read running=%d queued=%d, want 3 and %d",
			obs.running, obs.queued, len(specs)-3)
	}
	if running, queued := s.PoolDepth(); running != 0 || queued != 0 {
		t.Fatalf("drained pool reports running=%d queued=%d", running, queued)
	}
}

// TestCrewSameRecordsAcrossWorkers: a generated grid over all three
// executors, duplicates included, gives identical records in input
// order at Workers 1, 3 and 8.
func TestCrewSameRecordsAcrossWorkers(t *testing.T) {
	g := Grid{
		Base:  Spec{Flag: flaggen.Name(18, 0), Scenario: core.S4, Kind: implement.Crayon, Workers: 3, Seed: 5},
		Execs: []Exec{ExecStatic, ExecSteal, ExecDynamic},
	}
	for v := uint64(0); v < 8; v++ {
		g.Flags = append(g.Flags, flaggen.Name(18, v))
	}
	specs := g.Specs()
	specs = append(specs, specs[:5]...)
	records := func(workers int) [][]byte {
		batch := New(Options{Workers: workers, Encode: testEncode}).Run(nil, specs)
		if err := batch.Err(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(specs))
		for i, run := range batch.Runs {
			if run.Spec.Key() != specs[i].Key() {
				t.Fatalf("workers=%d: run %d holds %s, want %s", workers, i, run.Spec.Label(), specs[i].Label())
			}
			raw, err := run.Record.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = raw
		}
		return out
	}
	want := records(1)
	for _, workers := range []int{3, 8} {
		for i, raw := range records(workers) {
			if !bytes.Equal(raw, want[i]) {
				t.Fatalf("workers=%d: %s recorded %q, workers=1 %q", workers, specs[i].Label(), raw, want[i])
			}
		}
	}
}
