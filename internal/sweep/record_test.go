package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// testEncode is a record encoder for this package's tests (the daemons'
// encoder lives in wire, which imports sweep). It renders the summary
// and the slim copy's strategy and stats, and refuses a copy that kept
// anything record mode is meant to drop.
func testEncode(res *sim.Result, sum Summary) ([]byte, error) {
	if res.Grid != nil || res.Trace != nil || res.Plan.PerProc != nil || res.Plan.LayerDeps != nil {
		return nil, errors.New("slim copy kept its grid, trace or plan task lists")
	}
	return fmt.Appendf(nil, "%s|%d|%d|%x|%d|%d|%d", res.Plan.Strategy, sum.Makespan, sum.Events,
		sum.GridSHA256, len(res.Procs), len(res.Implements), res.Breaks), nil
}

// summaryOf is what a record of res must summarize.
func summaryOf(res *sim.Result) Summary {
	return Summary{Makespan: res.Makespan, Events: res.Events,
		GridSHA256: sha256.Sum256([]byte(res.Grid.String()))}
}

// TestRecordModeRuns: in record mode the spec that computes gets its
// Record and no live Result (that would alias the crew member's arena),
// every hit (within the batch, a later batch, Lookup) gets the same
// Record alone, and the record summarizes and encodes exactly what a
// fresh RunOnce computes.
func TestRecordModeRuns(t *testing.T) {
	s := New(Options{Workers: 2, Encode: testEncode})
	specs := testGrid()[:8]
	batch := s.Run(nil, append(append([]Spec(nil), specs...), specs...))
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		first, dup := batch.Runs[i], batch.Runs[i+len(specs)]
		computed, hit := first, dup
		if first.CacheHit {
			computed, hit = dup, first
		}
		if computed.CacheHit || !hit.CacheHit {
			t.Fatalf("%s: hits %v/%v, want one compute and one hit", spec.Label(), first.CacheHit, dup.CacheHit)
		}
		if computed.Result != nil || computed.Record == nil || hit.Result != nil || hit.Record != computed.Record {
			t.Fatalf("%s: compute carries result %v record %v; hit carries result %v, same record %v",
				spec.Label(), computed.Result != nil, computed.Record != nil, hit.Result != nil, hit.Record == computed.Record)
		}
		fresh, err := spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := computed.Record
		if rec.Summary != summaryOf(fresh) {
			t.Errorf("%s: summary %+v, want %+v", spec.Label(), rec.Summary, summaryOf(fresh))
		}
		got, err := rec.Bytes()
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		slim := *fresh
		slim.Plan = &workplan.Plan{Strategy: fresh.Plan.Strategy}
		slim.Grid, slim.Trace = nil, nil
		want, _ := testEncode(&slim, summaryOf(fresh))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bytes %q, want %q", spec.Label(), got, want)
		}
		if rec.slim != nil || rec.enc != nil {
			t.Errorf("%s: the record kept its slim copy after Bytes", spec.Label())
		}
		if l, ok := s.Lookup(spec.Key()); !ok || l != rec {
			t.Errorf("%s: Lookup = %v, %v; want the memoized record", spec.Label(), l != nil, ok)
		}
	}
	if st := s.Stats(); st.Hits != 2*len(specs) || st.Misses != len(specs) || st.Entries != len(specs) {
		t.Errorf("stats %+v, want %d hits (batch and Lookup), %d misses", st, 2*len(specs), len(specs))
	}
	for _, run := range s.Run(nil, specs).Runs {
		if !run.CacheHit || run.Result != nil || run.Record == nil {
			t.Errorf("%s: warm batch hit %v, result %v, record %v", run.Spec.Label(),
				run.CacheHit, run.Result != nil, run.Record != nil)
		}
	}
}

// TestRecordFirstBytesRace: eight goroutines racing on a record's first
// Bytes share one encode and get identical bytes (run under -race).
func TestRecordFirstBytesRace(t *testing.T) {
	var encodes atomic.Int32
	enc := func(res *sim.Result, sum Summary) ([]byte, error) {
		encodes.Add(1)
		return testEncode(res, sum)
	}
	res, err := Spec{Flag: "mauritius", Scenario: core.S4, Kind: implement.ThickMarker, Seed: 3}.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecord(res, enc)
	var start sync.WaitGroup
	start.Add(1)
	out := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			raw, err := rec.Bytes()
			if err != nil {
				t.Error(err)
			}
			out[i] = raw
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := range out {
		if !bytes.Equal(out[i], out[0]) || len(out[i]) == 0 {
			t.Fatalf("goroutine %d got %q, goroutine 0 %q", i, out[i], out[0])
		}
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("%d encodes for one record, want 1", n)
	}
}

// TestRecordModeMemoizesErrors: a failing spec fails again from the
// memo without recomputing, carries no record, and Lookup never returns
// it.
func TestRecordModeMemoizesErrors(t *testing.T) {
	s := New(Options{Workers: 1, Encode: testEncode})
	bad := Spec{Flag: "mauritius", Scenario: 99}
	first := s.Run(nil, []Spec{bad}).Runs[0]
	again := s.Run(nil, []Spec{bad}).Runs[0]
	if first.Err == nil || again.Err == nil || !again.CacheHit || first.Record != nil || again.Record != nil {
		t.Fatalf("failing spec: first err %v record %v; again err %v hit %v record %v",
			first.Err, first.Record != nil, again.Err, again.CacheHit, again.Record != nil)
	}
	hits := s.Stats().Hits
	if rec, ok := s.Lookup(bad.Key()); ok || rec != nil {
		t.Fatal("Lookup returned a failed entry")
	}
	if st := s.Stats(); st.Hits != hits || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v after a failed Lookup, want %d hits, 1 miss, 1 entry", st, hits)
	}
}

// TestRecordModeEvictsCancellations: a compute canceled mid-run leaves
// no entry, so Lookup misses and the next batch recomputes it.
func TestRecordModeEvictsCancellations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(Options{Workers: 1, Encode: testEncode, Probes: []sim.Probe{&cancelOnComplete{cancel: cancel}}})
	big := Spec{Flag: "mauritius", Scenario: core.S1, Kind: implement.ThickMarker, W: 400, H: 260, Seed: 20}
	if run := s.Run(ctx, []Spec{big}).Runs[0]; !errors.Is(run.Err, sim.ErrCanceled) || run.Record != nil {
		t.Fatalf("canceled compute: err %v, record %v", run.Err, run.Record != nil)
	}
	if _, ok := s.Lookup(big.Key()); ok {
		t.Fatal("Lookup returned a canceled compute")
	}
	if st := s.Stats(); st.Entries != 0 || st.Evictions != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v after a canceled compute, want no entry, 1 eviction, no hit", st)
	}
	if run := s.Run(context.Background(), []Spec{big}).Runs[0]; run.Err != nil || run.CacheHit || run.Record == nil {
		t.Fatalf("recompute: err %v, hit %v, record %v", run.Err, run.CacheHit, run.Record != nil)
	}
}

// gateProbe parks the first compute it sees on its first painted cell
// until released.
type gateProbe struct {
	sim.BaseProbe
	once             sync.Once
	entered, release chan struct{}
}

func (g *gateProbe) Complete(int, workplan.Task, time.Duration) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

// TestLookupSkipsInFlight: while a key computes, Lookup reports false
// and counts nothing; once the compute finishes it returns the record.
// Lookups spin while the compute finishes, so under -race a Lookup that
// read the entry before its compute was done would be reported.
func TestLookupSkipsInFlight(t *testing.T) {
	gate := &gateProbe{entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Options{Workers: 1, Encode: testEncode, Probes: []sim.Probe{gate}})
	spec := Spec{Flag: "mauritius", Scenario: core.S2, Kind: implement.ThickMarker, Seed: 4}
	done := make(chan *Result)
	go func() { done <- s.Run(nil, []Spec{spec}) }()
	<-gate.entered
	if _, ok := s.Lookup(spec.Key()); ok {
		t.Fatal("Lookup returned an in-flight compute")
	}
	if st := s.Stats(); st.Hits != 0 {
		t.Fatalf("a Lookup of an in-flight key counted %d hits", st.Hits)
	}
	close(gate.release)
	var rec *Record
	for ok := false; !ok; {
		rec, ok = s.Lookup(spec.Key())
	}
	batch := <-done
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if rec != batch.Runs[0].Record {
		t.Fatal("Lookup returned another record than the compute made")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit (the Lookup) and 1 miss", st)
	}
}

// TestLibraryModeHasNoRecords: without Encode the memo keeps live
// Results and Lookup never reports a record.
func TestLibraryModeHasNoRecords(t *testing.T) {
	s := New(Options{Workers: 1})
	spec := testGrid()[0]
	s.Run(nil, []Spec{spec})
	run := s.Run(nil, []Spec{spec}).Runs[0]
	if !run.CacheHit || run.Result == nil || run.Record != nil {
		t.Fatalf("library-mode hit: result %v, record %v", run.Result != nil, run.Record != nil)
	}
	if _, ok := s.Lookup(spec.Key()); ok {
		t.Fatal("Lookup returned a record outside record mode")
	}
}
