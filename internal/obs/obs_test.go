package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"flagsim/internal/palette"
	"flagsim/internal/sim"
)

func TestRunIDsAreUniqueAndWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRunID()
		if len(id) != 16 {
			t.Fatalf("run id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		seen[id] = true
	}
}

func TestRunIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := RunID(ctx); got != "" {
		t.Errorf("empty context carries run id %q", got)
	}
	ctx = WithRunID(ctx, "deadbeefdeadbeef")
	if got := RunID(ctx); got != "deadbeefdeadbeef" {
		t.Errorf("RunID = %q", got)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"": slog.LevelInfo, "debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler emitted non-JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("record = %v", rec)
	}
	lg.Debug("dropped")
	buf.Reset()
	lg.Debug("dropped")
	if buf.Len() != 0 {
		t.Error("info-level logger emitted a debug record")
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("fine")
	if !strings.Contains(buf.String(), "msg=fine") {
		t.Errorf("text handler output: %s", buf.String())
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Error("nop logger claims to be enabled")
	}
	lg.Error("goes nowhere") // must not panic
}

func TestRunRingEvictsOldest(t *testing.T) {
	r := NewRing[RunSummary](3)
	for i := 1; i <= 5; i++ {
		r.Insert(RunSummary{ID: fmt.Sprintf("run-%d", i), Status: 200})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if _, ok := r.Get("run-2"); ok {
		t.Error("evicted summary still resolvable")
	}
	if got, ok := r.Get("run-5"); !ok || got.Status != 200 {
		t.Error("latest summary not resolvable")
	}
	list := r.List()
	var ids []string
	for _, s := range list {
		ids = append(ids, s.ID)
	}
	if want := []string{"run-5", "run-4", "run-3"}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("List order = %v, want %v", ids, want)
	}
}

func TestRunRingMinimumSize(t *testing.T) {
	r := NewRing[RunSummary](0)
	r.Insert(RunSummary{ID: "a"})
	r.Insert(RunSummary{ID: "b"})
	if r.Len() != 1 {
		t.Errorf("ring of clamped size 1 holds %d", r.Len())
	}
	if _, ok := r.Get("a"); ok {
		t.Error("single-slot ring kept the overwritten entry")
	}
}

// TestRunRingRepeatedKey: a key inserted twice (a client reusing its
// X-Run-ID) keeps its first entry, and evicting another slot never drops
// the index of a key that is still resident.
func TestRunRingRepeatedKey(t *testing.T) {
	r := NewRing[RunSummary](2)
	r.Insert(RunSummary{ID: "x", Status: 200})
	r.Insert(RunSummary{ID: "x", Status: 500})
	r.Insert(RunSummary{ID: "y", Status: 200})
	if got, ok := r.Get("x"); !ok || got.Status != 200 {
		t.Fatalf("Get(x) = %+v, %v; want the first insert, still resident", got, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Insert(RunSummary{ID: "z"})
	if _, ok := r.Get("x"); ok {
		t.Error("evicted x still resolvable")
	}
	if _, ok := r.Get("y"); !ok {
		t.Error("resident y not resolvable")
	}
}

func TestRunRingConcurrent(t *testing.T) {
	r := NewRing[RunSummary](8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Insert(RunSummary{ID: fmt.Sprintf("w%d-%d", w, i)})
				r.List()
				r.Get(fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Errorf("Len = %d, want 8", r.Len())
	}
}

// TestMetricsProbeFamilies publishes one run's Result and checks every
// engine family renders with its values, and that a blocks series no
// run blocked on is not created.
func TestMetricsProbeFamilies(t *testing.T) {
	reg := NewRegistry()
	p := NewMetricsProbe(reg)
	var c sim.Counts
	c.Grants, c.Releases, c.Retired = 2, 1, 1
	c.ImplementBlocks[palette.Red] = 1
	c.PaintSpans, c.PickupSpans = 1, 1
	p.ObserveResult(&sim.Result{
		Procs:  []sim.ProcStats{{Cells: 2}, {Cells: 1}},
		Steals: 2, Migrated: 7, Events: 40, MaxEventQueue: 5, Counts: c,
	})

	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, line := range []string{
		"flagsim_engine_cells_painted_total 3",
		"flagsim_engine_grants_total 2",
		"flagsim_engine_releases_total 1",
		"flagsim_engine_procs_retired_total 1",
		`flagsim_engine_blocks_total{kind="wait-implement",color="red"} 1`,
		`flagsim_engine_spans_total{kind="paint"} 1`,
		`flagsim_engine_spans_total{kind="pickup"} 1`,
		"flagsim_engine_runs_total 1",
		"flagsim_engine_steals_total 2",
		"flagsim_engine_cells_migrated_total 7",
		"flagsim_engine_events_total 40",
		"flagsim_engine_event_queue_high_water 5",
		"flagsim_engine_instrumented_runs_total 0",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in exposition:\n%s", line, out)
		}
	}
	if strings.Contains(out, `flagsim_engine_blocks_total{kind="wait-layer"`) {
		t.Errorf("a blocks series with a zero count was created:\n%s", out)
	}
}

// TestMetricsProbeConcurrent publishes from many goroutines at once,
// the sweep-pool sharing shape; meaningful under -race.
func TestMetricsProbeConcurrent(t *testing.T) {
	reg := NewRegistry()
	p := NewMetricsProbe(reg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var c sim.Counts
				c.Grants, c.LayerBlocks = 1, 1
				c.ImplementBlocks[palette.Blue] = 1
				c.PaintSpans = 1
				c.Instrumented = i%2 == 0
				p.ObserveResult(&sim.Result{
					Procs:  []sim.ProcStats{{Cells: 1}},
					Events: 1, MaxEventQueue: i, Counts: c,
				})
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, line := range []string{
		"flagsim_engine_cells_painted_total 4000",
		"flagsim_engine_runs_total 4000",
		"flagsim_engine_events_total 4000",
		"flagsim_engine_event_queue_high_water 499",
		"flagsim_engine_grants_total 4000",
		`flagsim_engine_blocks_total{kind="wait-layer",color="none"} 4000`,
		`flagsim_engine_blocks_total{kind="wait-implement",color="blue"} 4000`,
		`flagsim_engine_spans_total{kind="paint"} 4000`,
		"flagsim_engine_instrumented_runs_total 2000",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q", line)
		}
	}
}
