package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/workplan"
)

// refMetricsProbe is the per-event engine metrics probe that
// MetricsProbe replaced: a sim.Probe installed on every compute, fed one
// callback per grant, release, block, cell, retirement and span. It is
// kept as the reference the Result-fed publisher must equal.
type refMetricsProbe struct {
	cells, grants, releases, retired *Counter
	blocks                           *CounterVec
	spans                            []*Counter

	runs, steals, migrate, events *Counter
	queueHW                       *Gauge

	faultRuns, stalls, degraded, forcedBreaks *Counter
	handoffDelays, repaints, lostPaints       *Counter
}

func newRefMetricsProbe(reg *Registry) *refMetricsProbe {
	p := &refMetricsProbe{
		cells:    reg.Counter("flagsim_engine_cells_painted_total", "Grid cells painted by the simulation engine."),
		grants:   reg.Counter("flagsim_engine_grants_total", "Implement acquisitions granted (including handoffs)."),
		releases: reg.Counter("flagsim_engine_releases_total", "Implements put back by processors."),
		retired:  reg.Counter("flagsim_engine_procs_retired_total", "Processors that finished all assigned work."),
		blocks:   reg.CounterVec("flagsim_engine_blocks_total", "Processor blocks by wait kind and implement color.", "kind", "color"),
		runs:     reg.Counter("flagsim_engine_runs_total", "Completed engine runs observed."),
		steals:   reg.Counter("flagsim_engine_steals_total", "Work-stealing operations across observed runs."),
		migrate:  reg.Counter("flagsim_engine_cells_migrated_total", "Cells painted by a processor other than the planned one."),
		events:   reg.Counter("flagsim_engine_events_total", "Discrete events processed by the kernel."),
		queueHW:  reg.Gauge("flagsim_engine_event_queue_high_water", "Largest kernel event-queue depth seen in any observed run."),

		faultRuns:     reg.Counter("flagsim_faults_runs_total", "Completed runs that had a fault injector installed."),
		stalls:        reg.Counter("flagsim_faults_stalls_total", "Fault-injected processor stall windows served."),
		degraded:      reg.Counter("flagsim_faults_degraded_cells_total", "Paint attempts with fault-degraded service time."),
		forcedBreaks:  reg.Counter("flagsim_faults_forced_breaks_total", "Fault-forced implement breakages."),
		handoffDelays: reg.Counter("flagsim_faults_handoff_delays_total", "Fault-delayed implement handoffs."),
		repaints:      reg.Counter("flagsim_faults_repaints_total", "Cells repainted after a fault-injected paint failure."),
		lostPaints:    reg.Counter("flagsim_faults_lost_paints_total", "Grid writes dropped by the unsound self-test injector."),
	}
	spanVec := reg.CounterVec("flagsim_engine_spans_total", "Trace spans materialized by kind.", "kind")
	for k := 0; k < sim.NumSpanKinds; k++ {
		p.spans = append(p.spans, spanVec.With(sim.SpanKind(k).String()))
	}
	return p
}

func (p *refMetricsProbe) Grant(int, *implement.Implement, time.Duration)   { p.grants.Inc() }
func (p *refMetricsProbe) Release(int, *implement.Implement, time.Duration) { p.releases.Inc() }
func (p *refMetricsProbe) Block(_ int, kind sim.SpanKind, color palette.Color, _ time.Duration) {
	p.blocks.With(kind.String(), color.String()).Inc()
}
func (p *refMetricsProbe) Complete(int, workplan.Task, time.Duration) { p.cells.Inc() }
func (p *refMetricsProbe) ProcDone(int, time.Duration)                { p.retired.Inc() }
func (p *refMetricsProbe) Span(sp sim.Span) {
	if int(sp.Kind) < len(p.spans) {
		p.spans[int(sp.Kind)].Inc()
	}
}

func (p *refMetricsProbe) ObserveResult(res *sim.Result) {
	p.runs.Inc()
	p.steals.Add(uint64(res.Steals))
	p.migrate.Add(uint64(res.Migrated))
	p.events.Add(res.Events)
	p.queueHW.SetMax(int64(res.MaxEventQueue))
	if f := res.Faults; f.Injected {
		p.faultRuns.Inc()
		p.stalls.Add(uint64(f.Stalls))
		p.degraded.Add(uint64(f.DegradedCells))
		p.forcedBreaks.Add(uint64(f.ForcedBreaks))
		p.handoffDelays.Add(uint64(f.HandoffDelays))
		p.repaints.Add(uint64(f.Repaints))
		p.lostPaints.Add(uint64(f.LostPaints))
	}
}

// publisherCorpus is the builtin flags under all three executors and
// scenarios S1 to S4 with markers and crayons, the same with the light
// and heavy fault presets, and gen:v1:7:0 to gen:v1:7:15 under all
// three executors and S1 to S4.
func publisherCorpus(t *testing.T) []sweep.Spec {
	t.Helper()
	var out []sweep.Spec
	add := func(flag string, kind implement.Kind, faults *fault.Plan) {
		for _, exec := range []sweep.Exec{sweep.ExecStatic, sweep.ExecSteal, sweep.ExecDynamic} {
			for scen := core.S1; scen <= core.S4; scen++ {
				sp := sweep.Spec{Exec: exec, Flag: flag, Scenario: scen, Kind: kind,
					Seed: uint64(scen), Setup: core.DefaultSetup, Faults: faults}
				if exec == sweep.ExecDynamic {
					s, _ := core.ScenarioByID(scen)
					sp.Workers, sp.Policy = s.Workers, sim.PullColorAffinity
				}
				out = append(out, sp)
			}
		}
	}
	for _, fl := range flagspec.Names() {
		add(fl, implement.ThickMarker, nil)
		add(fl, implement.Crayon, nil)
		for _, preset := range []string{"light", "heavy"} {
			plan, err := fault.Preset(preset, 3)
			if err != nil {
				t.Fatal(err)
			}
			add(fl, implement.ThickMarker, plan)
		}
	}
	for v := uint64(0); v < 16; v++ {
		add(flaggen.Name(7, v), implement.ThickMarker, nil)
	}
	return out
}

// engineLines is reg's exposition without the family the reference
// probe never had.
func engineLines(reg *Registry) string {
	var b strings.Builder
	reg.WriteText(&b)
	var out strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.Contains(line, "flagsim_engine_instrumented_runs_total") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestMetricsPublisherMatchesPerEventProbe runs one corpus through a pool
// wired the old way (the reference probe installed on every compute)
// and through a pool that hands each Result to MetricsProbe, and
// requires byte-identical flagsim_engine_* and flagsim_faults_* lines.
// Only the faulted runs may take the instrumented opcodes on the
// publishing side.
func TestMetricsPublisherMatchesPerEventProbe(t *testing.T) {
	specs := publisherCorpus(t)
	refReg, pubReg := NewRegistry(), NewRegistry()
	ref := newRefMetricsProbe(refReg)
	pub := NewMetricsProbe(pubReg)
	if err := sweep.New(sweep.Options{Workers: 2, Probes: []sim.Probe{ref}}).Run(nil, specs).Err(); err != nil {
		t.Fatal(err)
	}
	batch := sweep.New(sweep.Options{Workers: 2, Observer: pub}).Run(nil, specs)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for _, run := range batch.Runs {
		if run.Result.Counts.Instrumented != (run.Spec.Faults != nil) {
			t.Errorf("%s: instrumented = %v", run.Spec.Label(), run.Result.Counts.Instrumented)
		}
		if run.Spec.Faults != nil {
			faulted++
		}
	}
	if want, got := engineLines(refReg), engineLines(pubReg); got != want {
		t.Errorf("published engine families differ from the per-event probe's:\n--- per-event\n%s--- published\n%s", want, got)
	}
	var b strings.Builder
	pubReg.WriteText(&b)
	if want := "flagsim_engine_instrumented_runs_total " + strconv.Itoa(faulted) + "\n"; !strings.Contains(b.String(), want) {
		t.Errorf("missing %q", want)
	}
}

// TestMetricsPublisherConcurrentBatches publishes from 8 concurrent
// batches on one pool; run under -race.
func TestMetricsPublisherConcurrentBatches(t *testing.T) {
	specs := publisherCorpus(t)[:24]
	reg := NewRegistry()
	pub := NewMetricsProbe(reg)
	sw := sweep.New(sweep.Options{Workers: 4, Observer: pub})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]sweep.Spec, len(specs))
			for i, sp := range specs {
				sp.Seed += uint64(100 * w)
				batch[i] = sp
			}
			if err := sw.Run(nil, batch).Err(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if got, want := pub.runs.Value(), uint64(8*len(specs)); got != want {
		t.Errorf("runs published = %d, want %d", got, want)
	}
}
