package obs

import (
	"sync/atomic"

	"flagsim/internal/palette"
	"flagsim/internal/sim"
)

// MetricsProbe publishes completed engine runs onto a Registry: cells
// painted, implement grants/releases, processors retired, blocks by
// kind and color, spans by kind, steals, migrated cells, event counts,
// the kernel's event-queue high-water mark and the fault tallies, all
// read from the run's Result (sim.Result.Counts holds the engine's own
// event tally). It installs nothing on the engine, so the runs it
// publishes keep the engine's fast path; its owner hands it each
// computed Result through ObserveResult, as sweep.Options.Observer does.
//
// One MetricsProbe instance is meant to serve a whole process, where
// it publishes many runs concurrently: every counter is an atomic, so
// the probe is goroutine-safe by construction.
type MetricsProbe struct {
	cells    *Counter
	grants   *Counter
	releases *Counter
	retired  *Counter
	blocks   *CounterVec
	// layerBlocks and implBlocks cache the blocks_total series, resolved
	// the first time a run has a non-zero count for them, so a scrape
	// shows only series some run actually blocked on.
	layerBlocks atomic.Pointer[Counter]
	implBlocks  [palette.NColors]atomic.Pointer[Counter]
	spans       [sim.NumSpanKinds]*Counter

	runs         *Counter
	instrumented *Counter
	steals       *Counter
	migrate      *Counter
	events       *Counter
	queueHW      *Gauge

	// flagsim_faults_* families, fed from Result.Faults.
	faultRuns     *Counter
	stalls        *Counter
	degraded      *Counter
	forcedBreaks  *Counter
	handoffDelays *Counter
	repaints      *Counter
	lostPaints    *Counter
}

var _ sim.ResultProbe = (*MetricsProbe)(nil)

// NewMetricsProbe registers the engine metric families on reg and returns
// the probe that feeds them.
func NewMetricsProbe(reg *Registry) *MetricsProbe {
	p := &MetricsProbe{
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
	for k := range p.spans {
		p.spans[k] = spanVec.With(sim.SpanKind(k).String())
	}
	p.instrumented = reg.Counter("flagsim_engine_instrumented_runs_total",
		"Completed engine runs that took the instrumented opcodes (traced, probed or fault-injected).")
	return p
}

// ObserveResult implements sim.ResultProbe: it publishes one completed
// run, one atomic add per non-zero count.
func (p *MetricsProbe) ObserveResult(res *sim.Result) {
	c := &res.Counts
	p.runs.Inc()
	if c.Instrumented {
		p.instrumented.Inc()
	}
	cells := 0
	for i := range res.Procs {
		cells += res.Procs[i].Cells
	}
	add(p.cells, cells)
	add(p.grants, int(c.Grants))
	add(p.releases, int(c.Releases))
	add(p.retired, int(c.Retired))
	if c.LayerBlocks > 0 {
		p.blockSeries(&p.layerBlocks, sim.SpanWaitLayer, palette.None).Add(uint64(c.LayerBlocks))
	}
	for col, n := range c.ImplementBlocks {
		if n > 0 {
			p.blockSeries(&p.implBlocks[col], sim.SpanWaitImplement, palette.Color(col)).Add(uint64(n))
		}
	}
	for k, n := range res.SpanCounts() {
		add(p.spans[k], int(n))
	}
	add(p.steals, res.Steals)
	add(p.migrate, res.Migrated)
	if res.Events > 0 {
		p.events.Add(res.Events)
	}
	p.queueHW.SetMax(int64(res.MaxEventQueue))
	if f := res.Faults; f.Injected {
		p.faultRuns.Inc()
		add(p.stalls, f.Stalls)
		add(p.degraded, f.DegradedCells)
		add(p.forcedBreaks, f.ForcedBreaks)
		add(p.handoffDelays, f.HandoffDelays)
		add(p.repaints, f.Repaints)
		add(p.lostPaints, f.LostPaints)
	}
}

// blockSeries returns the blocks_total series cached in slot, resolving
// it on first use. Concurrent first uses resolve the same series.
func (p *MetricsProbe) blockSeries(slot *atomic.Pointer[Counter], kind sim.SpanKind, color palette.Color) *Counter {
	if c := slot.Load(); c != nil {
		return c
	}
	c := p.blocks.With(kind.String(), color.String())
	slot.Store(c)
	return c
}

// add adds n to c when n is positive.
func add(c *Counter, n int) {
	if n > 0 {
		c.Add(uint64(n))
	}
}
