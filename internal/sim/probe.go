package sim

// Probes are the engine's observer layer: metrics, Chrome tracing, and
// live dashboards hook engine execution without the engine knowing about
// them. A probe receives a callback on every grant, release, block,
// cell-completion, and processor-retirement event, plus every span the
// engine materializes (the same vocabulary the Gantt renderers and the
// Chrome-trace exporter consume).
//
// Installing a probe forces span materialization even when Config.Trace
// is off, so a collector probe sees exactly what a traced run records.
// It also selects the engine's instrumented opcodes, which pay a
// callback per event and never batch spans. A caller that only wants
// totals installs nothing: on both opcode families every run's Result
// holds the grants, releases, retirements, blocks and spans a probe
// would have been called with (Result.Counts, Result.SpanCounts), and a
// ResultProbe handed the Result (for example sweep.Options.Observer)
// publishes them once per run.
//
// Goroutine safety: one engine run is single-threaded, so a probe
// installed on exactly one run never sees concurrent callbacks. A probe
// instance shared across runs that may execute in parallel (installed
// pool-wide through sweep.Options.Probes) receives interleaved callbacks
// from many engines at once and must be goroutine-safe. Of the probes
// shipped here, CountingProbe is safe to share (atomic counters);
// SpanCollector is not (it appends to a slice and would interleave spans
// from unrelated runs) — install a fresh one per run.

import (
	"sync/atomic"
	"time"

	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/workplan"
)

// Probe observes engine execution. Embed BaseProbe to implement only the
// callbacks you need and stay compatible as the interface grows. See the
// package note above for the goroutine-safety contract when one probe
// instance is shared across concurrent runs.
type Probe interface {
	// Grant fires when pi acquires an implement (including handoffs).
	Grant(pi int, im *implement.Implement, at time.Duration)
	// Release fires when pi puts an implement back.
	Release(pi int, im *implement.Implement, at time.Duration)
	// Block fires when pi parks: kind is SpanWaitImplement (color set) or
	// SpanWaitLayer (color is palette.None).
	Block(pi int, kind SpanKind, color palette.Color, at time.Duration)
	// Complete fires after pi's painted cell lands on the grid.
	Complete(pi int, task workplan.Task, at time.Duration)
	// ProcDone fires when pi retires with no further work.
	ProcDone(pi int, at time.Duration)
	// Span receives every materialized trace span as it is emitted.
	Span(sp Span)
}

// ResultProbe is an optional extension: a Probe that also implements it
// receives the completed run's Result once, after the event loop drains
// and the executor assembles it. This is where run-level aggregates live
// that no event callback can see — steal counts, migrated cells, total
// events, the kernel's event-queue high-water mark, the event tally.
// A ResultProbe that is not a Probe is handed Results by its owner (the
// sweep pool's Options.Observer) and never touches the engine.
type ResultProbe interface {
	ObserveResult(res *Result)
}

// RunScopedProbe is an optional extension for probes that need per-run
// state but are installed in a shared place (sweep.Options.Probes hands
// one probe slice to every pooled compute). When the engine starts a run
// it calls BeginRun on every such probe and installs the returned child
// for that run's callbacks instead of the parent; the parent never sees
// engine events directly. BeginRun must be goroutine-safe (pooled runs
// start concurrently); the child it returns is single-run state and is
// the value that receives ObserveResult if it implements ResultProbe.
type RunScopedProbe interface {
	Probe
	BeginRun() Probe
}

// notifyResultProbes fans a completed result out to every probe that
// opted into result observation.
func notifyResultProbes(probes []Probe, res *Result) {
	for _, p := range probes {
		if rp, ok := p.(ResultProbe); ok {
			rp.ObserveResult(res)
		}
	}
}

// BaseProbe is a no-op Probe for embedding.
type BaseProbe struct{}

// Grant implements Probe.
func (BaseProbe) Grant(int, *implement.Implement, time.Duration) {}

// Release implements Probe.
func (BaseProbe) Release(int, *implement.Implement, time.Duration) {}

// Block implements Probe.
func (BaseProbe) Block(int, SpanKind, palette.Color, time.Duration) {}

// Complete implements Probe.
func (BaseProbe) Complete(int, workplan.Task, time.Duration) {}

// ProcDone implements Probe.
func (BaseProbe) ProcDone(int, time.Duration) {}

// Span implements Probe.
func (BaseProbe) Span(Span) {}

// CountingProbe tallies engine events — the cheapest metrics hook. Its
// counters are atomics, so one CountingProbe may be shared across
// concurrently executing runs (e.g. installed pool-wide on a sweep) and
// tallies the aggregate.
type CountingProbe struct {
	BaseProbe
	grants    atomic.Int64
	releases  atomic.Int64
	blocks    atomic.Int64
	completes atomic.Int64
	retired   atomic.Int64
	spans     atomic.Int64
}

// Grant implements Probe.
func (c *CountingProbe) Grant(int, *implement.Implement, time.Duration) { c.grants.Add(1) }

// Release implements Probe.
func (c *CountingProbe) Release(int, *implement.Implement, time.Duration) { c.releases.Add(1) }

// Block implements Probe.
func (c *CountingProbe) Block(int, SpanKind, palette.Color, time.Duration) { c.blocks.Add(1) }

// Complete implements Probe.
func (c *CountingProbe) Complete(int, workplan.Task, time.Duration) { c.completes.Add(1) }

// ProcDone implements Probe.
func (c *CountingProbe) ProcDone(int, time.Duration) { c.retired.Add(1) }

// Span implements Probe.
func (c *CountingProbe) Span(Span) { c.spans.Add(1) }

// Grants returns the number of implement acquisitions observed.
func (c *CountingProbe) Grants() int { return int(c.grants.Load()) }

// Releases returns the number of implement put-downs observed.
func (c *CountingProbe) Releases() int { return int(c.releases.Load()) }

// Blocks returns the number of processor blocks observed.
func (c *CountingProbe) Blocks() int { return int(c.blocks.Load()) }

// Completes returns the number of painted cells observed.
func (c *CountingProbe) Completes() int { return int(c.completes.Load()) }

// Retired returns the number of processor retirements observed.
func (c *CountingProbe) Retired() int { return int(c.retired.Load()) }

// Spans returns the number of spans observed.
func (c *CountingProbe) Spans() int { return int(c.spans.Load()) }

// SpanCollector accumulates every span the engine emits — a traced run's
// Result.Trace, reconstructed through the probe layer. It lets exporters
// (Gantt, Chrome trace, animations) observe an untraced run. A collector
// is single-run state: install a fresh one per run, never share one
// across concurrent runs.
type SpanCollector struct {
	BaseProbe
	Spans []Span
}

// Span implements Probe.
func (s *SpanCollector) Span(sp Span) { s.Spans = append(s.Spans, sp) }
