package main

// The metrics: their names and units (which BENCHMARK.json declares
// too), how each is derived from the rounds and the replay, and the
// printed report.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef declares one printed metric.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of flagsim sees, as BENCHMARK.json
// declares them: the timed figures and set-up time calibrated to the
// reference (ref.go), heap as observed; setup_s is calibrated too,
// though its name has no _cal. failed_frac is printed too, but it is not
// among them: it is 0 on a correct program, and the result line's
// attempted and failed fields carry it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s_cal", "1/s"},
	{"latency_p50_ms_cal", "ms"},
	{"latency_p90_ms_cal", "ms"},
	{"cpu_us_per_run_cal", "us"},
	{"live_heap_mb", "MB"},
}

// observedMetrics are the calibrated metrics' figures as observed,
// printed beside them but not declared: on a host whose speed drifts
// they are too unsteady to gate on.
var observedMetrics = []metricDef{
	{"setup_s_observed", "s"},
	{"runs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_us_per_run", "us"},
}

// perLayerMetrics are the traced run's layer ledger. A metric whose
// layer the workload does not exercise prints as 0 with "n/a".
var perLayerMetrics = []metricDef{
	{"server.handler_us", "us"},
	{"server.transport_us", "us"},
	{"server.sweep_wall_ms", "ms"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.sweep_row_us", "us"},
	{"sweep.key_us", "us"},
	{"sweep.memo_hit_us", "us"},
	{"sweep.memo_hit_ratio", "ratio"},
	{"sweep.memo_entries", "count"},
	{"sweep.memo_kb_per_entry", "KB"},
	{"flaggen.generate_us", "us"},
	{"sim.engine_us", "us"},
	{"sim.events_per_run", "count"},
	{"sim.engine_ns_per_event", "ns"},
	{"runtime.alloc_kb_per_run", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"dist.enqueue_us", "us"},
	{"dist.lease_rtt_us", "us"},
	{"dist.lease_useful_ratio", "ratio"},
	{"dist.report_rtt_us", "us"},
	{"dist.report_kb", "KB"},
	{"dist.store_put_us", "us"},
	{"dist.journal_complete_us", "us"},
	{"dist.phase_queue_wait_ms", "ms"},
	{"dist.phase_compute_ms", "ms"},
	{"dist.phase_store_ms", "ms"},
	{"dist.worker_busy_frac", "ratio"},
	{"dist.disk_write_kb_per_job", "KB"},
	{"dist.sweep_handler_us", "us"},
	{"dist.store_get_us", "us"},
	{"dist.row_decode_us", "us"},
	{"dist.store_kb_per_result", "KB"},
	{"ledger.unattributed_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"host.steal_frac", "ratio"},
	{"host.ref_ms", "ms"},
	{"host.ref_ms_after", "ms"},
	{"host.ref_call_us", "us"},
}

// acc accumulates a sum and a count.
type acc struct{ sum, n float64 }

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects metric values with the note printed beside each.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	notes  map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, note string, args ...any) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
	m.notes[name] = fmt.Sprintf(note, args...)
}

// write prints one line per declared metric, in declaration order, with
// prefix; a metric never set prints as n/a with value 0.
func (m *metricSet) write(out io.Writer, prefix string) map[string]metricValue {
	vals := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		note := m.notes[d.name]
		if !ok {
			note = "n/a: this workload does not exercise the layer"
		}
		fmt.Fprintf(out, "%s %s = %s %s (%s)\n", prefix, d.name, fmtValue(v), d.unit, note)
		vals[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return vals
}

func fmtValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// perRound maps f over rounds.
func perRound(rounds []*roundResult, f func(*roundResult) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// heapGrowth is the live heap the round's system held after its timed
// phase, in bytes.
func (r *roundResult) heapGrowth() float64 { return float64(r.heapAfter) - float64(r.heapBase) }

// latencies is the round's median and p90 request latency in ms.
func (r *roundResult) latencies() (p50, p90 float64) {
	lat := append([]time.Duration(nil), r.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, 0.50)) / 1e6, float64(percentile(lat, 0.90)) / 1e6
}

// hostFactor is the round's host factor: refNominal over the mean time
// of its reference calls.
func (r *roundResult) hostFactor() float64 {
	return float64(r.refNominal) * float64(r.refCalls) / float64(r.refTime)
}

// refWindow is how many reference calls on either side of a timed call
// set its host factor. The host's speed moves within a round, so a
// round-wide factor restates the round's mean latency well but widens
// or narrows its percentiles.
const refWindow = 2

// calibrated returns the round's timed latencies, each multiplied by its
// own host factor when cal is set: refNominal over the mean of the
// refWindow reference calls completed before it and after it.
func (r *roundResult) calibrated(cal bool) []time.Duration {
	if !cal {
		return r.lat
	}
	out := make([]time.Duration, len(r.lat))
	for i, d := range r.lat {
		lo, hi := max(0, r.refAt[i]-refWindow), min(r.refCalls, r.refAt[i]+refWindow)
		var sum time.Duration
		for _, rd := range r.refDurs[lo:hi] {
			sum += rd
		}
		out[i] = time.Duration(float64(d) * float64(r.refNominal) * float64(hi-lo) / float64(sum))
	}
	return out
}

// programSeconds is the wall time the timed phase spent on program
// calls, calibrated when cal is set: the clients' summed latencies over
// the number of clients, which leaves out the reference calls between
// them.
func (r *roundResult) programSeconds(cal bool) float64 {
	var sum time.Duration
	for _, d := range r.calibrated(cal) {
		sum += d
	}
	return sum.Seconds() / float64(r.clients)
}

// programCPU is the process CPU time of the timed phase, in seconds,
// less what was spent while reference calls were made; calibrated when
// cal is set by the same factor as the program time.
func (r *roundResult) programCPU(cal bool) float64 {
	cpu := (r.c1.cpu - r.c0.cpu - r.refCPU).Seconds()
	if cal {
		cpu *= r.programSeconds(true) / r.programSeconds(false)
	}
	return cpu
}

// pooledRate is the runs delivered per second of program time over the
// timed phases of every round together, calibrated when cal is set.
func pooledRate(rounds []*roundResult, cal bool) float64 {
	var runs, secs float64
	for _, r := range rounds {
		runs += float64(r.runs)
		secs += r.programSeconds(cal)
	}
	return runs / secs
}

// pooledCPU is the program's process CPU time per run, in µs, over the
// timed phases of every round together, calibrated when cal is set.
func pooledCPU(rounds []*roundResult, cal bool) float64 {
	var runs, cpu float64
	for _, r := range rounds {
		runs += float64(r.runs)
		cpu += r.programCPU(cal)
	}
	return cpu * 1e6 / runs
}

// pooledLatency pools every timed request of every round, calibrated
// when cal is set, and returns the latencies sorted.
func pooledLatency(rounds []*roundResult, cal bool) []time.Duration {
	var lat []time.Duration
	for _, r := range rounds {
		lat = append(lat, r.calibrated(cal)...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// runFactor is the host factor of all rounds together.
func runFactor(rounds []*roundResult) float64 {
	var calls int
	var t time.Duration
	for _, r := range rounds {
		calls += r.refCalls
		t += r.refTime
	}
	return float64(rounds[0].refNominal) * float64(calls) / float64(t)
}

// endToEnd derives the end-to-end metrics from untraced rounds: the
// declared ones, whose timed figures are calibrated to the reference,
// and the same figures as observed. Rates, CPU and latency percentiles
// pool the timed phases of every round; heap and set-up are medians
// over rounds.
func endToEnd(rounds []*roundResult) (declared, observed *metricSet) {
	declared, observed = newMetricSet(endToEndMetrics), newMetricSet(observedMetrics)
	n := len(rounds)
	observed.set("setup_s_observed", median(perRound(rounds, func(r *roundResult) float64 { return r.setup.Seconds() })),
		"as observed; median of %d set-ups", n)
	// A set-up has no reference calls of its own; the timed phase right
	// after it has, and its host factor restates the set-up too.
	declared.set("setup_s", median(perRound(rounds, func(r *roundResult) float64 { return r.setup.Seconds() * r.hostFactor() })),
		"calibrated by each round's host factor; median of %d set-ups", n)
	for _, v := range []struct {
		m      *metricSet
		cal    bool
		suffix string
		how    string
	}{
		{observed, false, "", "as observed"},
		{declared, true, "_cal", fmt.Sprintf("calibrated to %v per reference call, run host factor %.4f", rounds[0].refNominal, runFactor(rounds))},
	} {
		v.m.set("runs_per_s"+v.suffix, pooledRate(rounds, v.cal), "%s; program time of %d rounds pooled", v.how, n)
		lat := pooledLatency(rounds, v.cal)
		v.m.set("latency_p50_ms"+v.suffix, float64(percentile(lat, 0.50))/1e6, "%s; n=%d requests", v.how, len(lat))
		v.m.set("latency_p90_ms"+v.suffix, float64(percentile(lat, 0.90))/1e6, "%s; n=%d requests, %d beyond p90",
			v.how, len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
		v.m.set("cpu_us_per_run"+v.suffix, pooledCPU(rounds, v.cal),
			"%s; process user+sys over %d timed phases, less the reference calls'", v.how, n)
	}
	declared.set("live_heap_mb", median(perRound(rounds, func(r *roundResult) float64 { return r.heapGrowth() / 1e6 })),
		"median of %d rounds: live heap after the timed phase less the same before the system was built, both after a forced GC", n)
	return declared, observed
}

// hostDiag is the run's host-drift evidence.
type hostDiag struct {
	refBefore, refAfter     float64
	stealBefore, stealAfter float64
}

// timedSteal is the steal share over every round's timed phase.
func timedSteal(rounds []*roundResult) float64 {
	var steal, ticks uint64
	for _, r := range rounds {
		steal += r.c1.steal - r.c0.steal
		ticks += r.c1.ticks - r.c0.ticks
	}
	if ticks == 0 {
		return 0
	}
	return float64(steal) / float64(ticks)
}

// timedSpans returns the spans of traced rounds that started inside
// their round's timed phase.
func timedSpans(rounds []*roundResult) []span {
	var out []span
	for _, r := range rounds {
		for _, s := range r.spans {
			if s.start >= r.t0 && s.start <= r.t1 {
				out = append(out, s)
			}
		}
	}
	return out
}

// perLayer derives the per-layer metrics. Span metrics come from the
// traced rounds; counters the program keeps itself (memo, phases, heap,
// disk, runtime) come from the untraced rounds of the same run, which
// the wrappers do not perturb; per-call layer times come from the
// replay.
func perLayer(w *workload, untraced, traced []*roundResult, led *replayLedger, host hostDiag) *metricSet {
	m := newMetricSet(perLayerMetrics)
	spans := timedSpans(traced)
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}

	handler := map[string]*acc{}
	var transport acc
	var sweepHandlerUS, sweepRows float64
	worker := map[string]*acc{}
	var leaseOK, reportBytes acc
	for _, s := range spans {
		switch s.lane {
		case laneHandler:
			route := strings.TrimPrefix(s.name, "handler ")
			if handler[route] == nil {
				handler[route] = &acc{}
			}
			handler[route].add(float64(s.dur()) / 1e3)
			if p, ok := byID[s.parent]; ok && p.lane == laneClient && route == pathSweep {
				sweepHandlerUS += float64(s.dur()) / 1e3
				sweepRows += float64(p.runs)
			}
		case laneClient:
			transport.add(float64(self[s.id]) / 1e3)
		case laneWorker:
			path := strings.TrimPrefix(s.name, "worker ")
			if worker[path] == nil {
				worker[path] = &acc{}
			}
			worker[path].add(float64(s.dur()) / 1e3)
			switch path {
			case "/v1/workers/lease":
				leaseOK.add(float64(b2i(s.status == 200)))
			case "/v1/workers/report":
				reportBytes.add(float64(s.bytes) / 1024)
			}
		}
	}

	if !w.fleet {
		var all acc
		var routes []string
		for _, route := range []string{pathRun, pathSweep} {
			if a := handler[route]; a != nil {
				all.sum += a.sum
				all.n += a.n
				routes = append(routes, fmt.Sprintf("%s %.4g us x%d", route, a.mean(), int(a.n)))
			}
		}
		m.set("server.handler_us", all.mean(), "calls=%d; %s", int(all.n), strings.Join(routes, ", "))
		m.set("server.transport_us", transport.mean(), "calls=%d, client round trip minus handler", int(transport.n))
		var wall acc
		for _, r := range traced {
			wall.sum += float64(r.sweepWallNS) / 1e6
			wall.n += float64(r.sweeps)
		}
		if wall.n > 0 {
			m.set("server.sweep_wall_ms", wall.mean(), "sweeps=%d, the response's own wall_ns", int(wall.n))
		}
	} else {
		if sweepRows > 0 {
			m.set("dist.sweep_handler_us", sweepHandlerUS/sweepRows, "per row, rows=%d", int(sweepRows))
		}
		if a := worker["/v1/workers/lease"]; a != nil {
			m.set("dist.lease_rtt_us", a.mean(), "calls=%d", int(a.n))
			m.set("dist.lease_useful_ratio", leaseOK.mean(), "base=%d lease calls, %d returned a job", int(leaseOK.n), int(leaseOK.sum))
		}
		if a := worker["/v1/workers/report"]; a != nil {
			m.set("dist.report_rtt_us", a.mean(), "calls=%d", int(a.n))
			m.set("dist.report_kb", reportBytes.mean(), "calls=%d, request bytes", int(reportBytes.n))
		}
	}

	// Program counters, from the untraced rounds.
	var hits, misses, entries, allocs, gcCPU, totalCPU, writes, runs, wallSec float64
	var kbPerEntry, storeKB []float64
	phases := map[string]*acc{}
	for _, r := range untraced {
		hits += float64(r.memo1.Hits - r.memo0.Hits)
		misses += float64(r.memo1.Misses - r.memo0.Misses)
		entries += float64(r.memo1.Entries)
		allocs += float64(r.c1.allocBytes - r.c0.allocBytes)
		gcCPU += r.c1.gcCPU - r.c0.gcCPU
		totalCPU += r.c1.totalCPU - r.c0.totalCPU
		writes += float64(r.c1.writeBytes - r.c0.writeBytes)
		runs += float64(r.runs)
		wallSec += r.wall.Seconds()
		if r.memo1.Entries > 0 {
			kbPerEntry = append(kbPerEntry, r.heapGrowth()/1024/float64(r.memo1.Entries))
		}
		if r.storeEntries > 0 {
			storeKB = append(storeKB, float64(r.storeBytes)/1024/float64(r.storeEntries))
		}
		for phase, a1 := range r.phase1 {
			a0 := r.phase0[phase]
			if phases[phase] == nil {
				phases[phase] = &acc{}
			}
			phases[phase].sum += a1.sum - a0.sum
			phases[phase].n += a1.n - a0.n
		}
	}
	nu := float64(len(untraced))
	if hits+misses > 0 {
		m.set("sweep.memo_hit_ratio", hits/(hits+misses), "base=%d lookups (hits=%d misses=%d)", int(hits+misses), int(hits), int(misses))
	}
	if entries > 0 {
		m.set("sweep.memo_entries", entries/nu, "resident at the end of a round, mean of %d rounds", len(untraced))
	}
	if !w.fleet && len(kbPerEntry) > 0 {
		m.set("sweep.memo_kb_per_entry", median(kbPerEntry), "live-heap growth over the round / entries, median of %d rounds", len(kbPerEntry))
	}
	m.set("runtime.alloc_kb_per_run", allocs/1024/runs, "runs=%d", int(runs))
	m.set("runtime.gc_cpu_frac", gcCPU/totalCPU, "base=%.4g cpu-seconds", totalCPU)
	if w.fleet {
		for _, p := range []struct{ phase, metric string }{
			{"queue_wait", "dist.phase_queue_wait_ms"},
			{"compute", "dist.phase_compute_ms"},
			{"store", "dist.phase_store_ms"},
		} {
			if a := phases[p.phase]; a != nil && a.n > 0 {
				m.set(p.metric, a.sum/a.n*1e3, "jobs=%d, the dispatcher's own histogram", int(a.n))
			}
		}
		if a := phases["compute"]; a != nil && wallSec > 0 {
			m.set("dist.worker_busy_frac", a.sum/(fleetWorkers*wallSec), "base=%d workers x %.4g s timed", fleetWorkers, wallSec)
		}
		m.set("dist.disk_write_kb_per_job", writes/1024/runs, "jobs=%d, /proc/self/io write_bytes", int(runs))
		if len(storeKB) > 0 {
			m.set("dist.store_kb_per_result", median(storeKB), "median of %d rounds", len(storeKB))
		}
	}

	// Replayed layers.
	for _, layer := range []string{
		"wire.decode_us", "flaggen.generate_us", "sweep.key_us", "sim.engine_us", "sweep.memo_hit_us",
		"wire.encode_us", "wire.sweep_row_us", "dist.enqueue_us", "dist.store_put_us",
		"dist.journal_complete_us", "dist.store_get_us", "dist.row_decode_us",
	} {
		if a := led.self[layer]; a != nil && a.n > 0 {
			m.set(layer, a.mean(), "replay calls=%d", int(a.n))
		}
	}
	if led.events.n > 0 {
		m.set("sim.events_per_run", led.events.mean(), "replayed runs=%d", int(led.events.n))
		if a := led.self["sim.engine_us"]; a != nil {
			m.set("sim.engine_ns_per_event", a.mean()*1e3/led.events.mean(), "replayed runs=%d", int(a.n))
		}
	}

	cpu := pooledCPU(untraced, false)
	var attributed float64
	var parts []string
	for _, layer := range w.pipeline {
		v := led.perRun(layer)
		attributed += v
		parts = append(parts, fmt.Sprintf("%s %.3g", layer, v))
	}
	m.set("ledger.unattributed_us", cpu-attributed, "cpu_us_per_run %.4g - attributed %.4g (%s)", cpu, attributed, strings.Join(parts, ", "))

	u, t := pooledRate(untraced, true), pooledRate(traced, true)
	m.set("trace.overhead_frac", 1-t/u, "runs_per_s_cal untraced %.5g vs traced %.5g", u, t)
	m.set("host.steal_frac", timedSteal(append(append([]*roundResult(nil), untraced...), traced...)),
		"over every timed phase; before %.4f, after %.4f", host.stealBefore, host.stealAfter)
	m.set("host.ref_ms", host.refBefore, "reference kernel before the rounds")
	m.set("host.ref_ms_after", host.refAfter, "reference kernel after the rounds")
	all := append(append([]*roundResult(nil), untraced...), traced...)
	m.set("host.ref_call_us", float64(all[0].refNominal)/1e3/runFactor(all),
		"mean reference call between timed calls over %d rounds; the calibration's divisor", len(all))
	return m
}
