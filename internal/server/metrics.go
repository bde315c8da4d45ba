package server

// The metric registries, assembled on the shared observability core
// (internal/obs). The front end registers the request-path families
// under the daemon's prefix, so flagsimd and flagdispd export the same
// shapes; flagsimd's registry adds three more layers so a single
// /metrics scrape reflects its whole stack:
//
//   - serving state (flagsimd_*): request counts by endpoint/status,
//     latency histograms (front end); admission gate occupancy,
//     sweep-cache and worker-pool health (local backend);
//   - engine state (flagsim_engine_*): cells painted, implement traffic,
//     blocks by kind/color, steals — fed by the obs.MetricsProbe the
//     Server installs on its sweep pool;
//   - runtime state (go_*): goroutines, heap, GC — obs.RegisterGoRuntime.
//
// Concurrency: counters and histogram buckets are lock-free atomics on
// the request path; gauges read from the gate and the sweeper at scrape
// time through closures, so a scrape is always a point-in-time snapshot.

import (
	"time"

	"flagsim/internal/obs"
)

// metrics bundles the registry and the request-path instruments the
// front end updates directly.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	// requests counts completed HTTP requests by endpoint and status.
	requests *obs.CounterVec
	// rejected counts admission fast-fails (the 429s), by endpoint.
	rejected *obs.CounterVec
	// canceled counts runs aborted by client disconnect or deadline.
	canceled *obs.Counter
	// latency histograms per simulation endpoint.
	runLatency   *obs.Histogram
	sweepLatency *obs.Histogram
}

// newMetrics registers the request-path families on reg under name.
func newMetrics(name string, reg *obs.Registry) *metrics {
	m := &metrics{start: time.Now(), reg: reg}
	m.requests = reg.CounterVec(name+"_requests_total",
		"Completed HTTP requests by endpoint and status code.", "endpoint", "code")
	m.rejected = reg.CounterVec(name+"_rejected_total",
		"Requests fast-failed by admission control (HTTP 429).", "endpoint")
	m.canceled = reg.Counter(name+"_runs_canceled_total",
		"Simulation runs aborted by client disconnect or deadline.")
	m.runLatency = reg.Histogram(name+"_run_seconds",
		"Wall time of /v1/run requests.", obs.DefaultLatencyBuckets)
	m.sweepLatency = reg.Histogram(name+"_sweep_seconds",
		"Wall time of /v1/sweep requests.", obs.DefaultLatencyBuckets)
	return m
}

// registerLocal adds flagsimd's own families to reg and creates the
// engine probe. The sweep gauges read s.sweeper at scrape time; New
// assigns it before the mux can serve a scrape.
func (s *Server) registerLocal(reg *obs.Registry) {
	reg.GaugeFunc("flagsimd_in_flight",
		"Requests currently executing on the worker pool.",
		func() float64 { inFlight, _ := s.gate.depth(); return float64(inFlight) })
	reg.GaugeFunc("flagsimd_queue_depth",
		"Requests waiting for a worker slot.",
		func() float64 { _, queued := s.gate.depth(); return float64(queued) })

	reg.CounterFunc("flagsimd_sweep_cache_hits_total",
		"Sweep memo-cache hits since process start.",
		func() float64 { return float64(s.sweeper.Stats().Hits) })
	reg.CounterFunc("flagsimd_sweep_cache_misses_total",
		"Sweep memo-cache misses since process start.",
		func() float64 { return float64(s.sweeper.Stats().Misses) })
	reg.GaugeFunc("flagsimd_sweep_cache_entries",
		"Memoized results resident in the sweep cache.",
		func() float64 { return float64(s.sweeper.Stats().Entries) })
	reg.CounterFunc("flagsimd_sweep_cache_evictions_total",
		"Sweep cache entries evicted (canceled computes are never memoized).",
		func() float64 { return float64(s.sweeper.Stats().Evictions) })
	reg.GaugeFunc("flagsimd_sweep_pool_running",
		"Sweep pool workers currently computing a spec.",
		func() float64 { running, _ := s.sweeper.PoolDepth(); return float64(running) })
	reg.GaugeFunc("flagsimd_sweep_pool_queued",
		"Specs waiting for a sweep pool worker slot.",
		func() float64 { _, queued := s.sweeper.PoolDepth(); return float64(queued) })

	reg.GaugeFunc("flagsimd_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(s.metrics.start).Seconds() })

	s.engine = obs.NewMetricsProbe(reg)
	obs.RegisterGoRuntime(reg)
}
