package obs

// Metric families for the distributed sweep fabric (internal/dist).
// They live here rather than in dist so the dependency arrow stays
// one-way (dist → obs) and every binary exports through the same
// registry machinery. Registration takes a snapshot callback instead of
// concrete dist types for the same reason: obs stays dependency-free.

// DistDispatcherStats is one scrape-time snapshot of a dispatcher's
// queue, lease table, result tier, and worker roster.
type DistDispatcherStats struct {
	// QueueDepth is jobs pending (accepted, not leased, not done).
	QueueDepth float64
	// LeasesActive is jobs currently held under a live worker lease.
	LeasesActive float64
	// Lifetime counters, monotonically non-decreasing.
	JobsEnqueued, JobsDeduped, JobsDispatched float64
	JobsCompleted, JobsFailed, LeasesExpired  float64
	// Result-tier figures: hits/misses are lifetime Get outcomes,
	// Entries/Bytes the current resident set, Corrupt removed-on-read
	// failures, Mismatches determinism violations.
	TierHits, TierMisses        float64
	TierEntries, TierBytes      float64
	TierCorrupt, TierMismatches float64
	// WorkersRegistered is workers seen recently enough to count live.
	WorkersRegistered float64
}

// RegisterDistDispatcher installs the dispatcher's metric families on r,
// all reading from one snapshot callback at scrape time.
func RegisterDistDispatcher(r *Registry, fn func() DistDispatcherStats) {
	r.GaugeFunc("flagsim_dist_queue_depth",
		"Jobs accepted and waiting for a worker lease.",
		func() float64 { return fn().QueueDepth })
	r.GaugeFunc("flagsim_dist_leases_active",
		"Jobs currently executing under a live worker lease.",
		func() float64 { return fn().LeasesActive })
	r.CounterFunc("flagsim_dist_jobs_enqueued_total",
		"Jobs accepted into the durable queue.",
		func() float64 { return fn().JobsEnqueued })
	r.CounterFunc("flagsim_dist_jobs_deduped_total",
		"Submitted jobs collapsed onto an already-known spec key.",
		func() float64 { return fn().JobsDeduped })
	r.CounterFunc("flagsim_dist_jobs_dispatched_total",
		"Lease grants handed to workers.",
		func() float64 { return fn().JobsDispatched })
	r.CounterFunc("flagsim_dist_jobs_completed_total",
		"Jobs completed successfully.",
		func() float64 { return fn().JobsCompleted })
	r.CounterFunc("flagsim_dist_jobs_failed_total",
		"Jobs completed with an execution error.",
		func() float64 { return fn().JobsFailed })
	r.CounterFunc("flagsim_dist_leases_expired_total",
		"Leases that expired and returned their job to the queue.",
		func() float64 { return fn().LeasesExpired })
	r.CounterFunc("flagsim_dist_result_tier_hits_total",
		"Result-tier reads served from the content-addressed store.",
		func() float64 { return fn().TierHits })
	r.CounterFunc("flagsim_dist_result_tier_misses_total",
		"Result-tier reads that found no stored result.",
		func() float64 { return fn().TierMisses })
	r.GaugeFunc("flagsim_dist_result_tier_entries",
		"Results resident in the content-addressed store.",
		func() float64 { return fn().TierEntries })
	r.GaugeFunc("flagsim_dist_result_tier_bytes",
		"Total payload bytes resident in the content-addressed store.",
		func() float64 { return fn().TierBytes })
	r.CounterFunc("flagsim_dist_result_tier_corrupt_total",
		"Stored results that failed verification and were removed.",
		func() float64 { return fn().TierCorrupt })
	r.CounterFunc("flagsim_dist_result_tier_mismatch_total",
		"Reports whose bytes differed from the stored result for the same spec (determinism violations).",
		func() float64 { return fn().TierMismatches })
	r.GaugeFunc("flagsim_dist_workers_registered",
		"Workers registered and recently active.",
		func() float64 { return fn().WorkersRegistered })
}

// RegisterDistPhases installs the dispatcher's job lifecycle phase
// histograms: flagsim_dist_phase_seconds{phase=...} with one series per
// phase (queue_wait, compute, store, end_to_end), observed once per
// successfully completed job. Callers cache the per-phase histograms
// from With() so the report hot path observes lock-free.
func RegisterDistPhases(r *Registry) *HistogramVec {
	return r.HistogramVec("flagsim_dist_phase_seconds",
		"Job lifecycle phase durations as observed by the dispatcher.",
		DefaultLatencyBuckets, "phase")
}

// DistWorkerStats is one scrape-time snapshot of a worker daemon.
type DistWorkerStats struct {
	// JobsExecuted counts leases executed to a reported result;
	// JobsFailed those whose execution errored (still reported).
	JobsExecuted, JobsFailed float64
	// LeasesLost counts executions abandoned because a renew came back
	// gone — the dispatcher had requeued the job.
	LeasesLost float64
}

// DistWorkerRow is one worker's row in the dispatcher's federated
// per-worker export: the stats snapshot the worker last piggybacked on a
// lease or renew call, plus dispatcher-side roster facts.
type DistWorkerRow struct {
	// Worker is the worker's self-chosen name — the series label.
	Worker string
	// SecondsSinceSeen is the age of the worker's last contact.
	SecondsSinceSeen float64
	// Stats is the worker's own snapshot, relayed verbatim.
	Stats DistWorkerStats
}

// RegisterDistWorkerFederation installs per-worker labeled families on a
// dispatcher registry, so one scrape of flagdispd covers the fleet
// without any worker running a listener. Gauges rather than counters:
// from the dispatcher's view these are last-reported snapshots that
// legitimately reset when a worker restarts under the same name.
func RegisterDistWorkerFederation(r *Registry, fn func() []DistWorkerRow) {
	labels := []string{"worker"}
	series := func(pick func(DistWorkerRow) float64) func() []Sample {
		return func() []Sample {
			rows := fn()
			out := make([]Sample, 0, len(rows))
			for _, row := range rows {
				out = append(out, Sample{Values: []string{row.Worker}, Value: pick(row)})
			}
			return out
		}
	}
	r.GaugeSeriesFunc("flagsim_dist_worker_jobs_executed",
		"Jobs executed and reported, per worker, as last heartbeated to the dispatcher.",
		labels, series(func(w DistWorkerRow) float64 { return w.Stats.JobsExecuted }))
	r.GaugeSeriesFunc("flagsim_dist_worker_jobs_failed",
		"Jobs whose execution errored, per worker, as last heartbeated.",
		labels, series(func(w DistWorkerRow) float64 { return w.Stats.JobsFailed }))
	r.GaugeSeriesFunc("flagsim_dist_worker_leases_lost",
		"Executions abandoned to lease expiry, per worker, as last heartbeated.",
		labels, series(func(w DistWorkerRow) float64 { return w.Stats.LeasesLost }))
	r.GaugeSeriesFunc("flagsim_dist_worker_last_seen_seconds",
		"Seconds since the worker's last contact with the dispatcher.",
		labels, series(func(w DistWorkerRow) float64 { return w.SecondsSinceSeen }))
}

// RegisterDistWorker installs the worker's metric families on r.
func RegisterDistWorker(r *Registry, fn func() DistWorkerStats) {
	r.CounterFunc("flagsim_dist_worker_jobs_executed_total",
		"Leased jobs executed and reported.",
		func() float64 { return fn().JobsExecuted })
	r.CounterFunc("flagsim_dist_worker_jobs_failed_total",
		"Leased jobs whose execution returned an error.",
		func() float64 { return fn().JobsFailed })
	r.CounterFunc("flagsim_dist_worker_leases_lost_total",
		"Executions abandoned after the dispatcher expired the lease.",
		func() float64 { return fn().LeasesLost })
}
