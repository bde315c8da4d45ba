package dist

// The dispatcher: flagdispd's serving core. It owns the durable queue
// and the result store, serves the client surface (/v1/run, /v1/sweep)
// through the same server.Frontend as flagsimd — the dispatcher is that
// front end's fleet Backend — speaks the worker protocol
// (register/lease/renew/report) on the other side, and serves anything
// the result tier already holds without touching the fleet.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/server"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
	"flagsim/internal/workload"
)

// DispatcherConfig parameterizes a Dispatcher. DataDir is required;
// every other zero value gets a sensible default.
type DispatcherConfig struct {
	// DataDir roots the durable state: queue journal, snapshot, and the
	// content-addressed result store.
	DataDir string
	// LeaseTTL is the default lease duration granted to workers; their
	// requested TTLs are clamped to [LeaseTTL/10, 10*LeaseTTL].
	// Default 10s.
	LeaseTTL time.Duration
	// WorkerWindow bounds how stale a worker's last contact may be while
	// still counting as registered in /metrics. Default 30s.
	WorkerWindow time.Duration
	// MaxSweepSpecs caps one /v1/sweep request's expanded grid (and each
	// replayed sweep); default 4096 (matches flagsimd).
	MaxSweepSpecs int
	// JobRingSize bounds the in-memory job timeline ring backing
	// /v1/jobs and the phase histograms; default 256. Timelines are
	// volatile like leases: a restart forgets them.
	JobRingSize int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long after the serve context is canceled; default 10s.
	DrainTimeout time.Duration
	// Logger receives structured serving logs; nil discards.
	Logger *slog.Logger
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

func (c DispatcherConfig) withDefaults() DispatcherConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.WorkerWindow <= 0 {
		c.WorkerWindow = 30 * time.Second
	}
	if c.MaxSweepSpecs <= 0 {
		c.MaxSweepSpecs = 4096
	}
	if c.JobRingSize <= 0 {
		c.JobRingSize = 256
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// workerInfo is the dispatcher's view of one registered worker. The
// roster is volatile (like leases): a restarted dispatcher answers 404
// to an unknown worker's lease call, and the worker re-registers.
type workerInfo struct {
	name     string
	lastSeen time.Time
	// stats is the worker's own snapshot, last piggybacked on a lease or
	// renew call; federated out via per-worker labeled gauges.
	stats obs.DistWorkerStats
}

// RunFleetResponse is flagdispd's /v1/run reply. Result carries the
// canonical result bytes verbatim from the store.
type RunFleetResponse struct {
	Key  string `json:"key"`
	Spec string `json:"spec"`
	// RunID identifies this request across the fleet (echoed in the
	// X-Run-ID header too); grep any process's logs for it.
	RunID string `json:"run_id"`
	// Warm reports that the result tier already held the result and no
	// fleet work was scheduled.
	Warm   bool            `json:"warm"`
	Result json.RawMessage `json:"result"`
}

// SweepFleetResponse is flagdispd's /v1/sweep reply. Runs rows are in
// expansion order — the same order flagsimd's /v1/sweep emits for the
// same request, which is what makes the two directly comparable.
type SweepFleetResponse struct {
	Count int `json:"count"`
	// Warm rows were served from the result tier; Computed rows were
	// executed by the fleet for this request; Deduped rows collapsed
	// onto a job already in the queue (submitted by someone else).
	Warm     int                `json:"warm"`
	Computed int                `json:"computed"`
	Deduped  int                `json:"deduped"`
	Failed   int                `json:"failed"`
	WallNS   int64              `json:"wall_ns"`
	Runs     []wire.SweepRunRow `json:"runs"`
}

// QueueView is flagdispd's /v1/queue reply: queue, store, and roster
// state for operators and the e2e harness.
type QueueView struct {
	Queue   QueueStats `json:"queue"`
	Store   StoreStats `json:"store"`
	Workers int        `json:"workers"`
}

// Dispatcher is the flagdispd serving core: the shared server.Frontend
// plus the fleet Backend (store lookup, durable enqueue, waiting on the
// workers). Create one with NewDispatcher; it is safe for concurrent
// use.
type Dispatcher struct {
	*server.Frontend
	cfg   DispatcherConfig
	queue *Queue
	store *ResultStore
	log   *slog.Logger
	now   func() time.Time
	start time.Time

	// ring holds recent job lifecycle timelines; phase* are the cached
	// per-phase histogram series, resolved once so the report path
	// observes without touching the vec's lookup lock.
	ring          *obs.Ring[obs.JobTimeline]
	phaseQueue    *obs.Histogram
	phaseCompute  *obs.Histogram
	phaseStore    *obs.Histogram
	phaseEndToEnd *obs.Histogram

	// traceSlot holds the one engine run the dispatcher makes at a time
	// (see traceRun).
	traceSlot chan struct{}

	mu      sync.Mutex
	workers map[string]*workerInfo
}

// NewDispatcher opens (recovering if needed) the durable state under
// cfg.DataDir and assembles the serving surface.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("dist: dispatcher needs a data directory")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	store, err := OpenResultStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	queue, err := OpenQueue(cfg.DataDir, store, cfg.Now)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg: cfg, queue: queue, store: store,
		log: cfg.Logger,
		now: cfg.Now, start: cfg.Now(),
		ring:      obs.NewRing[obs.JobTimeline](cfg.JobRingSize),
		traceSlot: make(chan struct{}, 1),
		workers:   make(map[string]*workerInfo),
	}
	reg := obs.NewRegistry()
	obs.RegisterDistDispatcher(reg, d.statsSnapshot)
	phases := obs.RegisterDistPhases(reg)
	d.phaseQueue = phases.With("queue_wait")
	d.phaseCompute = phases.With("compute")
	d.phaseStore = phases.With("store")
	d.phaseEndToEnd = phases.With("end_to_end")
	obs.RegisterDistWorkerFederation(reg, d.workerRows)
	obs.RegisterGoRuntime(reg)
	d.Frontend = server.NewFrontend("flagdispd", d, reg, server.Config{
		MaxSweepSpecs: cfg.MaxSweepSpecs, DrainTimeout: cfg.DrainTimeout, Logger: cfg.Logger,
	})
	// Journal recovery may have carried pending jobs over; give each a
	// fresh timeline so its remaining lifecycle is still observable.
	// Completed jobs get none — their lifecycles died with the previous
	// process, and /v1/jobs/{key} honestly 404s for them.
	for _, job := range queue.PendingJobs() {
		d.ring.Insert(obs.JobTimeline{
			Key: job.KeyHex, RunID: obs.NewRunID(), Spec: job.Label(), Req: job.Req,
			Enqueued: d.now(),
		})
	}
	d.HandleFunc("/v1/workers/register", server.Only(http.MethodPost, d.handleRegister))
	d.HandleFunc("/v1/workers/lease", server.Only(http.MethodPost, d.handleLease))
	d.HandleFunc("/v1/workers/renew", server.Only(http.MethodPost, d.handleRenew))
	d.HandleFunc("/v1/workers/report", server.Only(http.MethodPost, d.handleReport))
	d.HandleFunc("/v1/queue", d.handleQueue)
	d.HandleFunc("/v1/jobs", server.Only(http.MethodGet, d.handleJobs))
	d.HandleFunc("/v1/jobs/{key}", server.Only(http.MethodGet, d.handleJob))
	d.HandleFunc("/v1/jobs/{key}/trace", server.Only(http.MethodGet, d.handleJobTrace))
	d.HandleFunc("/healthz", d.handleHealthz)
	return d, nil
}

// Queue exposes the durable queue (tests and replay tooling).
func (d *Dispatcher) Queue() *Queue { return d.queue }

// Store exposes the result store (tests and replay tooling).
func (d *Dispatcher) Store() *ResultStore { return d.store }

// Close syncs and releases the durable state.
func (d *Dispatcher) Close() error { return errors.Join(d.queue.Close(), d.store.Close()) }

// Serve serves on ln until ctx is canceled, then drains gracefully (see
// server.Frontend.Serve). A background ticker expires overdue leases
// while serving, so jobs held by vanished workers requeue even when no
// worker calls poke the queue.
func (d *Dispatcher) Serve(ctx context.Context, ln net.Listener) error {
	tickCtx, stopTick := context.WithCancel(context.Background())
	defer stopTick()
	go func() {
		tick := time.NewTicker(d.cfg.LeaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case <-tick.C:
				if n := d.queue.ExpireLeases(); n > 0 {
					d.log.Warn("leases expired, jobs requeued", slog.Int("count", n))
				}
			}
		}
	}()
	return d.Frontend.Serve(ctx, ln)
}

// ReplayTrace admission-replays a captured FSWL workload trace: every
// simulation request in the capture is decoded, expanded (sweeps), and
// enqueued — pre-warming the fleet with exactly the work production
// traffic asked for. Records are held to the front end's rules (strict
// decoding, the sweep grid cap, the request limits); non-simulation
// records and bodies the front end would refuse are skipped and
// counted, not fatal: a capture may span API versions.
func (d *Dispatcher) ReplayTrace(path string) (added, deduped, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	tr, err := workload.NewTraceReader(f)
	if err != nil {
		return 0, 0, 0, err
	}
	var jobs []Job
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return added, deduped, skipped, err
		}
		var reqs []wire.RunRequest
		switch workload.InferKind(rec.Path, rec.Body) {
		case workload.KindRun, workload.KindFaultedRun, workload.KindTraceRun:
			var req wire.RunRequest
			if err = wire.Decode(rec.Body, &req); err == nil {
				err = req.CheckLimits()
			}
			reqs = []wire.RunRequest{req}
		case workload.KindSweep:
			var sreq wire.SweepRequest
			if err = wire.Decode(rec.Body, &sreq); err == nil && sreq.Size() <= d.cfg.MaxSweepSpecs {
				if err = sreq.CheckLimits(); err == nil {
					reqs, err = sreq.Expand()
				}
			}
		}
		if err != nil || len(reqs) == 0 {
			skipped++
			continue
		}
		for _, req := range reqs {
			job, err := NewJob(req)
			if err != nil {
				skipped++
				continue
			}
			jobs = append(jobs, job)
		}
	}
	// Jobs whose result the tier already holds need no fleet time.
	fresh := jobs[:0]
	for _, job := range jobs {
		if d.store.Has(job.Key()) {
			deduped++
			continue
		}
		fresh = append(fresh, job)
	}
	added, dup, err := d.EnqueueJobs(fresh)
	return added, deduped + dup, skipped, err
}

// EnqueueJobs accepts jobs into the durable queue with lifecycle
// timelines, exactly as the HTTP surface would — each job gets its own
// minted run ID (there is no client request to inherit one from). The
// replay path and benchmarks use this instead of Queue().Enqueue so
// timeline recording stays on.
func (d *Dispatcher) EnqueueJobs(jobs []Job) (added, deduped int, err error) {
	now := d.now()
	for _, job := range jobs {
		d.ring.Insert(obs.JobTimeline{
			Key: job.KeyHex, RunID: obs.NewRunID(), Spec: job.Label(), Req: job.Req, Enqueued: now,
		})
	}
	return d.queue.Enqueue(jobs)
}

// statsSnapshot feeds the /metrics families.
func (d *Dispatcher) statsSnapshot() obs.DistDispatcherStats {
	qs := d.queue.Stats()
	ss := d.store.Stats()
	return obs.DistDispatcherStats{
		QueueDepth:        float64(qs.Depth),
		LeasesActive:      float64(qs.Leased),
		JobsEnqueued:      float64(qs.Enqueued),
		JobsDeduped:       float64(qs.Deduped),
		JobsDispatched:    float64(qs.Dispatched),
		JobsCompleted:     float64(qs.Completed),
		JobsFailed:        float64(qs.Failed),
		LeasesExpired:     float64(qs.Expired),
		TierHits:          float64(ss.Hits),
		TierMisses:        float64(ss.Misses),
		TierEntries:       float64(ss.Entries),
		TierBytes:         float64(ss.Bytes),
		TierCorrupt:       float64(ss.Corrupt),
		TierMismatches:    float64(ss.Mismatches),
		WorkersRegistered: float64(d.activeWorkers()),
	}
}

func (d *Dispatcher) activeWorkers() int {
	cutoff := d.now().Add(-d.cfg.WorkerWindow)
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.workers {
		if w.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// touchWorker refreshes a worker's liveness and, when the call carried
// one, its piggybacked stats snapshot; name returns the worker's label
// for timelines and logs. ok false means the worker is unknown (e.g. the
// dispatcher restarted) and must re-register.
func (d *Dispatcher) touchWorker(id string, stats *WorkerStatsReport) (name string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[id]
	if !ok {
		return "", false
	}
	w.lastSeen = d.now()
	if stats != nil {
		w.stats = obs.DistWorkerStats{
			JobsExecuted: stats.JobsExecuted, JobsFailed: stats.JobsFailed, LeasesLost: stats.LeasesLost,
		}
	}
	return w.name, true
}

// workerRows snapshots the federated per-worker metric rows. Rows are
// deduped by worker name keeping the most recently seen — a worker
// restarted under the same name replaces its predecessor's series
// instead of splitting it — and workers past the liveness window drop
// off the export entirely.
func (d *Dispatcher) workerRows() []obs.DistWorkerRow {
	now := d.now()
	cutoff := now.Add(-d.cfg.WorkerWindow)
	d.mu.Lock()
	defer d.mu.Unlock()
	latest := make(map[string]*workerInfo, len(d.workers))
	for _, w := range d.workers {
		if !w.lastSeen.After(cutoff) {
			continue
		}
		if prev, ok := latest[w.name]; ok && prev.lastSeen.After(w.lastSeen) {
			continue
		}
		latest[w.name] = w
	}
	rows := make([]obs.DistWorkerRow, 0, len(latest))
	for _, w := range latest {
		rows = append(rows, obs.DistWorkerRow{
			Worker: w.name, SecondsSinceSeen: now.Sub(w.lastSeen).Seconds(), Stats: w.stats,
		})
	}
	return rows
}

// clampTTL resolves a worker-requested TTL against the configured one.
func (d *Dispatcher) clampTTL(ms int64) time.Duration {
	ttl := time.Duration(ms) * time.Millisecond
	if ttl <= 0 {
		return d.cfg.LeaseTTL
	}
	if lo := d.cfg.LeaseTTL / 10; ttl < lo {
		return lo
	}
	if hi := 10 * d.cfg.LeaseTTL; ttl > hi {
		return hi
	}
	return ttl
}

// errNoResult reports a job the queue completed without a stored result.
var errNoResult = errors.New("dist: completed job has no stored result")

// Run is the fleet Backend's single run: served from the result store
// when warm, otherwise submitted to the fleet under the request's run
// ID. It counts tier hits and misses as Sweep does: a warm run is one
// hit, a run the fleet computed is neither, and a completed job with no
// stored result is one miss. A traced call runs in process, as on
// flagsimd (traceRun).
func (d *Dispatcher) Run(ctx context.Context, call server.RunCall) (server.Reply, error) {
	if call.Trace {
		return d.traceRun(ctx, call.Spec)
	}
	job := Job{KeyHex: hex.EncodeToString(call.Key[:]), Req: call.Req}
	stored, warm := d.store.read(call.Key)
	if warm {
		d.store.served(1, 0)
	} else {
		if _, _, err := d.submit(ctx, []Job{job}, call.RunID); err != nil {
			return server.Reply{}, err
		}
		if _, errMsg := d.queue.Status(call.Key); errMsg != "" {
			return server.Reply{}, &server.StatusError{Code: http.StatusUnprocessableEntity, Err: errors.New(errMsg)}
		}
		var ok bool
		if stored, ok = d.store.read(call.Key); !ok {
			d.store.served(0, 1)
			return server.Reply{}, errNoResult
		}
	}
	return server.Reply{CacheHit: warm, Body: RunFleetResponse{
		Key: job.KeyHex, Spec: call.Spec.Label(), RunID: call.RunID, Warm: warm, Result: stored.payload,
	}}, nil
}

// traceRun runs spec once in process for its engine spans, as flagsimd
// does (server.TracedRun). These are the dispatcher's only engine runs,
// and its CPU serves the fleet's queue, so they run one at a time; a
// request waiting for its turn gives up when its context ends.
func (d *Dispatcher) traceRun(ctx context.Context, spec sweep.Spec) (server.Reply, error) {
	select {
	case d.traceSlot <- struct{}{}:
	case <-ctx.Done():
		return server.Reply{}, ctx.Err()
	}
	defer func() { <-d.traceSlot }()
	rep, _, err := server.TracedRun(ctx, spec)
	return rep, err
}

// sweepKey is one distinct key of a sweep request and what every row
// with that key says: the stored result's summary, or err, the fleet's
// error for a failed job or errNoResult.
type sweepKey struct {
	key Key
	// warm: the tier held a verified result before the request.
	warm bool
	// rows counts the request's rows with this key.
	rows int
	summary
	err error
}

// Sweep is the fleet Backend's grid. One store lookup per distinct key
// decides whether it is warm and what its rows say; the cold keys
// are submitted to the fleet once (a within-request duplicate still gets
// its own row, like flagsimd's within-batch cache hits), and rows keep
// expansion order.
func (d *Dispatcher) Sweep(ctx context.Context, call server.SweepCall) (server.Reply, error) {
	start := d.now()
	index := make(map[Key]int, len(call.Specs))
	rowKey := make([]int, len(call.Specs)) // row i reads keys[rowKey[i]]
	keys := make([]sweepKey, 0, len(call.Specs))
	var cold []Job
	for i, spec := range call.Specs {
		key := spec.Key()
		j, seen := index[key]
		if !seen {
			j = len(keys)
			index[key] = j
			stored, warm := d.store.read(key)
			keys = append(keys, sweepKey{key: key, warm: warm, summary: stored.summary})
			if !warm {
				cold = append(cold, Job{KeyHex: hex.EncodeToString(key[:]), Req: call.Reqs[i]})
			}
		}
		rowKey[i] = j
		keys[j].rows++
	}
	added, deduped, err := d.submit(ctx, cold, call.RunID)
	if err != nil {
		return server.Reply{}, err
	}
	// Every row served warm counts as one tier hit, as a Get per row
	// would; a row the fleet did not fail but left without a stored
	// result counts as a miss. A row the fleet computed for this request
	// counts neither: the tier did not serve it.
	var hits, misses int
	for j := range keys {
		k := &keys[j]
		if k.warm {
			hits += k.rows
			continue
		}
		if _, errMsg := d.queue.Status(k.key); errMsg != "" {
			k.err = errors.New(errMsg)
			continue
		}
		if stored, ok := d.store.read(k.key); ok {
			k.summary = stored.summary
		} else {
			k.err = errNoResult
			misses += k.rows
		}
	}
	d.store.served(hits, misses)
	resp := SweepFleetResponse{
		Count: len(call.Specs), Warm: len(keys) - len(cold), Computed: added, Deduped: deduped,
		Runs: make([]wire.SweepRunRow, len(call.Specs)),
	}
	for i, spec := range call.Specs {
		k := &keys[rowKey[i]]
		row := &resp.Runs[i]
		row.Spec, row.CacheHit = spec.Label(), k.warm
		if k.err != nil {
			row.Err = k.err.Error()
			resp.Failed++
			continue
		}
		row.MakespanNS, row.Events, row.GridSHA256 = k.makespanNS, k.events, k.gridSHA256
	}
	resp.WallNS = int64(d.now().Sub(start))
	return server.Reply{Body: resp, CacheHit: len(cold) == 0}, nil
}

// submit enqueues jobs durably under runID and waits until each one
// completes. All of a request's jobs share its run ID, so one grep finds
// the whole batch across every process. Timelines begin before the jobs
// become leasable: once Enqueue returns a worker may already hold one,
// and a later Insert would miss the lease stamp.
func (d *Dispatcher) submit(ctx context.Context, jobs []Job, runID string) (added, deduped int, err error) {
	if len(jobs) == 0 {
		return 0, 0, nil
	}
	now := d.now()
	for _, job := range jobs {
		d.ring.Insert(obs.JobTimeline{Key: job.KeyHex, RunID: runID, Spec: job.Label(), Req: job.Req, Enqueued: now})
	}
	if added, deduped, err = d.queue.Enqueue(jobs); err != nil {
		return added, deduped, err
	}
	d.log.Info("jobs enqueued", slog.String("run_id", runID),
		slog.Int("jobs", len(jobs)), slog.Int("enqueued", added), slog.Int("deduped", deduped))
	for _, job := range jobs {
		select {
		case <-ctx.Done():
			return added, deduped, ctx.Err()
		case <-d.queue.DoneCh(job.Key()):
		}
	}
	return added, deduped, nil
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := server.ReadBody(w, r, 1<<20, DecodeRegister)
	if !ok {
		return
	}
	id := obs.NewRunID()
	d.mu.Lock()
	d.workers[id] = &workerInfo{name: req.Name, lastSeen: d.now()}
	d.mu.Unlock()
	d.log.Info("worker registered", slog.String("worker", req.Name), slog.String("id", id))
	server.WriteJSON(w, http.StatusOK, RegisterResponse{WorkerID: id})
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	req, ok := server.ReadBody(w, r, 1<<20, DecodeLease)
	if !ok {
		return
	}
	workerName, ok := d.touchWorker(req.WorkerID, req.Stats)
	if !ok {
		// Unknown worker — typically a dispatcher restart wiped the
		// volatile roster. 404 tells the worker to re-register.
		server.WriteError(w, http.StatusNotFound, errors.New("dist: unknown worker, re-register"))
		return
	}
	ttl := d.clampTTL(req.TTLMS)
	leaseID, job, ok := d.queue.Lease(req.WorkerID, ttl)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	var runID string
	d.ring.Update(job.KeyHex, func(t *obs.JobTimeline) {
		t.Leased = d.now()
		t.Leases++
		t.Worker = workerName
		runID = t.RunID
	})
	server.WriteJSON(w, http.StatusOK, LeaseResponse{
		LeaseID: leaseID, Job: job, TTLMS: ttl.Milliseconds(), RunID: runID,
	})
}

func (d *Dispatcher) handleRenew(w http.ResponseWriter, r *http.Request) {
	req, ok := server.ReadBody(w, r, 1<<20, DecodeRenew)
	if !ok {
		return
	}
	key, workerID, ok := d.queue.Renew(req.LeaseID, d.clampTTL(req.TTLMS))
	if !ok {
		server.WriteError(w, http.StatusGone, errors.New("dist: lease gone"))
		return
	}
	d.touchWorker(workerID, req.Stats)
	d.ring.Update(hex.EncodeToString(key[:]), func(t *obs.JobTimeline) { t.Renews++ })
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
}

func (d *Dispatcher) handleReport(w http.ResponseWriter, r *http.Request) {
	req, ok := server.ReadBody(w, r, 1<<20, DecodeReport)
	if !ok {
		return
	}
	d.touchWorker(req.WorkerID, nil)
	key, _ := ParseKey(req.Key)
	if !d.queue.Known(key) {
		server.WriteError(w, http.StatusNotFound, errors.New("dist: report for unknown job"))
		return
	}
	// Duplicate reports (a lease expired mid-flight and both the old and
	// new holder reported) must not restamp a finished timeline or
	// double-observe the phase histograms: the first report won.
	alreadyDone, _ := d.queue.Status(key)
	if !alreadyDone {
		d.ring.Update(req.Key, func(t *obs.JobTimeline) {
			t.Reported = d.now()
			t.ElapsedNS = req.ElapsedNS
			t.Err = req.Err
			if t.RunID == "" && obs.ValidRunID(req.RunID) {
				t.RunID = req.RunID
			}
		})
	}
	if req.Err != "" {
		if err := d.queue.Complete(req.LeaseID, key, false, req.Err); err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
		return
	}
	// Persist before completing: the durable stored result is the job's
	// record, so its completion frame needs no fsync of its own, and a
	// crash that loses that frame is self-healed at recovery (the store
	// has the key → job completed).
	if err := d.store.put(key, req.result); err != nil {
		if errors.Is(err, ErrResultMismatch) {
			// The fleet disagreed about a pure function. Keep the first
			// result, complete the job (a verified result exists), and
			// surface the violation loudly.
			d.log.Error("determinism violation: result bytes differ",
				slog.String("key", hex.EncodeToString(key[:])),
				slog.String("run_id", req.RunID),
				slog.String("worker", req.WorkerID))
		} else {
			server.WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	if err := d.queue.Complete(req.LeaseID, key, true, ""); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if !alreadyDone {
		d.ring.Update(req.Key, func(t *obs.JobTimeline) { t.Stored = d.now() })
		d.observePhases(req.Key)
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// observePhases feeds a completed job's phase durations into the
// flagsim_dist_phase_seconds histograms. Evicted timelines observe
// nothing — bounded memory wins over complete histograms.
func (d *Dispatcher) observePhases(key string) {
	t, ok := d.ring.Get(key)
	if !ok {
		return
	}
	if dur, ok := t.QueueWait(); ok {
		d.phaseQueue.ObserveDuration(dur)
	}
	if dur, ok := t.Compute(); ok {
		d.phaseCompute.ObserveDuration(dur)
	}
	if dur, ok := t.Store(); ok {
		d.phaseStore.ObserveDuration(dur)
	}
	if dur, ok := t.EndToEnd(); ok {
		d.phaseEndToEnd.ObserveDuration(dur)
	}
}

// JobPhasesView is the derived phase-duration block of a timeline view;
// a phase is present once both of its bounding timestamps exist.
type JobPhasesView struct {
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	ComputeNS   int64 `json:"compute_ns,omitempty"`
	StoreNS     int64 `json:"store_ns,omitempty"`
	EndToEndNS  int64 `json:"end_to_end_ns,omitempty"`
}

// JobTimelineView is one /v1/jobs row: the raw timeline plus derived
// phase durations and trace availability. HasTrace is Done: a job that
// completed ok has an engine lane, replayed from its request.
type JobTimelineView struct {
	obs.JobTimeline
	Phases   JobPhasesView `json:"phases"`
	Done     bool          `json:"done"`
	HasTrace bool          `json:"has_trace"`
}

// JobsResponse is flagdispd's /v1/jobs reply, newest timeline first.
type JobsResponse struct {
	Count int               `json:"count"`
	Jobs  []JobTimelineView `json:"jobs"`
}

func timelineView(t obs.JobTimeline) JobTimelineView {
	v := JobTimelineView{JobTimeline: t, Done: t.Done(), HasTrace: t.Done()}
	if dur, ok := t.QueueWait(); ok {
		v.Phases.QueueWaitNS = int64(dur)
	}
	if dur, ok := t.Compute(); ok {
		v.Phases.ComputeNS = int64(dur)
	}
	if dur, ok := t.Store(); ok {
		v.Phases.StoreNS = int64(dur)
	}
	if dur, ok := t.EndToEnd(); ok {
		v.Phases.EndToEndNS = int64(dur)
	}
	return v
}

func (d *Dispatcher) handleJobs(w http.ResponseWriter, r *http.Request) {
	timelines := d.ring.List()
	resp := JobsResponse{Count: len(timelines), Jobs: make([]JobTimelineView, 0, len(timelines))}
	for _, t := range timelines {
		resp.Jobs = append(resp.Jobs, timelineView(t))
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (d *Dispatcher) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	t, ok := d.ring.Get(key)
	if !ok {
		// Honest 404 even for keys the result tier can answer: timelines
		// are volatile by design, and a warm-from-store job after a
		// restart has no lifecycle on this process.
		server.WriteError(w, http.StatusNotFound, fmt.Errorf(
			"dist: no timeline for job %q (timelines are volatile and ring-bounded to the last %d jobs)",
			key, d.cfg.JobRingSize))
		return
	}
	server.WriteJSON(w, http.StatusOK, timelineView(t))
}

func (d *Dispatcher) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	t, ok := d.ring.Get(key)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf(
			"dist: no timeline for job %q (timelines are volatile and ring-bounded to the last %d jobs)",
			key, d.cfg.JobRingSize))
		return
	}
	if t.Leased.IsZero() || t.Reported.IsZero() {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf(
			"dist: job %q has no completed lifecycle to trace yet", key))
		return
	}
	// The engine lane is replayed before anything is written: a replay
	// that fails (the client gave up waiting) answers with an error.
	var engine server.Reply
	if t.Done() {
		spec, err := t.Req.Spec()
		if err == nil {
			engine, err = d.traceRun(r.Context(), spec)
		}
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, fmt.Errorf("dist: job %q engine replay: %w", key, err))
			return
		}
	}
	b := obs.NewTraceBuilder()
	// pid 1: the dispatcher's view — one lifecycle lane with the phase
	// spans, all relative to the enqueue instant.
	b.ProcessName(1, "flagdispd")
	b.ThreadName(1, 1, "job lifecycle")
	args := map[string]string{
		"key": t.Key, "run_id": t.RunID, "worker": t.Worker,
		"leases": fmt.Sprint(t.Leases), "renews": fmt.Sprint(t.Renews),
	}
	if dur, ok := t.QueueWait(); ok {
		b.Span(1, 1, "queue_wait", "phase", 0, dur, args)
	}
	if dur, ok := t.Compute(); ok {
		b.Span(1, 1, "compute", "phase", t.Leased.Sub(t.Enqueued), dur, args)
	}
	if dur, ok := t.Store(); ok {
		b.Span(1, 1, "store", "phase", t.Reported.Sub(t.Enqueued), dur, args)
	}
	// pid 2: the worker's view — the job's engine span timeline,
	// replayed from its request (the spans are a pure function of the
	// spec, so they are the ones the worker's run drew) and shifted onto
	// the dispatcher clock at the lease instant (the engine's virtual
	// clock compresses wall time, so spans nest inside the compute phase
	// approximately, not exactly).
	if t.Done() {
		b.ProcessName(2, "flagworkd "+t.Worker)
		b.EngineSpans(2, t.Leased.Sub(t.Enqueued), engine.Procs, engine.Spans)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := b.Render(w); err != nil {
		d.log.Error("trace stream failed", slog.String("key", key), slog.Any("err", err))
	}
}

func (d *Dispatcher) handleQueue(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, QueueView{
		Queue: d.queue.Stats(), Store: d.store.Stats(), Workers: d.activeWorkers(),
	})
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := d.queue.Stats()
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": d.now().Sub(d.start).Seconds(),
		"queue_depth":    qs.Depth,
		"leases_active":  qs.Leased,
		"workers":        d.activeWorkers(),
	})
}
