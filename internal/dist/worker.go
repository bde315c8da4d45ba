package dist

// The worker: flagworkd's core loop. Register → lease → execute on the
// local sweep pool → report, with a heartbeat goroutine renewing the
// lease while the engine runs. Everything is crash-safe from the
// dispatcher's point of view: a worker that dies mid-job simply stops
// renewing, the lease expires, and the job requeues.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Dispatcher is the flagdispd base URL (e.g. "http://host:9090").
	Dispatcher string
	// Name labels this worker on the dispatcher; default "flagworkd".
	Name string
	// LeaseTTL is the lease duration requested per job; the heartbeat
	// renews at a third of it. Default 10s.
	LeaseTTL time.Duration
	// PollInterval is the idle sleep between empty lease calls;
	// default 200ms.
	PollInterval time.Duration
	// Logger receives the worker's structured log; nil discards.
	Logger *slog.Logger
	// Client is the HTTP client; nil means a 30s-timeout default.
	Client *http.Client
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Name == "" {
		c.Name = "flagworkd"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Worker executes leased jobs against a local sweep pool. Create one
// with NewWorker and drive it with Run.
type Worker struct {
	cfg     WorkerConfig
	sweeper *sweep.Sweeper
	log     *slog.Logger
	id      string

	executed, failed, leasesLost atomic.Int64

	// testHookBeforeReport, when set, runs after execution and before
	// the report; returning false abandons the job silently — the test
	// seam that simulates a worker killed between compute and report.
	testHookBeforeReport func(job Job) bool
}

// NewWorker assembles a worker around its own sweep pool. The pool has
// one worker, because Run executes one leased job at a time. Its memo
// runs in record mode: a job's entry keeps the canonical bytes its
// report carried, not the whole result.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg:     cfg,
		sweeper: sweep.New(sweep.Options{Workers: 1, Encode: wire.EncodeRecord}),
		log:     cfg.Logger,
	}
}

// Stats feeds the worker's /metrics families.
func (w *Worker) Stats() obs.DistWorkerStats {
	return obs.DistWorkerStats{
		JobsExecuted: float64(w.executed.Load()),
		JobsFailed:   float64(w.failed.Load()),
		LeasesLost:   float64(w.leasesLost.Load()),
	}
}

// Sweeper exposes the worker's pool, whose memo statistics a benchmark
// reads.
func (w *Worker) Sweeper() *sweep.Sweeper { return w.sweeper }

// Run registers with the dispatcher (retrying until ctx dies) and
// processes jobs until ctx is canceled. A mid-job cancellation finishes
// cleanly: the engine aborts at its next checkpoint and the lease is
// left to expire.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// Transport error or dispatcher restart — back off, then
			// re-register if our identity is gone.
			if errors.Is(err, errUnknownWorker) {
				w.log.Warn("dispatcher forgot us, re-registering")
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			w.log.Warn("lease failed", slog.Any("err", err))
			sleepCtx(ctx, w.cfg.PollInterval)
			continue
		}
		if !ok {
			sleepCtx(ctx, w.cfg.PollInterval)
			continue
		}
		w.execute(ctx, lease)
	}
}

// execute runs one leased job and reports its outcome, renewing the
// lease from a heartbeat goroutine while the engine runs.
func (w *Worker) execute(ctx context.Context, lease LeaseResponse) {
	job := lease.Job
	spec, err := job.Req.Spec()
	if err != nil {
		// Cannot happen for a job that passed DecodeJob; report rather
		// than loop on it.
		w.report(ctx, lease, nil, 0, fmt.Errorf("dist: leased job spec: %w", err))
		return
	}

	// The run context carries the dispatcher-assigned run ID (originally
	// the client's X-Run-ID), so engine-side logging and probes see the
	// same identifier every other process logs for this job. Attached
	// before the heartbeat goroutine captures the context.
	if obs.ValidRunID(lease.RunID) {
		ctx = obs.WithRunID(ctx, lease.RunID)
	}

	// Heartbeat: renew at a third of the TTL until execution finishes.
	// A failed renew (lease gone) cancels the run — the dispatcher has
	// already requeued the job, so finishing it would be wasted work
	// (though not wrong: reports against dead leases are accepted).
	runCtx, cancelRun := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	lost := &atomic.Bool{}
	go func() {
		defer close(hbDone)
		ttl := time.Duration(lease.TTLMS) * time.Millisecond
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if !w.renew(runCtx, lease.LeaseID) {
					if runCtx.Err() == nil {
						lost.Store(true)
						w.leasesLost.Add(1)
						cancelRun()
					}
					return
				}
			}
		}
	}()

	t0 := time.Now()
	batch := w.sweeper.Run(runCtx, []sweep.Spec{spec})
	elapsed := time.Since(t0)
	cancelRun()
	<-hbDone

	run := batch.Runs[0]
	if lost.Load() {
		w.log.Warn("lease lost mid-execution, job abandoned",
			slog.String("spec", spec.Label()), slog.String("run_id", lease.RunID))
		return
	}
	if ctx.Err() != nil {
		return // shutting down; let the lease expire
	}
	if w.testHookBeforeReport != nil && !w.testHookBeforeReport(job) {
		return
	}
	if run.Err != nil {
		w.failed.Add(1)
		w.report(ctx, lease, nil, elapsed, run.Err)
		return
	}
	raw, err := run.Record.Bytes()
	if err != nil {
		w.failed.Add(1)
		w.report(ctx, lease, nil, elapsed, err)
		return
	}
	w.executed.Add(1)
	w.report(ctx, lease, raw, elapsed, nil)
	w.log.Info("job executed",
		slog.String("spec", spec.Label()),
		slog.String("run_id", lease.RunID),
		slog.Duration("elapsed", elapsed),
		slog.Bool("cache_hit", run.CacheHit))
}

// statsReport snapshots the worker's own counters for piggybacking on
// lease and renew calls (the dispatcher's federated per-worker export).
func (w *Worker) statsReport() *WorkerStatsReport {
	s := w.Stats()
	return &WorkerStatsReport{
		JobsExecuted: s.JobsExecuted, JobsFailed: s.JobsFailed, LeasesLost: s.LeasesLost,
	}
}

var errUnknownWorker = errors.New("dist: dispatcher does not know this worker")

func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{Name: w.cfg.Name}
	for {
		var resp RegisterResponse
		status, err := w.post(ctx, "/v1/workers/register", req, &resp)
		if err == nil && status == http.StatusOK && resp.WorkerID != "" {
			w.id = resp.WorkerID
			w.log.Info("registered", slog.String("worker_id", w.id))
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Warn("register failed, retrying", slog.Any("err", err), slog.Int("status", status))
		sleepCtx(ctx, w.cfg.PollInterval)
	}
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, bool, error) {
	req := LeaseRequest{WorkerID: w.id, TTLMS: w.cfg.LeaseTTL.Milliseconds(), Stats: w.statsReport()}
	var resp LeaseResponse
	status, err := w.post(ctx, "/v1/workers/lease", req, &resp)
	switch {
	case err != nil:
		return resp, false, err
	case status == http.StatusNoContent:
		return resp, false, nil
	case status == http.StatusNotFound:
		return resp, false, errUnknownWorker
	case status != http.StatusOK:
		return resp, false, fmt.Errorf("dist: lease status %d", status)
	}
	return resp, true, nil
}

func (w *Worker) renew(ctx context.Context, leaseID string) bool {
	req := RenewRequest{LeaseID: leaseID, TTLMS: w.cfg.LeaseTTL.Milliseconds(), Stats: w.statsReport()}
	status, err := w.post(ctx, "/v1/workers/renew", req, nil)
	return err == nil && status == http.StatusOK
}

func (w *Worker) report(ctx context.Context, lease LeaseResponse, result []byte, elapsed time.Duration, runErr error) {
	req := ReportRequest{
		LeaseID:   lease.LeaseID,
		WorkerID:  w.id,
		Key:       lease.Job.KeyHex,
		RunID:     lease.RunID,
		ElapsedNS: int64(elapsed),
		Result:    result,
	}
	if runErr != nil {
		req.Err = runErr.Error()
	}
	// The result is valuable (possibly minutes of compute): retry the
	// report a few times before giving up and letting the lease expire.
	for attempt := 0; attempt < 5; attempt++ {
		status, err := w.post(ctx, "/v1/workers/report", req, nil)
		if err == nil && status == http.StatusOK {
			return
		}
		if err == nil && status >= 400 && status < 500 {
			// The dispatcher rejected the report outright (e.g. restart
			// lost the job); retrying the same bytes cannot help.
			w.log.Warn("report rejected", slog.Int("status", status))
			return
		}
		if ctx.Err() != nil {
			return
		}
		sleepCtx(ctx, w.cfg.PollInterval)
	}
	w.log.Warn("report abandoned after retries", slog.String("key", lease.Job.KeyHex))
}

// post sends one JSON request to the dispatcher; out (when non-nil) is
// strictly decoded from a 200 response.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Dispatcher+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := strictUnmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleepCtx sleeps for d or until ctx dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
