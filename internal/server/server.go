// Package server is flagsim's network surface: a production-shaped HTTP
// JSON service that runs scenario simulations and parameter sweeps on
// demand. Its request path (Frontend) is shared with the flagdispd
// dispatcher, which plugs a fleet Backend in where Server plugs the
// local one: a bounded admission queue (MaxInFlight executing, MaxQueue
// waiting, fast-fail 429 beyond that) in front of the sweep subsystem's
// worker pool, whose content-addressed memo cache lives for the process
// lifetime — identical requests are served warm across clients.
//
// Endpoints:
//
//	POST /v1/run     one scenario run (JSON spec in, full result out);
//	                 ?trace=chrome streams the run's Chrome trace instead
//	POST /v1/sweep   a cartesian grid batch (compact per-run rows out)
//	GET  /v1/flags   the built-in flag catalog
//	GET  /v1/runs    recent run summaries from the bounded run ring
//	GET  /v1/runs/{id}/trace  a recent run's Chrome trace by run ID
//	GET  /healthz    liveness + serving gauges
//	GET  /metrics    Prometheus text exposition (serving + engine + runtime)
//
// Observability: every request gets a run ID (a well-formed client
// X-Run-ID is adopted, otherwise one is minted; echoed in the X-Run-ID
// header, pprof labels, structured log line, run-ring key); the /metrics
// registry is the shared internal/obs one, and an engine MetricsProbe
// publishes every run the sweep pool computes (the pool's Observer), so
// a scrape reflects the simulator itself, not just the HTTP layer.
//
// Cancellation contract: every run executes under the request's context
// (optionally bounded by RequestTimeout), threaded through the sweep
// pool into the engine's event loop — a client that disconnects mid-run
// stops the simulation at the next engine checkpoint instead of burning
// CPU to the end, and canceled computes are never memoized.
package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// Config parameterizes the service. The zero value serves with sensible
// bounds (see the field comments).
type Config struct {
	// Addr is the listen address; default ":8080".
	Addr string
	// MaxInFlight bounds concurrently executing simulation requests;
	// <= 0 means runtime.GOMAXPROCS(0).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// the service fast-fails with 429. < 0 means 0 (no queue);
	// 0 means the default of 64.
	MaxQueue int
	// RequestTimeout caps each simulation request's execution time;
	// <= 0 disables the per-request deadline.
	RequestTimeout time.Duration
	// SweepWorkers sizes the underlying sweep pool; <= 0 means
	// runtime.GOMAXPROCS(0).
	SweepWorkers int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the serve context is canceled; default 30s.
	DrainTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses;
	// default 1s.
	RetryAfter time.Duration
	// MaxSweepSpecs caps the expanded grid size of one /v1/sweep request;
	// default 4096.
	MaxSweepSpecs int
	// Logger receives the request-scoped structured log (run ID, endpoint,
	// spec, cache outcome, latency). Nil discards everything.
	Logger *slog.Logger
	// SlowRequest promotes a simulation request's log line to Warn when
	// its wall time exceeds this threshold; <= 0 disables the promotion.
	SlowRequest time.Duration
	// RunRingSize bounds the in-memory ring of recent run summaries that
	// backs /v1/runs and the trace endpoint; default 128.
	RunRingSize int
	// Capture, when non-nil, receives every simulation request/response
	// exchange (the /v1/run and /v1/sweep POST surface) after the
	// response is written — the hook live traffic is recorded through
	// (see internal/workload's trace format and flagsimd -capture). The
	// hook runs on the request goroutine and may be called concurrently;
	// it must be goroutine-safe and should return quickly.
	Capture func(CapturedExchange)
}

// CapturedExchange is one request/response pair handed to the Capture
// hook: everything needed to replay the call and verify the response,
// nothing tied to the live connection.
type CapturedExchange struct {
	// At is the request's arrival offset from server start, so a capture
	// preserves the live traffic's temporal shape.
	At time.Duration
	// Method and Path identify the call; Path includes the query string
	// ("/v1/run?trace=chrome").
	Method, Path string
	// Status is the HTTP status the handler wrote.
	Status int
	// ReqBody and RespBody are the full request and response bodies.
	ReqBody, RespBody []byte
	// Latency is the handler's wall time.
	Latency time.Duration
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSweepSpecs <= 0 {
		c.MaxSweepSpecs = 4096
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.RunRingSize <= 0 {
		c.RunRingSize = 128
	}
	return c
}

// Server is the HTTP simulation service: the shared Frontend plus the
// local Backend (admission gate, sweep pool, span capture). Create one
// with New; it is safe for concurrent use.
type Server struct {
	*Frontend
	sweeper *sweep.Sweeper
	gate    *gate
	// engine feeds the flagsim_engine_* families: the sweep pool's
	// Observer, so every compute it runs is published from its Result.
	engine *obs.MetricsProbe

	// testHookAdmitted, when set, runs after a simulation request clears
	// admission and before it executes — the deterministic seam the
	// backpressure and drain tests block on.
	testHookAdmitted func()
}

// New assembles a Server. The sweep pool and its memo cache live as
// long as the Server, so repeated requests are served warm; the memo
// runs in record mode, keeping each run's row summary and, once first
// read, its canonical bytes. The pool hands every result it computes to
// the engine metrics probe, so every compute feeds the shared registry
// without leaving the engine's fast path.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{gate: newGate(cfg.MaxInFlight, cfg.MaxQueue)}
	s.Frontend = NewFrontend("flagsimd", s, reg, cfg)
	s.registerLocal(reg)
	s.sweeper = sweep.New(sweep.Options{
		Workers:  cfg.SweepWorkers,
		Observer: s.engine,
		Encode:   wire.EncodeRecord,
	})
	s.HandleFunc("/v1/flags", s.instrument("/v1/flags", Only(http.MethodGet, s.handleFlags)))
	s.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	return s
}

// Sweeper exposes the process-lifetime sweep pool, e.g. for pre-warming
// the cache before a benchmark.
func (s *Server) Sweeper() *sweep.Sweeper { return s.sweeper }

// Metrics exposes the server's observability registry, e.g. for
// embedding additional families before serving.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// ListenAndServe binds cfg.Addr and serves until ctx is canceled, then
// drains gracefully (see Serve).
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// admit claims an execution slot from the gate; on nil the caller must
// release it.
func (s *Server) admit(ctx context.Context) error {
	err := s.gate.acquire(ctx)
	switch {
	case err == nil:
		if s.testHookAdmitted != nil {
			s.testHookAdmitted()
		}
		return nil
	case errors.Is(err, errSaturated):
		return &StatusError{Code: http.StatusTooManyRequests, Err: err}
	default:
		// The client gave up (or timed out) while queued.
		return &StatusError{Code: http.StatusServiceUnavailable,
			Err: fmt.Errorf("server: abandoned while queued: %w", err)}
	}
}

// Run is the local Backend's single run: behind the admission gate,
// then the memo's finished record, or a one-spec batch that computes
// (or waits for) it, or — for a traced call — straight to the engine. A
// run error is a spec the engine rejected (422) unless the run was
// canceled, which the front end maps (499/504).
func (s *Server) Run(ctx context.Context, call RunCall) (Reply, error) {
	if err := s.admit(ctx); err != nil {
		return Reply{}, err
	}
	defer s.gate.release()
	// A run's captured spans go to the run ring for /v1/runs/{id}/trace;
	// the front end streams a traced run's spans in place of a body.
	if call.Trace {
		// Traced runs bypass the memo cache: a cache hit has no engine
		// run to observe, and the whole point here is a fresh timeline.
		// The pool never sees this run, so it is published here.
		var collector sim.SpanCollector
		res, err := call.Spec.RunOnce(ctx, &collector)
		if err != nil {
			return Reply{}, runError(err)
		}
		s.engine.ObserveResult(res)
		return Reply{Makespan: res.Makespan, Events: res.Events,
			Procs: procNames(res), Spans: collector.Spans}, nil
	}
	if rec, ok := s.sweeper.Lookup(call.Key); ok {
		return runReply(call, rec, true, 0)
	}
	// A per-request span collector rides along with the compute: if
	// this request is the one that computes, its spans land in the run
	// ring; if it waits for another request's compute, the engine never
	// runs for it and the collector stays empty. The collector is an
	// event probe, so this one compute takes the instrumented path.
	var collector sim.SpanCollector
	run := s.sweeper.RunProbed(ctx, []sweep.Spec{call.Spec}, &collector).Runs[0]
	if run.Err != nil {
		return Reply{}, runError(run.Err)
	}
	rep, err := runReply(call, run.Record, run.CacheHit, run.Elapsed)
	if err == nil && len(collector.Spans) > 0 {
		rep.Procs, rep.Spans = procNames(run.Result), collector.Spans
	}
	return rep, err
}

// runError maps a failed run onto the status table: a cancellation
// passes through for the front end, anything else is a spec the engine
// rejected.
func runError(err error) error {
	if errors.Is(err, sim.ErrCanceled) {
		return err
	}
	return &StatusError{Code: http.StatusUnprocessableEntity, Err: err}
}

// runReply answers a /v1/run from the run's record: the envelope is
// written around the record's canonical bytes, which are encoded only
// if no earlier read has encoded them.
func runReply(call RunCall, rec *sweep.Record, hit bool, elapsed time.Duration) (Reply, error) {
	result, err := rec.Bytes()
	if err != nil {
		return Reply{}, err
	}
	return Reply{
		Body:     runBody(call.RunID, call.Spec.Label(), hit, elapsed, result),
		CacheHit: hit, Makespan: rec.Makespan, Events: rec.Events,
	}, nil
}

// Sweep is the local Backend's grid: behind the admission gate, fanned
// across the sweep pool.
func (s *Server) Sweep(ctx context.Context, call SweepCall) (Reply, error) {
	if err := s.admit(ctx); err != nil {
		return Reply{}, err
	}
	defer s.gate.release()
	batch := s.sweeper.Run(ctx, call.Specs)
	resp := SweepResponse{
		Count:   len(batch.Runs),
		Workers: batch.Workers,
		WallNS:  int64(batch.Wall),
		Hits:    batch.Cache.Hits,
		Misses:  batch.Cache.Misses,
	}
	canceled := false
	for _, run := range batch.Runs {
		row := SweepRunRow{Spec: run.Spec.Label(), CacheHit: run.CacheHit}
		if run.Err != nil {
			resp.Failed++
			row.Err = run.Err.Error()
			canceled = canceled || errors.Is(run.Err, sim.ErrCanceled)
		} else {
			rec := run.Record
			row.MakespanNS = int64(rec.Makespan)
			row.Events = rec.Events
			row.GridSHA256 = hex.EncodeToString(rec.GridSHA256[:])
		}
		resp.Runs = append(resp.Runs, row)
	}
	if canceled {
		return Reply{}, fmt.Errorf("sweep: %d of %d runs: %w", resp.Failed, resp.Count, sim.ErrCanceled)
	}
	return Reply{Body: resp, CacheHit: batch.Cache.Misses == 0 && batch.Cache.Hits > 0}, nil
}
