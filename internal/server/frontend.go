package server

// The one HTTP front end both daemons serve through. flagsimd (Server)
// and flagdispd (dist.Dispatcher) differ only in the Backend behind it —
// the local sweep pool, or the fleet's queue and result store — so
// everything a simulation request meets before and after the backend
// lives here, once: method guards, strict body decoding, spec
// resolution, the grid cap, the request limits, run IDs, the status
// table, the JSON writers, the per-request envelope (pprof labels,
// request metrics, log line, run ring, capture hook) and the graceful
// drain.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// statusClientClosedRequest is nginx's conventional status for "client
// went away before the response"; net/http has no constant for it.
const statusClientClosedRequest = 499

// Backend executes resolved simulation requests for a Frontend. Each
// method returns the daemon's own 200 body, or an error the front end
// maps onto the status table: a *StatusError picks its row; a run
// canceled by, or a failure after the end of, the request context is a
// cancel (499, or 504 past a deadline); anything else is a 500.
type Backend interface {
	Run(ctx context.Context, call RunCall) (Reply, error)
	Sweep(ctx context.Context, call SweepCall) (Reply, error)
}

// RunCall is one resolved POST /v1/run.
type RunCall struct {
	RunID string
	Req   wire.RunRequest
	Spec  sweep.Spec
	// Key is Spec.Key(), computed once by the front end.
	Key [sha256.Size]byte
	// Trace asks for a fresh in-process run with its engine spans
	// (?trace=chrome, or a replay for /v1/runs/{id}/trace); the front
	// end streams them as a Chrome trace in place of a body. A traced
	// call reads Spec alone.
	Trace bool
}

// SweepCall is one resolved POST /v1/sweep: the grid's cells in
// expansion order, as wire requests and as resolved specs.
type SweepCall struct {
	RunID string
	Reqs  []wire.RunRequest
	Specs []sweep.Spec
}

// Reply is a backend's answer: the daemon's own response body plus the
// facts the request envelope records in its log line and run ring.
type Reply struct {
	// Body is marshaled as the 200 reply; a []byte is a body already
	// encoded, trailing newline included, and is written as is.
	Body     any
	CacheHit bool
	// Makespan and Events summarize a run the backend read or computed
	// in-process; zero otherwise.
	Makespan time.Duration
	Events   uint64
	// Procs and Spans are a traced run's processor names and engine
	// spans; nil for any other run.
	Procs []string
	Spans []sim.Span
}

// StatusError is a backend failure with its row of the status table
// chosen: 400 (a request this backend cannot serve), 422 (a resolved
// spec the engine rejected), 429 (saturated; sent with the configured
// Retry-After hint) or 503 (abandoned while queued).
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Frontend is the HTTP request path shared by both daemons. Create one
// with NewFrontend; it is safe for concurrent use.
type Frontend struct {
	// name is the daemon's name: its metric prefix and its traces'
	// process name.
	name    string
	cfg     Config
	backend Backend
	metrics *metrics
	ring    *obs.Ring[obs.RunSummary]
	mux     *http.ServeMux
}

// NewFrontend mounts the shared routes in front of b: POST /v1/run,
// POST /v1/sweep, GET /v1/runs, GET /v1/runs/{id}/trace and GET
// /metrics for reg. name prefixes the request metric families it
// registers on reg ("flagsimd" gives flagsimd_requests_total) and names
// the process in the Chrome traces it serves. Of cfg
// it reads MaxSweepSpecs, RequestTimeout, DrainTimeout, Logger,
// SlowRequest, RunRingSize, Capture and RetryAfter; the other fields
// belong to the local backend.
func NewFrontend(name string, b Backend, reg *obs.Registry, cfg Config) *Frontend {
	cfg = cfg.withDefaults()
	f := &Frontend{
		name: name, cfg: cfg, backend: b, metrics: newMetrics(name, reg),
		ring: obs.NewRing[obs.RunSummary](cfg.RunRingSize),
		mux:  http.NewServeMux(),
	}
	f.mux.HandleFunc("/v1/run", f.instrument("/v1/run", Only(http.MethodPost, f.handleRun)))
	f.mux.HandleFunc("/v1/sweep", f.instrument("/v1/sweep", Only(http.MethodPost, f.handleSweep)))
	f.mux.HandleFunc("/v1/runs", f.instrument("/v1/runs", Only(http.MethodGet, f.handleRuns)))
	f.mux.HandleFunc("/v1/runs/{id}/trace", f.instrument("/v1/runs/trace", Only(http.MethodGet, f.handleRunTrace)))
	f.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		reg.WriteText(w)
	})
	return f
}

// Handler returns the HTTP handler (for embedding or tests).
func (f *Frontend) Handler() http.Handler { return f.mux }

// HandleFunc mounts one of the daemon's own routes next to the shared
// ones; it adds no request envelope.
func (f *Frontend) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Serve serves on ln until ctx is canceled, then shuts down gracefully:
// listeners close immediately, in-flight requests get DrainTimeout to
// finish, and a clean drain returns nil. The listener is always closed
// by the time Serve returns.
func (f *Frontend) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: f.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), f.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("server: drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(raw, '\n'))
}

// writeBody writes an encoded JSON body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError writes {"error": err} with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Only answers 405 (with Allow) to any method but method, and passes
// the rest to h.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
			return
		}
		h(w, r)
	}
}

// ReadBody reads r's body, at most limit bytes, and decodes it with
// decode; on failure it answers 400 and reports false.
func ReadBody[T any](w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) (T, error)) (T, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var v T
	if err == nil {
		v, err = decode(raw)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
	}
	return v, err == nil
}

// decodeJSON strictly decodes the bounded request body into v.
func decodeJSON(r *http.Request, v any) error {
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return err
	}
	return wire.Decode(raw, v)
}

// requestCtx derives the execution context: the client's own (canceled
// on disconnect) bounded by the configured per-request deadline.
func (f *Frontend) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if f.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

func (f *Frontend) handleRun(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	if err := decodeJSON(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.CheckLimits(); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	sum := summary(r)
	sum.Spec, sum.Resolved = spec.Label(), spec
	key := spec.Key()
	sum.SpecHash = hex.EncodeToString(key[:8])
	traceMode := r.URL.Query().Get("trace")
	if traceMode != "" && traceMode != "chrome" {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("unknown trace format %q (chrome)", traceMode))
		return
	}
	ctx, cancel := f.requestCtx(r)
	defer cancel()
	call := RunCall{RunID: obs.RunID(ctx), Req: req, Spec: spec, Key: key, Trace: traceMode == "chrome"}
	rep, err := f.backend.Run(ctx, call)
	if err != nil {
		f.fail(w, ctx, sum, err)
		return
	}
	sum.Runs, sum.CacheHit = 1, rep.CacheHit
	sum.Makespan, sum.Events = rep.Makespan, rep.Events
	if call.Trace {
		f.writeTrace(ctx, w, rep)
		return
	}
	if raw, ok := rep.Body.([]byte); ok {
		writeBody(w, http.StatusOK, raw)
		return
	}
	WriteJSON(w, http.StatusOK, rep.Body)
}

func (f *Frontend) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sreq wire.SweepRequest
	if err := decodeJSON(r, &sreq); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Resolving builds every cell, so the cap is checked on the axis
	// lengths first: an oversized grid costs nothing to refuse.
	if n := sreq.Size(); n > f.cfg.MaxSweepSpecs {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("grid expands to %d specs, limit %d", n, f.cfg.MaxSweepSpecs))
		return
	}
	if err := sreq.CheckLimits(); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	reqs, specs, err := sreq.Resolve()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	sum := summary(r)
	ctx, cancel := f.requestCtx(r)
	defer cancel()
	rep, err := f.backend.Sweep(ctx, SweepCall{RunID: obs.RunID(ctx), Reqs: reqs, Specs: specs})
	if err != nil {
		f.fail(w, ctx, sum, err)
		return
	}
	sum.Runs, sum.CacheHit = len(specs), rep.CacheHit
	WriteJSON(w, http.StatusOK, rep.Body)
}

// fail writes a backend failure's row of the status table and labels
// the request's outcome for the log line and the run ring.
func (f *Frontend) fail(w http.ResponseWriter, ctx context.Context, sum *obs.RunSummary, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		switch se.Code {
		case http.StatusUnprocessableEntity:
			sum.Outcome = "unprocessable"
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", strconv.Itoa(int(f.cfg.RetryAfter.Seconds()+0.5)))
		}
		WriteError(w, se.Code, se.Err)
	case errors.Is(err, sim.ErrCanceled) || errors.Is(err, ctx.Err()):
		f.metrics.canceled.Inc()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			sum.Outcome = "deadline"
			WriteError(w, http.StatusGatewayTimeout,
				fmt.Errorf("server: run exceeded the request deadline: %w", err))
			return
		}
		sum.Outcome = "canceled"
		WriteError(w, statusClientClosedRequest, err)
	default:
		WriteError(w, http.StatusInternalServerError, err)
	}
}

// statusRecorder captures the status code a handler wrote and, when the
// capture hook is armed, tees the response body.
type statusRecorder struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.body != nil {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

type summaryKey struct{}

// summary returns the request's run-ring entry, which the simulation
// handlers fill with handler-level detail (spec label, spec hash, cache
// outcome) so the instrument wrapper can log and record it without
// re-parsing anything.
func summary(r *http.Request) *obs.RunSummary {
	return r.Context().Value(summaryKey{}).(*obs.RunSummary)
}

// simEndpoint reports whether the endpoint executes simulations — these
// get latency histograms, Info-level logs, and run-ring entries.
func simEndpoint(endpoint string) bool {
	return endpoint == "/v1/run" || endpoint == "/v1/sweep"
}

// instrument wraps a handler with the request-scoped observability
// envelope: a run ID (a well-formed client X-Run-ID is adopted,
// otherwise one is minted; either way it is the context value, the
// echoed X-Run-ID header and a pprof label), request counting, latency
// observation, the structured log line, and — for simulation endpoints
// — the run-ring entry and the capture hook.
func (f *Frontend) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Run-ID")
		if !obs.ValidRunID(id) {
			id = obs.NewRunID()
		}
		sum := &obs.RunSummary{ID: id, Endpoint: endpoint, Start: start}
		ctx := obs.WithRunID(r.Context(), id)
		ctx = context.WithValue(ctx, summaryKey{}, sum)
		w.Header().Set("X-Run-ID", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// Capture tees the exchange: the request body is read up front
		// (and handed back to the handler as a fresh reader), the
		// response body through the recorder. The bound mirrors
		// decodeJSON's MaxBytesReader, so the handler sees the same
		// bytes it would have read itself.
		capture := f.cfg.Capture != nil && simEndpoint(endpoint) && r.Method == http.MethodPost
		var reqBody []byte
		if capture {
			reqBody, _ = io.ReadAll(io.LimitReader(r.Body, 1<<20))
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
			rec.body = &bytes.Buffer{}
		}
		pprof.Do(ctx, pprof.Labels("run_id", id, "endpoint", endpoint), func(ctx context.Context) {
			h(rec, r.WithContext(ctx))
		})
		elapsed := time.Since(start)
		sum.Latency, sum.Status = elapsed, rec.status
		if capture {
			f.cfg.Capture(CapturedExchange{
				At:      start.Sub(f.metrics.start),
				Method:  r.Method,
				Path:    r.URL.RequestURI(),
				Status:  rec.status,
				ReqBody: reqBody, RespBody: rec.body.Bytes(),
				Latency: elapsed,
			})
		}

		f.metrics.requests.With(endpoint, strconv.Itoa(rec.status)).Inc()
		switch endpoint {
		case "/v1/run":
			f.metrics.runLatency.ObserveDuration(elapsed)
		case "/v1/sweep":
			f.metrics.sweepLatency.ObserveDuration(elapsed)
		}
		if rec.status == http.StatusTooManyRequests {
			f.metrics.rejected.With(endpoint).Inc()
		}

		if sum.Outcome == "" {
			if rec.status < 400 {
				sum.Outcome = "ok"
			} else {
				sum.Outcome = "error"
			}
		}
		if simEndpoint(endpoint) {
			f.ring.Insert(*sum)
		}

		level := slog.LevelDebug
		if simEndpoint(endpoint) {
			level = slog.LevelInfo
		}
		msg := "request"
		if f.cfg.SlowRequest > 0 && simEndpoint(endpoint) && elapsed > f.cfg.SlowRequest {
			level, msg = slog.LevelWarn, "slow request"
		}
		if f.cfg.Logger.Enabled(r.Context(), level) {
			attrs := []slog.Attr{
				slog.String("run_id", id),
				slog.String("endpoint", endpoint),
				slog.Int("status", rec.status),
				slog.Duration("latency", elapsed),
				slog.String("outcome", sum.Outcome),
			}
			if sum.Spec != "" {
				attrs = append(attrs,
					slog.String("spec", sum.Spec),
					slog.String("spec_hash", sum.SpecHash),
					slog.Bool("cache_hit", sum.CacheHit))
			}
			if sum.Runs > 1 {
				attrs = append(attrs, slog.Int("runs", sum.Runs))
			}
			f.cfg.Logger.LogAttrs(r.Context(), level, msg, attrs...)
		}
	}
}
