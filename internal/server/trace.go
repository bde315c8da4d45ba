package server

// After-the-fact run inspection: every simulation request leaves a
// summary in the bounded run ring (keyed by the run ID the X-Run-ID
// header returned), and a /v1/run's summary keeps its resolved spec. The
// engine is deterministic, so replaying that spec draws the spans the
// run drew: a p99 outlier spotted in the latency histogram can be pulled
// up as a Chrome trace without having asked for tracing up front, and
// no compute records spans just in case.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"flagsim/internal/obs"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
)

// TracedRun runs spec once in process under a span collector: the only
// way either daemon draws engine spans, for ?trace=chrome and for every
// trace it replays. It returns the traced Reply and the run's Result; a
// run error maps onto the status table as Server.Run's do.
func TracedRun(ctx context.Context, spec sweep.Spec) (Reply, *sim.Result, error) {
	var collector sim.SpanCollector
	res, err := spec.RunOnce(ctx, &collector)
	if err != nil {
		return Reply{}, nil, runError(err)
	}
	return Reply{Makespan: res.Makespan, Events: res.Events,
		Procs: procNames(res), Spans: collector.Spans}, res, nil
}

// procNames flattens the result's processor names for trace export.
func procNames(res *sim.Result) []string {
	out := make([]string, len(res.Procs))
	for i, p := range res.Procs {
		out[i] = p.Name
	}
	return out
}

// writeTrace streams a traced run's spans as a Chrome trace through the
// shared obs builder, with the daemon as the process: the same machinery
// flagdispd stitches fleet-wide job traces with.
func (f *Frontend) writeTrace(ctx context.Context, w http.ResponseWriter, rep Reply) {
	b := obs.NewTraceBuilder()
	b.ProcessName(1, f.name)
	b.EngineSpans(1, 0, rep.Procs, rep.Spans)
	w.Header().Set("Content-Type", "application/json")
	if err := b.Render(w); err != nil {
		f.cfg.Logger.LogAttrs(ctx, slog.LevelError, "trace stream failed",
			slog.String("run_id", obs.RunID(ctx)), slog.String("error", err.Error()))
	}
}

// RunsResponse is the /v1/runs reply: recent runs, newest first.
type RunsResponse struct {
	Count int              `json:"count"`
	Runs  []obs.RunSummary `json:"runs"`
}

func (f *Frontend) handleRuns(w http.ResponseWriter, r *http.Request) {
	runs := f.ring.List()
	WriteJSON(w, http.StatusOK, RunsResponse{Count: len(runs), Runs: runs})
}

// handleRunTrace replays a ring entry's run as a traced run through the
// backend, exactly as POST /v1/run?trace=chrome would: it passes the
// same gate and answers with the same bytes.
func (f *Frontend) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sum, ok := f.ring.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("unknown run id %q (the ring keeps the last %d runs)", id, f.cfg.RunRingSize))
		return
	}
	if sum.Endpoint != "/v1/run" || sum.Status != http.StatusOK {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("run %s has no trace: only a /v1/run that answered 200 replays as one", id))
		return
	}
	ctx, cancel := f.requestCtx(r)
	defer cancel()
	rep, err := f.backend.Run(ctx, RunCall{RunID: obs.RunID(ctx), Spec: sum.Resolved, Trace: true})
	if err != nil {
		f.fail(w, ctx, summary(r), err)
		return
	}
	f.writeTrace(ctx, w, rep)
}
