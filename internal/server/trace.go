package server

// After-the-fact run inspection: every simulation request leaves a
// summary in the bounded run ring (keyed by the run ID the X-Run-ID
// header returned), and runs computed in-process keep their span
// timeline, so a p99 outlier spotted in the latency histogram can be
// pulled up as a Chrome trace without having asked for tracing up front.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"flagsim/internal/obs"
	"flagsim/internal/sim"
)

// writeEngineTrace renders one engine run as a Chrome trace through the
// shared obs builder — the same machinery flagdispd uses to stitch
// fleet-wide job traces, so both daemons emit identical event shapes.
func writeEngineTrace(w io.Writer, procs []string, spans []sim.Span) error {
	b := obs.NewTraceBuilder()
	b.ProcessName(1, "flagsimd")
	b.EngineSpans(1, 0, procs, spans)
	return b.Render(w)
}

// procNames flattens the result's processor names for trace export.
func procNames(res *sim.Result) []string {
	out := make([]string, len(res.Procs))
	for i, p := range res.Procs {
		out[i] = p.Name
	}
	return out
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

func (f *Frontend) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sum, ok := f.ring.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("unknown run id %q (the ring keeps the last %d runs)", id, f.cfg.RunRingSize))
		return
	}
	if !sum.HasTrace() {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("run %s has no trace: cache hits and sweep batches skip span capture; re-run with POST /v1/run?trace=chrome", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := writeEngineTrace(w, sum.Procs, sum.Trace); err != nil {
		f.cfg.Logger.LogAttrs(r.Context(), slog.LevelError, "trace stream failed",
			slog.String("run_id", id), slog.String("error", err.Error()))
	}
}
