package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// WriteChromeTrace exports a traced run in the Chrome trace-event format
// (the JSON array form), viewable in chrome://tracing or Perfetto. Each
// processor becomes a thread; paint, wait, and overhead spans become
// complete ("X") events with microsecond timestamps in virtual time.
//
// This gives the activity's runs the same tooling a real parallel program
// gets from a profiler — students can scrub through scenario 4 and watch
// P2–P4 blocked on the red marker.
func (r *Result) WriteChromeTrace(w io.Writer) error {
	if r.Trace == nil {
		return fmt.Errorf("sim: run has no trace; set Config.Trace")
	}
	procs := make([]string, len(r.Procs))
	for i, p := range r.Procs {
		procs[i] = p.Name
	}
	return WriteChromeTraceSpans(w, procs, r.Trace)
}

// WriteChromeTraceSpans exports an arbitrary span timeline in the Chrome
// trace-event format — the span-level core of WriteChromeTrace, usable
// with spans reconstructed through a SpanCollector probe as well as with
// a traced Result. procs names the processor threads; Span.Proc indexes
// it.
func WriteChromeTraceSpans(w io.Writer, procs []string, spans []Span) error {
	type traceEvent struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   int64             `json:"ts"`  // microseconds
		Dur  int64             `json:"dur"` // microseconds
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]traceEvent, 0, len(spans)+len(procs))
	// Thread-name metadata so the viewer shows P1..Pn.
	type metaEvent struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	metas := make([]metaEvent, 0, len(procs))
	for i, name := range procs {
		metas = append(metas, metaEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	for _, sp := range spans {
		name, cat, args := sp.ChromeEvent()
		events = append(events, traceEvent{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   sp.Start.Microseconds(),
			Dur:  (sp.End - sp.Start).Microseconds(),
			PID:  1,
			TID:  sp.Proc + 1,
			Args: args,
		})
	}
	// Emit as one JSON array: metadata first, then events.
	var out []interface{}
	for _, m := range metas {
		out = append(out, m)
	}
	for _, e := range events {
		out = append(out, e)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ChromeEvent names the span as a Chrome trace event: "paint red" with
// a cell arg, "wait blue", pickup and putdown with a color arg, any
// other kind by its name; the category is always the kind's name. Every
// Chrome trace writer names engine spans through it.
func (sp Span) ChromeEvent() (name, cat string, args map[string]string) {
	name = sp.Kind.String()
	args = map[string]string{}
	switch sp.Kind {
	case SpanPaint:
		name = "paint " + sp.Color.String()
		args["cell"] = sp.Cell.String()
	case SpanWaitImplement:
		name = "wait " + sp.Color.String()
	case SpanPickup, SpanPutDown:
		args["color"] = sp.Color.String()
	}
	return name, sp.Kind.String(), args
}

// TraceDuration reports the total traced span time per kind — a quick
// integrity check that the trace accounts for the run.
func (r *Result) TraceDuration(kind SpanKind) time.Duration {
	var total time.Duration
	for _, sp := range r.Trace {
		if sp.Kind == kind {
			total += sp.End - sp.Start
		}
	}
	return total
}
