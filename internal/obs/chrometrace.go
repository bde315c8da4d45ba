package obs

// The Chrome trace-event builder shared by every process in the system.
// sim.WriteChromeTraceSpans renders one engine run as a single-process
// trace; this builder generalizes the same event shapes to multiple
// processes so flagsimd can emit its run traces and flagdispd can stitch
// a job's dispatcher-side lifecycle spans together with the job's
// engine spans into one file — each process its own pid lane, each
// processor (or lifecycle track) its own named thread.

import (
	"encoding/json"
	"io"
	"time"

	"flagsim/internal/sim"
)

// traceEvent is one Chrome trace-event: "M" metadata rows name processes
// and threads, "X" complete events are the spans themselves. Timestamps
// and durations are microseconds, matching sim's writer.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// TraceBuilder accumulates trace events across processes and writes the
// JSON array form viewable in chrome://tracing or Perfetto. Metadata
// renders before spans, like sim.WriteChromeTrace. Not safe for
// concurrent use; build, then write.
type TraceBuilder struct {
	metas  []traceEvent
	events []traceEvent
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder { return &TraceBuilder{} }

// ProcessName labels a pid lane ("flagdispd", "flagworkd rack3-7").
func (b *TraceBuilder) ProcessName(pid int, name string) {
	b.metas = append(b.metas, traceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]string{"name": name},
	})
}

// ThreadName labels one tid within a pid lane ("P1", "job lifecycle").
func (b *TraceBuilder) ThreadName(pid, tid int, name string) {
	b.metas = append(b.metas, traceEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]string{"name": name},
	})
}

// Span appends one complete ("X") event at start for dur on the given
// pid/tid lane. args may be nil.
func (b *TraceBuilder) Span(pid, tid int, name, cat string, start, dur time.Duration, args map[string]string) {
	b.events = append(b.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: start.Microseconds(), Dur: dur.Microseconds(),
		PID: pid, TID: tid, Args: args,
	})
}

// EngineSpans adds a full engine span timeline under pid: one named
// thread per processor and one "X" event per span, with offset shifting
// the engine's virtual clock onto the builder's shared timeline (zero
// reproduces sim.WriteChromeTraceSpans' layout).
func (b *TraceBuilder) EngineSpans(pid int, offset time.Duration, procs []string, spans []sim.Span) {
	for i, name := range procs {
		b.ThreadName(pid, i+1, name)
	}
	for _, sp := range spans {
		name, cat, args := sp.ChromeEvent()
		b.Span(pid, sp.Proc+1, name, cat, offset+sp.Start, sp.End-sp.Start, args)
	}
}

// Render emits the accumulated trace as one JSON array, metadata first.
func (b *TraceBuilder) Render(w io.Writer) error {
	out := make([]traceEvent, 0, len(b.metas)+len(b.events))
	out = append(out, b.metas...)
	out = append(out, b.events...)
	return json.NewEncoder(w).Encode(out)
}
