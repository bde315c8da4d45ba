package obs

// Job lifecycle timelines for the distributed sweep fabric. The
// dispatcher stamps each phase transition it witnesses — enqueued,
// leased (per attempt), reported, stored — into a bounded Ring keyed by
// the job's content address: volatile by design (a restart forgets
// timelines along with leases), bounded in memory (a fixed number of
// slots, none holding engine spans), and queryable after the fact
// without having asked for tracing up front.

import (
	"time"

	"flagsim/internal/wire"
)

// JobTimeline is one fabric job's lifecycle as the dispatcher saw it.
// Timestamps are dispatcher-clock; zero means the phase has not happened
// (yet, or ever — failed jobs never store).
type JobTimeline struct {
	// Key is the job's spec content address (64 hex digits).
	Key string `json:"key"`
	// RunID is the 16-hex request identifier that carried the job in
	// (client-supplied X-Run-ID or dispatcher-minted).
	RunID string `json:"run_id,omitempty"`
	// Spec is the resolved spec label, for humans.
	Spec string `json:"spec,omitempty"`
	// Worker names the most recent leaseholder.
	Worker string `json:"worker,omitempty"`

	Enqueued time.Time `json:"enqueued"`
	Leased   time.Time `json:"leased,omitzero"`
	Reported time.Time `json:"reported,omitzero"`
	Stored   time.Time `json:"stored,omitzero"`

	// Leases counts lease grants (>1 means expiry requeued the job);
	// Renews counts heartbeat renewals across all attempts.
	Leases int `json:"leases,omitempty"`
	Renews int `json:"renews,omitempty"`

	// ElapsedNS is the worker-reported execution wall time.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Err is the execution error for failed jobs.
	Err string `json:"err,omitempty"`

	// Req is the job's run request, which the job's engine lane is
	// replayed from: the spans are a pure function of the spec.
	Req wire.RunRequest `json:"-"`
}

// QueueWait is the enqueue→lease phase (the last lease when the job was
// requeued); ok is false until both timestamps exist.
func (t JobTimeline) QueueWait() (time.Duration, bool) {
	if t.Enqueued.IsZero() || t.Leased.IsZero() {
		return 0, false
	}
	return t.Leased.Sub(t.Enqueued), true
}

// Compute is the lease→report phase: worker execution plus both wire
// hops, as the dispatcher can observe it.
func (t JobTimeline) Compute() (time.Duration, bool) {
	if t.Leased.IsZero() || t.Reported.IsZero() {
		return 0, false
	}
	return t.Reported.Sub(t.Leased), true
}

// Store is the report→stored phase: result-tier persistence.
func (t JobTimeline) Store() (time.Duration, bool) {
	if t.Reported.IsZero() || t.Stored.IsZero() {
		return 0, false
	}
	return t.Stored.Sub(t.Reported), true
}

// EndToEnd is the whole enqueue→stored lifecycle.
func (t JobTimeline) EndToEnd() (time.Duration, bool) {
	if t.Enqueued.IsZero() || t.Stored.IsZero() {
		return 0, false
	}
	return t.Stored.Sub(t.Enqueued), true
}

// Done reports a fully-recorded successful lifecycle (failed jobs stay
// not-done; their Err says why). A done job's trace has an engine lane.
func (t JobTimeline) Done() bool { return !t.Stored.IsZero() }

// RingKey keys a timeline by its job's content address.
func (t JobTimeline) RingKey() string { return t.Key }
