// Package dist is the distributed sweep fabric: a dispatcher daemon
// (cmd/flagdispd) that owns a durable, crash-recoverable job queue and a
// cluster-wide content-addressed result tier, plus worker daemons
// (cmd/flagworkd) that register, lease jobs under heartbeat-renewed
// leases, execute them on the local sweep pool, and report results.
//
// The whole design leans on one fact: a sweep.Spec is a pure value whose
// SHA-256 content address (Spec.Key) determines its Result bit-for-bit.
// That makes jobs dedupable on enqueue (two clients submitting the same
// spec share one execution), results verifiable (any worker's report for
// a key must equal any other's, byte for byte), and results storable in
// one place: the dispatcher's result store serves every key any worker
// has ever computed, so a warm fleet recomputes nothing and a worker
// keeps nothing on disk.
//
// Durability contract: an accepted job survives dispatcher crashes (the
// queue journal is fsynced before the enqueue is acknowledged), a
// kill -9'd worker loses nothing (its lease expires and the job
// requeues), and results are stored fsynced and checksum-verified on
// read. Leases are deliberately volatile: a dispatcher restart forgets
// them, which merely requeues in-flight work — the safe direction.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"flagsim/internal/wire"
)

// ErrWire wraps every protocol decode rejection: malformed JSON, unknown
// fields, failed spec resolution, or a job whose stated key does not
// match its spec. Handlers map it to 400; it is never a panic and never
// a 500.
var ErrWire = errors.New("dist: malformed wire payload")

// Key is a spec's content address (sweep.Spec.Key).
type Key = [sha256.Size]byte

// Job is one unit of dispatchable work: a wire-level run request plus
// its content address. The wire form (not the resolved sweep.Spec) is
// what the journal records and workers receive — it round-trips through
// JSON and re-resolves identically on any machine.
type Job struct {
	// KeyHex is the spec's content address in hex; always re-derived and
	// verified against Req on decode, so a corrupt journal frame or a
	// forged report can never alias one spec's slot to another's work.
	KeyHex string          `json:"key"`
	Req    wire.RunRequest `json:"req"`
}

// NewJob derives a Job from a validated run request.
func NewJob(req wire.RunRequest) (Job, error) {
	spec, err := req.Spec()
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	key := spec.Key()
	return Job{KeyHex: hex.EncodeToString(key[:]), Req: req}, nil
}

// Key returns the job's binary content address. Valid only on jobs built
// by NewJob or DecodeJob (which verify KeyHex).
func (j Job) Key() Key {
	var k Key
	b, _ := hex.DecodeString(j.KeyHex)
	copy(k[:], b)
	return k
}

// Label renders the job's resolved spec label for logs and rows; falls
// back to the key for an unresolvable job (cannot happen post-decode).
func (j Job) Label() string {
	spec, err := j.Req.Spec()
	if err != nil {
		return "job:" + j.KeyHex[:16]
	}
	return spec.Label()
}

// DecodeJob strictly decodes and verifies one job: the JSON must parse
// with no unknown fields, the request must resolve to a spec, and the
// stated key must equal the spec's derived content address.
func DecodeJob(raw []byte) (Job, error) {
	var j Job
	if err := strictUnmarshal(raw, &j); err != nil {
		return j, err
	}
	spec, err := j.Req.Spec()
	if err != nil {
		return j, fmt.Errorf("%w: job spec: %v", ErrWire, err)
	}
	want := spec.Key()
	if j.KeyHex != hex.EncodeToString(want[:]) {
		return j, fmt.Errorf("%w: job key %q does not match its spec", ErrWire, j.KeyHex)
	}
	return j, nil
}

// RegisterRequest announces a worker to the dispatcher.
type RegisterRequest struct {
	// Name is the worker's self-chosen label (host:pid by convention);
	// purely informational.
	Name string `json:"name"`
	// Slots is ignored. Older workers sent their execution concurrency
	// here; the field stays so strict decoding accepts their registers.
	Slots int `json:"slots,omitempty"`
}

// RegisterResponse assigns the worker its dispatcher-scoped identity.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
}

// WorkerStatsReport is the worker-side stats snapshot piggybacked on
// lease and renew calls — metrics federation without the dispatcher
// scraping workers (most run no listener at all). Fields mirror
// obs.DistWorkerStats.
type WorkerStatsReport struct {
	JobsExecuted float64 `json:"jobs_executed"`
	JobsFailed   float64 `json:"jobs_failed"`
	LeasesLost   float64 `json:"leases_lost"`
	// TierHits is validated and ignored. Older workers counted their
	// local disk tier's hits here; the field stays so strict decoding
	// accepts their lease and renew calls.
	TierHits float64 `json:"tier_hits,omitempty"`
}

// validate rejects snapshots no worker can legitimately produce.
func (s *WorkerStatsReport) validate(kind string) error {
	if s.JobsExecuted < 0 || s.JobsFailed < 0 || s.LeasesLost < 0 || s.TierHits < 0 {
		return fmt.Errorf("%w: %s: negative worker stats", ErrWire, kind)
	}
	return nil
}

// LeaseRequest asks for one job under a lease.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// TTLMS is the requested lease duration in milliseconds; the
	// dispatcher clamps it to its configured bounds.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Stats, when present, refreshes the dispatcher's federated view of
	// this worker's own metric families.
	Stats *WorkerStatsReport `json:"stats,omitempty"`
}

// LeaseResponse grants one job. A 204 (no body) means the queue is
// empty; the worker polls again.
type LeaseResponse struct {
	LeaseID string `json:"lease_id"`
	Job     Job    `json:"job"`
	// TTLMS is the granted lease duration; the worker must renew or
	// report within it, or the job requeues.
	TTLMS int64 `json:"ttl_ms"`
	// RunID is the request identifier that carried the job into the
	// fabric; the worker threads it through logs and stamps the report,
	// so one ID names the job on every hop.
	RunID string `json:"run_id,omitempty"`
}

// RenewRequest extends a lease (the worker's heartbeat). A dispatcher
// that no longer knows the lease answers 410 Gone: the worker must
// abandon the execution — the job has been requeued.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
	TTLMS   int64  `json:"ttl_ms,omitempty"`
	// Stats rides the heartbeat like on lease calls.
	Stats *WorkerStatsReport `json:"stats,omitempty"`
}

// ReportRequest delivers one executed job's outcome. Exactly one of
// Result and Err is set. Result carries the canonical result bytes
// (wire.MarshalResult) verbatim — the dispatcher stores them untouched,
// which is what makes cross-worker byte-verification possible.
type ReportRequest struct {
	LeaseID   string          `json:"lease_id"`
	WorkerID  string          `json:"worker_id"`
	Key       string          `json:"key"`
	RunID     string          `json:"run_id,omitempty"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Err       string          `json:"err,omitempty"`
	// Trace is ignored. Older workers attached their engine spans here;
	// the field stays so strict decoding accepts their reports.
	Trace json.RawMessage `json:"trace,omitempty"`

	// result is Result as the store keeps it, decoded by DecodeReport.
	result entry
}

// DecodeRegister strictly decodes a register payload.
func DecodeRegister(raw []byte) (RegisterRequest, error) {
	var v RegisterRequest
	if err := strictUnmarshal(raw, &v); err != nil {
		return v, err
	}
	if v.Name == "" {
		return v, fmt.Errorf("%w: register: empty worker name", ErrWire)
	}
	return v, nil
}

// DecodeLease strictly decodes a lease payload.
func DecodeLease(raw []byte) (LeaseRequest, error) {
	var v LeaseRequest
	if err := strictUnmarshal(raw, &v); err != nil {
		return v, err
	}
	if v.WorkerID == "" {
		return v, fmt.Errorf("%w: lease: empty worker_id", ErrWire)
	}
	if v.TTLMS < 0 {
		return v, fmt.Errorf("%w: lease: negative ttl_ms %d", ErrWire, v.TTLMS)
	}
	if v.Stats != nil {
		if err := v.Stats.validate("lease"); err != nil {
			return v, err
		}
	}
	return v, nil
}

// DecodeRenew strictly decodes a renew payload.
func DecodeRenew(raw []byte) (RenewRequest, error) {
	var v RenewRequest
	if err := strictUnmarshal(raw, &v); err != nil {
		return v, err
	}
	if v.LeaseID == "" {
		return v, fmt.Errorf("%w: renew: empty lease_id", ErrWire)
	}
	if v.TTLMS < 0 {
		return v, fmt.Errorf("%w: renew: negative ttl_ms %d", ErrWire, v.TTLMS)
	}
	if v.Stats != nil {
		if err := v.Stats.validate("renew"); err != nil {
			return v, err
		}
	}
	return v, nil
}

// DecodeReport strictly decodes and validates a report payload.
func DecodeReport(raw []byte) (ReportRequest, error) {
	var v ReportRequest
	if err := strictUnmarshal(raw, &v); err != nil {
		return v, err
	}
	if v.LeaseID == "" {
		return v, fmt.Errorf("%w: report: empty lease_id", ErrWire)
	}
	if _, err := ParseKey(v.Key); err != nil {
		return v, err
	}
	if (len(v.Result) == 0) == (v.Err == "") {
		return v, fmt.Errorf("%w: report: exactly one of result and err must be set", ErrWire)
	}
	if len(v.Result) > 0 {
		var err error
		if v.result, err = decodeResult(v.Result); err != nil {
			return v, fmt.Errorf("%w: report result: %v", ErrWire, err)
		}
	}
	return v, nil
}

// ParseKey decodes a 64-hex-digit content address.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*sha256.Size {
		return k, fmt.Errorf("%w: key %q is not %d hex digits", ErrWire, s, 2*sha256.Size)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("%w: key %q: %v", ErrWire, s, err)
	}
	copy(k[:], b)
	return k, nil
}

// strictUnmarshal is wire.Decode with every failure wrapped in ErrWire.
func strictUnmarshal(raw []byte, v any) error {
	if err := wire.Decode(raw, v); err != nil {
		return fmt.Errorf("%w: %v", ErrWire, err)
	}
	return nil
}
