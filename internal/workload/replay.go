package workload

// Trace replay and bit-for-bit comparison. A replayed trace re-fires the
// recorded requests at their recorded offsets against a fresh server and
// compares what came back. Responses carry two classes of bytes: serving
// envelope (run IDs, cache_hit, elapsed_ns, batch wall time) that is
// legitimately different on every execution, and the deterministic
// result section that the engine's determinism contract pins to the
// spec. ResultSignature extracts exactly the deterministic class, so
// "replays bit-for-bit" is a byte-equality check on the part of the
// response the contract actually covers — and a signature mismatch is a
// real determinism break, never envelope noise.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// Replay re-fires every record of tr against cfg.Target, preserving the
// recorded offsets (scaled by cfg.Speed), and returns the new trace in
// the same record order plus its report.
func Replay(ctx context.Context, tr *Trace, cfg RunnerConfig) (*Trace, *Report, error) {
	sched := &Schedule{Shape: "replay", Arrivals: make([]Arrival, len(tr.Records))}
	for i := range tr.Records {
		r := &tr.Records[i]
		sched.Arrivals[i] = Arrival{At: r.At, Req: Request{
			Kind: r.Kind, Method: r.Method, Path: r.Path, Body: r.Body,
		}}
		if r.At > sched.Duration {
			sched.Duration = r.At
		}
	}
	return Fire(ctx, sched, cfg)
}

// DeterministicStatus reports whether a status code's response body is a
// pure function of the request. 200/400/404/405/422 bodies are; load-
// and timing-dependent codes (429, 499, 503, 504, transport failures)
// are not and are skipped by CompareTraces.
func DeterministicStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusMethodNotAllowed, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

// ResultSignature extracts the deterministic portion of a response as a
// canonical byte string:
//
//   - POST /v1/run: the raw bytes of the "result" object (run_id,
//     cache_hit, elapsed_ns stripped);
//   - POST /v1/run?trace=chrome: the whole body (virtual-time spans);
//   - POST /v1/sweep: the per-run rows re-rendered without cache_hit,
//     plus nothing of the batch envelope;
//   - non-200 deterministic statuses: the status line plus the body.
func ResultSignature(rec *Record) ([]byte, error) {
	if !DeterministicStatus(rec.Status) {
		return nil, fmt.Errorf("workload: status %d is load-dependent; no signature", rec.Status)
	}
	if rec.Status != http.StatusOK {
		return append([]byte(fmt.Sprintf("status:%d|", rec.Status)), rec.Resp...), nil
	}
	switch InferKind(rec.Path, rec.Body) {
	case KindSweep:
		var resp struct {
			Runs []struct {
				Spec       string          `json:"spec"`
				MakespanNS json.RawMessage `json:"makespan_ns"`
				Events     json.RawMessage `json:"events"`
				GridSHA256 string          `json:"grid_sha256"`
				Err        string          `json:"err"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(rec.Resp, &resp); err != nil {
			return nil, fmt.Errorf("workload: sweep response: %w", err)
		}
		var sig []byte
		for _, r := range resp.Runs {
			sig = append(sig, fmt.Sprintf("%s|%s|%s|%s|%s\n",
				r.Spec, r.MakespanNS, r.Events, r.GridSHA256, r.Err)...)
		}
		return sig, nil
	case KindTraceRun:
		return rec.Resp, nil
	default:
		var resp struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(rec.Resp, &resp); err != nil {
			return nil, fmt.Errorf("workload: run response: %w", err)
		}
		if len(resp.Result) == 0 {
			return nil, fmt.Errorf("workload: run response has no result section")
		}
		return resp.Result, nil
	}
}

// Mismatch is one comparison failure between a recorded and a replayed
// exchange.
type Mismatch struct {
	Index  int
	Reason string
}

// CompareReport tallies a trace comparison.
type CompareReport struct {
	// Compared counts records whose deterministic signatures were
	// checked; Skipped counts records excluded because either side's
	// status was load-dependent.
	Compared, Skipped int
	Mismatches        []Mismatch
}

// Identical reports whether every compared record matched and at least
// one was compared.
func (c *CompareReport) Identical() bool {
	return c.Compared > 0 && len(c.Mismatches) == 0
}

// CompareTraces verifies a replay against its recording record-by-record
// (by index — Replay preserves order). Records where either execution
// saw a load-dependent status are skipped, everything else must carry a
// byte-identical result signature.
func CompareTraces(recorded, replayed *Trace) (*CompareReport, error) {
	if len(recorded.Records) != len(replayed.Records) {
		return nil, fmt.Errorf("workload: record counts differ: %d vs %d",
			len(recorded.Records), len(replayed.Records))
	}
	rep := &CompareReport{}
	for i := range recorded.Records {
		a, b := &recorded.Records[i], &replayed.Records[i]
		if !DeterministicStatus(a.Status) || !DeterministicStatus(b.Status) {
			rep.Skipped++
			continue
		}
		if a.Status != b.Status {
			rep.Compared++
			rep.Mismatches = append(rep.Mismatches, Mismatch{i,
				fmt.Sprintf("status %d recorded, %d replayed", a.Status, b.Status)})
			continue
		}
		sa, err := ResultSignature(a)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		sb, err := ResultSignature(b)
		if err != nil {
			return nil, fmt.Errorf("replayed record %d: %w", i, err)
		}
		rep.Compared++
		if string(sa) != string(sb) {
			rep.Mismatches = append(rep.Mismatches, Mismatch{i,
				fmt.Sprintf("result signature diverged (%s %s)", a.Method, a.Path)})
		}
	}
	return rep, nil
}
