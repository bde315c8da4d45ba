package dist

// End-to-end tests for the tracing plane: run-ID propagation across the
// client → dispatcher → worker → report chain, job lifecycle timelines
// and phase histograms, stitched fleet-wide Chrome traces, and the
// federated per-worker metrics a single dispatcher scrape exposes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/sim"
	"flagsim/internal/wire"
)

// getJSON fetches path and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// traceEvents is the decoded form of a stitched Chrome trace.
type testTraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Dur  int64             `json:"dur"`
	Args map[string]string `json:"args"`
}

// engineLane renders the job's engine spans as RunOnce draws them,
// shifted to its lease offset on the dispatcher's timeline: the pid-2
// events a stitched job trace must carry.
func engineLane(t *testing.T, job Job, offset time.Duration) []testTraceEvent {
	t.Helper()
	spec, err := job.Req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	var collector sim.SpanCollector
	res, err := spec.RunOnce(nil, &collector)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]string, len(res.Procs))
	for i, p := range res.Procs {
		procs[i] = p.Name
	}
	b := obs.NewTraceBuilder()
	b.EngineSpans(2, offset, procs, collector.Spans)
	var buf bytes.Buffer
	if err := b.Render(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []testTraceEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestFleetTimelinesAndTraces is the tracing plane's acceptance test: a
// two-worker sweep leaves, for every computed key, a fully-stamped
// timeline with coherent phases, a stitched Chrome trace containing both
// dispatcher lifecycle spans and the job's engine spans (exactly
// RunOnce's, at the lease offset), byte-identical results, and
// dispatcher /metrics covering phases and the federated per-worker
// families.
func TestFleetTimelinesAndTraces(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()

	sreq := e2eSweepRequest()
	jobs, want := localCanonical(t, sreq)

	// Post the sweep with a caller-chosen run ID and verify the echo.
	const runID = "feedfacecafebeef"
	body, _ := json.Marshal(sreq)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/sweep", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Run-ID", runID)
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var resp SweepFleetResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK || resp.Failed != 0 {
		t.Fatalf("sweep status %d, resp %+v", httpResp.StatusCode, resp)
	}
	if got := httpResp.Header.Get("X-Run-ID"); got != runID {
		t.Fatalf("X-Run-ID echoed %q, want %q", got, runID)
	}

	for i, job := range jobs {
		// Results stay byte-identical to a local single-process run —
		// tracing must not perturb the computed bytes.
		stored, ok := f.d.Store().Get(job.Key())
		if !ok || !bytes.Equal(stored, want[job.Key()]) {
			t.Fatalf("job %d result missing or drifted from local bytes", i)
		}

		var tl JobTimelineView
		if code := getJSON(t, f.srv.URL+"/v1/jobs/"+job.KeyHex, &tl); code != http.StatusOK {
			t.Fatalf("job %d timeline status %d", i, code)
		}
		if !tl.Done {
			t.Fatalf("job %d timeline not done: %+v", i, tl)
		}
		if tl.RunID != runID {
			t.Fatalf("job %d timeline run_id %q, want the sweep's %q", i, tl.RunID, runID)
		}
		if tl.Worker != "e2e-worker" {
			t.Fatalf("job %d worker %q", i, tl.Worker)
		}
		if tl.Leases < 1 {
			t.Fatalf("job %d recorded %d leases", i, tl.Leases)
		}
		if tl.Enqueued.IsZero() || tl.Leased.IsZero() || tl.Reported.IsZero() || tl.Stored.IsZero() {
			t.Fatalf("job %d has unset phase timestamps: %+v", i, tl.JobTimeline)
		}
		p := tl.Phases
		if p.EndToEndNS <= 0 {
			t.Fatalf("job %d end-to-end %d", i, p.EndToEndNS)
		}
		// Monotonicity: the phases partition the lifecycle.
		if p.QueueWaitNS+p.ComputeNS > p.EndToEndNS {
			t.Fatalf("job %d: queue %d + compute %d exceeds end-to-end %d",
				i, p.QueueWaitNS, p.ComputeNS, p.EndToEndNS)
		}
		if p.QueueWaitNS+p.ComputeNS+p.StoreNS != p.EndToEndNS {
			t.Fatalf("job %d: phases do not sum to end-to-end: %+v", i, p)
		}
		if !tl.HasTrace {
			t.Fatalf("job %d completed but has no trace", i)
		}

		// The stitched trace has a dispatcher lifecycle lane (pid 1) and
		// a worker engine lane (pid 2) — spans from two processes in one
		// viewer-loadable file.
		var evs []testTraceEvent
		if code := getJSON(t, f.srv.URL+"/v1/jobs/"+job.KeyHex+"/trace", &evs); code != http.StatusOK {
			t.Fatalf("job %d trace status %d", i, code)
		}
		spanPIDs := map[int]int{}
		var sawCompute, sawEngine bool
		var lane []testTraceEvent
		for _, ev := range evs {
			if ev.PID == 2 {
				if ev.Ph == "M" && ev.Name == "process_name" && ev.Args["name"] != "flagworkd e2e-worker" {
					t.Fatalf("job %d engine lane named %q", i, ev.Args["name"])
				}
				lane = append(lane, ev)
			}
			if ev.Ph != "X" {
				continue
			}
			spanPIDs[ev.PID]++
			if ev.PID == 1 && ev.Name == "compute" {
				sawCompute = true
				if ev.Args["run_id"] != runID || ev.Args["worker"] != "e2e-worker" {
					t.Fatalf("job %d compute span args %v", i, ev.Args)
				}
			}
			if ev.PID == 2 && strings.HasPrefix(ev.Name, "paint ") {
				sawEngine = true
			}
		}
		if len(spanPIDs) < 2 {
			t.Fatalf("job %d trace spans only pids %v, want dispatcher and worker lanes", i, spanPIDs)
		}
		if !sawCompute || !sawEngine {
			t.Fatalf("job %d trace missing compute phase span (%v) or engine paint span (%v)",
				i, sawCompute, sawEngine)
		}
		// The engine lane is the job's replay: RunOnce's spans, shifted to
		// the lease offset on the dispatcher's clock.
		stamped, ok := f.d.ring.Get(job.KeyHex)
		if !ok {
			t.Fatalf("job %d timeline left the ring", i)
		}
		if want := engineLane(t, job, stamped.Leased.Sub(stamped.Enqueued)); !reflect.DeepEqual(lane[1:], want) {
			t.Fatalf("job %d engine lane has %d events, RunOnce at the lease offset %d, and they differ",
				i, len(lane)-1, len(want))
		}
	}

	// /v1/jobs lists every timeline.
	var list JobsResponse
	if code := getJSON(t, f.srv.URL+"/v1/jobs", &list); code != http.StatusOK || list.Count != len(jobs) {
		t.Fatalf("jobs list code %v count %d, want %d", code, list.Count, len(jobs))
	}

	// Phase histograms observed exactly once per completed job, and the
	// federated per-worker families expose the fleet through one scrape.
	// Worker stats ride the next lease poll, so allow a short settle.
	phaseRe := regexp.MustCompile(`flagsim_dist_phase_seconds_count\{phase="end_to_end"\} (\d+)`)
	fedRe := regexp.MustCompile(`flagsim_dist_worker_jobs_executed\{worker="e2e-worker"\} (\d+)`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		metricsResp, err := http.Get(f.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(metricsResp.Body)
		metricsResp.Body.Close()
		text := string(raw)
		m := phaseRe.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("metrics missing end_to_end phase count:\n%s", text)
		}
		if m[1] != fmt.Sprint(len(jobs)) {
			t.Fatalf("end_to_end observed %s times, want exactly %d (duplicate guard)", m[1], len(jobs))
		}
		if fm := fedRe.FindStringSubmatch(text); fm != nil && fm[1] != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated worker stats never became non-zero:\n%s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetRunIDPropagation pins the single-run contract: a well-formed
// client X-Run-ID is adopted on every hop (response header, response
// body, timeline) and a malformed one is replaced with a minted ID
// rather than rejected or propagated.
func TestFleetRunIDPropagation(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()

	post := func(seed uint64, header string) (*http.Response, RunFleetResponse) {
		t.Helper()
		body, _ := json.Marshal(wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: seed})
		req, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/run", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set("X-Run-ID", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d", resp.StatusCode)
		}
		var out RunFleetResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	const supplied = "0123456789abcdef"
	resp, out := post(21, supplied)
	if got := resp.Header.Get("X-Run-ID"); got != supplied {
		t.Fatalf("header echo %q, want %q", got, supplied)
	}
	if out.RunID != supplied || out.Warm {
		t.Fatalf("cold run reply run_id %q warm %v", out.RunID, out.Warm)
	}
	var tl JobTimelineView
	if code := getJSON(t, f.srv.URL+"/v1/jobs/"+out.Key, &tl); code != http.StatusOK {
		t.Fatalf("timeline status %d", code)
	}
	if tl.RunID != supplied {
		t.Fatalf("timeline run_id %q, want the client's %q", tl.RunID, supplied)
	}

	// Garbage header: minted replacement, never propagated.
	resp, out = post(22, "not a run id; drop'); --")
	minted := resp.Header.Get("X-Run-ID")
	if !obs.ValidRunID(minted) {
		t.Fatalf("minted run id %q is malformed", minted)
	}
	if out.RunID != minted {
		t.Fatalf("body run_id %q != header %q", out.RunID, minted)
	}

	// Warm re-run: a fresh run ID per request, even for tier hits.
	resp2, out2 := post(21, "")
	if !out2.Warm {
		t.Fatal("re-run of seed 21 not warm")
	}
	warmID := resp2.Header.Get("X-Run-ID")
	if !obs.ValidRunID(warmID) || warmID == supplied {
		t.Fatalf("warm run id %q, want a fresh mint", warmID)
	}
}

// TestJobTimelineGoneAfterRestart is the S2 regression: timelines are
// volatile, so after a dispatcher restart a warm-from-store job answers
// 404 on /v1/jobs/{key} — not a 500, not an empty fabricated timeline —
// while /v1/run still serves the stored result.
func TestJobTimelineGoneAfterRestart(t *testing.T) {
	dir := t.TempDir()
	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 1, nil)

	body, _ := json.Marshal(wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: 31})
	resp, err := http.Post(f.srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out RunFleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := getJSON(t, f.srv.URL+"/v1/jobs/"+out.Key, nil); code != http.StatusOK {
		t.Fatalf("pre-restart timeline status %d", code)
	}
	stopWorkers()
	f.stop(t)

	// Same data dir: the store remembers the result, the ring does not
	// remember the lifecycle.
	f2 := startFleet(t, dir)
	defer f2.stop(t)
	resp2, err := http.Post(f2.srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var warm RunFleetResponse
	if err := json.NewDecoder(resp2.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !warm.Warm {
		t.Fatal("post-restart run not served warm from the store")
	}
	if code := getJSON(t, f2.srv.URL+"/v1/jobs/"+out.Key, nil); code != http.StatusNotFound {
		t.Fatalf("post-restart timeline status %d, want 404", code)
	}
	if code := getJSON(t, f2.srv.URL+"/v1/jobs/"+out.Key+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("post-restart trace status %d, want 404", code)
	}
}

// TestDispatcherRestartSeedsPendingTimelines covers the other half of
// the restart story: jobs recovered as pending DO get fresh timelines,
// so their remaining lifecycle is observable.
func TestDispatcherRestartSeedsPendingTimelines(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDispatcher(DispatcherConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d1.EnqueueJobs([]Job{job}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()

	// The recovered job drains; its restart-seeded timeline completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tl JobTimelineView
		if code := getJSON(t, f.srv.URL+"/v1/jobs/"+job.KeyHex, &tl); code == http.StatusOK && tl.Done {
			if !obs.ValidRunID(tl.RunID) {
				t.Fatalf("recovered timeline run_id %q not minted", tl.RunID)
			}
			// The seeded timeline keeps the job's request, so its trace
			// has an engine lane.
			var evs []testTraceEvent
			if code := getJSON(t, f.srv.URL+"/v1/jobs/"+job.KeyHex+"/trace", &evs); code != http.StatusOK {
				t.Fatalf("recovered job's trace status %d", code)
			}
			engine := 0
			for _, ev := range evs {
				if ev.PID == 2 && ev.Ph == "X" {
					engine++
				}
			}
			if engine == 0 {
				t.Fatal("recovered job's trace has no engine spans")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job's timeline never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// oldWorkerTrace is the engine span summary workers used to attach to a
// report, at its old cap of 4096 spans.
func oldWorkerTrace() json.RawMessage {
	var b strings.Builder
	b.WriteString(`{"worker":"old-worker","procs":["P1","P2","P3","P4"],"spans":[`)
	for i := 0; i < 4096; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"proc":%d,"name":"paint yellow","cat":"paint","start_ns":%d,"dur_ns":1595614,"args":{"cell":"(%d,%d)"}}`,
			i%4, 100000000000+int64(i)*1595614, i%120, i/120)
	}
	b.WriteString(`],"truncated":true}`)
	return json.RawMessage(b.String())
}

// TestReportIgnoresOldWorkerTrace: a report from a worker that still
// attaches its engine spans is accepted, within the 1 MiB report limit
// even at the old 4096-span cap, and the spans are ignored: the result
// is stored and the job's trace is replayed from its request.
func TestReportIgnoresOldWorkerTrace(t *testing.T) {
	f := startFleet(t, t.TempDir())
	defer f.stop(t)
	job := testJob(t, 55)
	spec, err := job.Req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	result, err := wire.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var reg RegisterResponse
	if code := postWorker(t, f.srv.URL, "/v1/workers/register", RegisterRequest{Name: "old"}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	if _, _, err := f.d.EnqueueJobs([]Job{job}); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	if code := postWorker(t, f.srv.URL, "/v1/workers/lease", LeaseRequest{WorkerID: reg.WorkerID}, &lease); code != http.StatusOK {
		t.Fatalf("lease: %d", code)
	}
	report := ReportRequest{LeaseID: lease.LeaseID, WorkerID: reg.WorkerID, Key: job.KeyHex,
		Result: result, Trace: oldWorkerTrace()}
	if raw, _ := json.Marshal(report); len(raw) >= 1<<20 {
		t.Fatalf("an old worker's largest report is %d bytes, over the 1 MiB limit", len(raw))
	}
	if code := postWorker(t, f.srv.URL, "/v1/workers/report", report, nil); code != http.StatusOK {
		t.Fatalf("report with an old-style trace: %d, want 200", code)
	}
	if stored, ok := f.d.Store().Get(job.Key()); !ok || !bytes.Equal(stored, result) {
		t.Fatal("the report's result was not stored")
	}
	stamped, ok := f.d.ring.Get(job.KeyHex)
	if !ok || !stamped.Done() {
		t.Fatalf("job timeline %+v, want done", stamped)
	}
	var evs []testTraceEvent
	if code := getJSON(t, f.srv.URL+"/v1/jobs/"+job.KeyHex+"/trace", &evs); code != http.StatusOK {
		t.Fatalf("job trace status %d", code)
	}
	var lane []testTraceEvent
	for _, ev := range evs {
		if ev.PID == 2 {
			lane = append(lane, ev)
		}
	}
	if len(lane) == 0 || lane[0].Args["name"] != "flagworkd old" {
		t.Fatalf("job trace has no engine lane named for its worker: %+v", lane)
	}
	if want := engineLane(t, job, stamped.Leased.Sub(stamped.Enqueued)); !reflect.DeepEqual(lane[1:], want) {
		t.Fatalf("engine lane has %d events, want RunOnce's %d: the old trace was not ignored", len(lane)-1, len(want))
	}
}

// oldWorkerStats is the stats snapshot older workers piggybacked on
// lease and renew calls, with their local disk tier's hit count.
const oldWorkerStats = `{"jobs_executed":2,"jobs_failed":0,"leases_lost":0,"tier_hits":3}`

// oldWorkerLease is an older worker's lease call.
func oldWorkerLease(workerID string) json.RawMessage {
	return json.RawMessage(`{"worker_id":"` + workerID + `","ttl_ms":1000,"stats":` + oldWorkerStats + `}`)
}

// TestDispatcherAcceptsOldWorkerFields: an older worker's register
// carrying "slots", and its lease and renew whose stats carry
// "tier_hits", are answered 200. Neither field reaches /metrics: the
// worker has a federated row, but no tier-hit or slots series.
func TestDispatcherAcceptsOldWorkerFields(t *testing.T) {
	f := startFleet(t, t.TempDir())
	defer f.stop(t)
	var reg RegisterResponse
	register := json.RawMessage(`{"name":"old","slots":4}`)
	if code := postWorker(t, f.srv.URL, "/v1/workers/register", register, &reg); code != http.StatusOK {
		t.Fatalf("register with slots: %d, want 200", code)
	}
	if _, _, err := f.d.EnqueueJobs([]Job{testJob(t, 56)}); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	if code := postWorker(t, f.srv.URL, "/v1/workers/lease", oldWorkerLease(reg.WorkerID), &lease); code != http.StatusOK {
		t.Fatalf("lease with tier_hits: %d, want 200", code)
	}
	renew := json.RawMessage(`{"lease_id":"` + lease.LeaseID + `","ttl_ms":1000,"stats":` + oldWorkerStats + `}`)
	if code := postWorker(t, f.srv.URL, "/v1/workers/renew", renew, nil); code != http.StatusOK {
		t.Fatalf("renew with tier_hits: %d, want 200", code)
	}
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, `flagsim_dist_worker_jobs_executed{worker="old"} 2`) {
		t.Fatalf("no federated row for the old worker:\n%s", text)
	}
	for _, family := range []string{"flagsim_dist_worker_tier", "flagsim_dist_worker_slots"} {
		if strings.Contains(text, family) {
			t.Errorf("/metrics shows %s:\n%s", family, text)
		}
	}
}
