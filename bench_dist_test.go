package flagsim_test

// Dispatcher benchmarks, gated by benchguard. The report path is the
// dispatcher's hot loop for cold work — every executed job in the fleet
// funnels through it, with the tracing plane's bookkeeping (timeline
// ring updates, four phase-histogram observations, run-ID handling). A
// warm sweep is its hot loop for repeated work: rows answered from the
// result store with no fleet work at all. Both run over a real listener
// so a regression shows up as serving overhead against the recorded
// baseline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/wire"
)

// BenchmarkDispatcherReport times one job-completion report end to end:
// HTTP round trip, strict decode, lease completion, result store write,
// timeline stamping, and phase-histogram observation. Traces are not
// attached — the bench pins the per-report floor every job pays, not
// the optional span payload.
func BenchmarkDispatcherReport(b *testing.B) {
	d, err := dist.NewDispatcher(dist.DispatcherConfig{
		DataDir: b.TempDir(),
		// Leases must outlive the whole timed loop: nothing pumps
		// ExpireLeases here, and an expired lease would 410 the report.
		LeaseTTL:    time.Hour,
		JobRingSize: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	post := func(path string, body []byte) []byte {
		b.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s status %d: %s", path, resp.StatusCode, raw)
		}
		return raw
	}

	var reg dist.RegisterResponse
	if err := json.Unmarshal(post("/v1/workers/register",
		[]byte(`{"name":"bench-worker"}`)), &reg); err != nil {
		b.Fatal(err)
	}

	// b.N distinct jobs, all leased up front so the timed loop is pure
	// report traffic. One canonical result blob is reused for every key:
	// the store indexes by key without recomputing, so the bytes only
	// need to be a valid marshaled result.
	jobs := make([]dist.Job, b.N)
	for i := range jobs {
		j, err := dist.NewJob(wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = j
	}
	if _, _, err := d.EnqueueJobs(jobs); err != nil {
		b.Fatal(err)
	}
	spec, err := jobs[0].Req.Spec()
	if err != nil {
		b.Fatal(err)
	}
	res, err := spec.RunOnce(nil)
	if err != nil {
		b.Fatal(err)
	}
	resultJSON, err := wire.MarshalResult(res)
	if err != nil {
		b.Fatal(err)
	}

	leaseBody := []byte(fmt.Sprintf(`{"worker_id":%q}`, reg.WorkerID))
	reports := make([][]byte, b.N)
	for i := 0; i < b.N; i++ {
		var lease dist.LeaseResponse
		if err := json.Unmarshal(post("/v1/workers/lease", leaseBody), &lease); err != nil {
			b.Fatal(err)
		}
		reports[i], err = json.Marshal(dist.ReportRequest{
			LeaseID:   lease.LeaseID,
			WorkerID:  reg.WorkerID,
			Key:       lease.Job.KeyHex,
			RunID:     lease.RunID,
			ElapsedNS: int64(time.Millisecond),
			Result:    resultJSON,
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/v1/workers/report", reports[i])
	}
}

// BenchmarkDispatcherSweepWarm times one warm fleet sweep over HTTP: one
// builtin flag under 3 executors × scenarios 1–4 × 2 seeds, the shape of
// a fleet-warm request, with all 24 results already in the store. An op
// is decode, 24 content keys, one row-summary lookup per key and the
// encode; ns/row is the per-row cost a warm re-submission pays.
func BenchmarkDispatcherSweepWarm(b *testing.B) {
	d, err := dist.NewDispatcher(dist.DispatcherConfig{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sreq := wire.SweepRequest{
		Base:      wire.RunRequest{Flag: "mauritius"},
		Execs:     []string{"static", "steal", "dynamic"},
		Scenarios: []int{1, 2, 3, 4},
		Seeds:     []uint64{1, 2},
	}
	_, specs, err := sreq.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range specs {
		res, err := spec.RunOnce(nil)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := wire.MarshalResult(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Store().Put(spec.Key(), raw); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	body, err := json.Marshal(sreq)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() []byte {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}
	var first dist.SweepFleetResponse
	if err := json.Unmarshal(sweep(), &first); err != nil {
		b.Fatal(err)
	}
	if first.Count != len(specs) || first.Computed != 0 || first.Failed != 0 {
		b.Fatalf("warm sweep: count %d computed %d failed %d, want %d/0/0",
			first.Count, first.Computed, first.Failed, len(specs))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/row")
}
