package dist

// In-process end-to-end tests for the fabric: a real Dispatcher behind
// httptest, real Workers talking HTTP, real durable state on disk. These
// pin the headline claims — fleet results byte-identical to a
// single-process run, kill -9'd workers lose nothing, dispatcher
// restarts recover the batch, and a warm fleet recomputes nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flagsim/internal/wire"
)

// testFleet is one dispatcher plus its expiry pump and HTTP front.
type testFleet struct {
	d   *Dispatcher
	srv *httptest.Server

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(t *testing.T, dir string) *testFleet {
	t.Helper()
	d, err := NewDispatcher(DispatcherConfig{DataDir: dir, LeaseTTL: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{d: d, srv: httptest.NewServer(d.Handler())}
	// Serve() would run this pump; with a bare Handler the test does.
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				d.Queue().ExpireLeases()
			}
		}
	}()
	return f
}

func (f *testFleet) stop(t *testing.T) {
	t.Helper()
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	if err := f.d.Close(); err != nil {
		t.Error(err)
	}
}

// startWorkers runs n workers against the fleet; the returned stop
// cancels and joins them (call before f.stop).
func startWorkers(t *testing.T, f *testFleet, n int, hook func(Job) bool) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Dispatcher:   f.srv.URL,
			Name:         "e2e-worker",
			LeaseTTL:     300 * time.Millisecond,
			PollInterval: 10 * time.Millisecond,
			Client:       &http.Client{Timeout: 5 * time.Second},
		})
		w.testHookBeforeReport = hook
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() { cancel(); wg.Wait() }
}

func e2eSweepRequest() wire.SweepRequest {
	return wire.SweepRequest{
		Base:      wire.RunRequest{Flag: "mauritius", Seed: 3},
		Scenarios: []int{1, 2, 3},
		PerColor:  []int{1, 2},
	}
}

// localCanonical runs every cell of the sweep in-process and returns the
// canonical wire bytes per job key — the ground truth the fleet must hit
// byte for byte.
func localCanonical(t *testing.T, sreq wire.SweepRequest) (jobs []Job, want map[Key][]byte) {
	t.Helper()
	reqs, err := sreq.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want = make(map[Key][]byte, len(reqs))
	for _, req := range reqs {
		job, err := NewJob(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := wire.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		want[job.Key()] = raw
	}
	return jobs, want
}

func postSweep(t *testing.T, url string, sreq wire.SweepRequest) SweepFleetResponse {
	t.Helper()
	out, err := sendSweep(context.Background(), url, sreq)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sendSweep is postSweep for any goroutine: it returns what fails, and
// ctx ends the request.
func sendSweep(ctx context.Context, url string, sreq wire.SweepRequest) (SweepFleetResponse, error) {
	var out SweepFleetResponse
	body, err := json.Marshal(sreq)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("sweep status %d", resp.StatusCode)
	}
	return out, nil
}

// TestFleetSweepMatchesLocal is the core determinism claim: a sweep
// through the fleet produces byte-identical canonical results to running
// the same specs in one process, and a warm resubmit is served entirely
// from the result tier with zero fleet work.
func TestFleetSweepMatchesLocal(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()

	sreq := e2eSweepRequest()
	jobs, want := localCanonical(t, sreq)

	resp := postSweep(t, f.srv.URL, sreq)
	if resp.Count != len(jobs) || len(resp.Runs) != len(jobs) {
		t.Fatalf("count %d / %d rows, want %d", resp.Count, len(resp.Runs), len(jobs))
	}
	if resp.Failed != 0 || resp.Computed != len(jobs) || resp.Warm != 0 {
		t.Fatalf("cold sweep: %+v", resp)
	}
	for i, job := range jobs {
		row := resp.Runs[i]
		if row.Spec != job.Label() {
			t.Fatalf("row %d spec %q, want %q (expansion order drifted)", i, row.Spec, job.Label())
		}
		if row.Err != "" {
			t.Fatalf("row %d failed: %s", i, row.Err)
		}
		stored, ok := f.d.Store().Get(job.Key())
		if !ok {
			t.Fatalf("row %d has no stored result", i)
		}
		if !bytes.Equal(stored, want[job.Key()]) {
			t.Fatalf("row %d: fleet bytes differ from single-process bytes:\n fleet %s\n local %s",
				i, stored, want[job.Key()])
		}
		var local wire.SimResult
		if err := json.Unmarshal(want[job.Key()], &local); err != nil {
			t.Fatal(err)
		}
		if row.MakespanNS != local.MakespanNS || row.Events != local.Events || row.GridSHA256 != local.GridSHA256 {
			t.Fatalf("row %d summary fields drifted from local run", i)
		}
	}

	// Warm resubmit: every row a tier hit, zero new fleet work.
	dispatchedBefore := f.d.Queue().Stats().Dispatched
	warm := postSweep(t, f.srv.URL, sreq)
	if warm.Computed != 0 || warm.Warm != len(jobs) || warm.Failed != 0 {
		t.Fatalf("warm sweep: %+v", warm)
	}
	for i, row := range warm.Runs {
		if !row.CacheHit {
			t.Fatalf("warm row %d not a cache hit", i)
		}
		var local wire.SimResult
		if err := json.Unmarshal(want[jobs[i].Key()], &local); err != nil {
			t.Fatal(err)
		}
		if row.MakespanNS != local.MakespanNS || row.GridSHA256 != local.GridSHA256 {
			t.Fatalf("warm row %d drifted", i)
		}
	}
	if after := f.d.Queue().Stats().Dispatched; after != dispatchedBefore {
		t.Fatalf("warm resubmit dispatched fleet work: %d -> %d", dispatchedBefore, after)
	}
}

// TestFleetWorkerKilledMidLease simulates kill -9 between compute and
// report: the first execution is silently abandoned, the lease expires,
// the job requeues, and the final result is still byte-identical.
func TestFleetWorkerKilledMidLease(t *testing.T) {
	f := startFleet(t, t.TempDir())
	var killed atomic.Bool
	hook := func(Job) bool {
		// First report across the fleet is swallowed — that worker "died".
		return !killed.CompareAndSwap(false, true)
	}
	stopWorkers := startWorkers(t, f, 2, hook)
	defer f.stop(t)
	defer stopWorkers()

	req := wire.RunRequest{Flag: "mauritius", Scenario: 2, Seed: 11}
	job, err := NewJob(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := req.Spec()
	res, err := spec.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := wire.MarshalResult(res)

	body, _ := json.Marshal(req)
	resp, err := http.Post(f.srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
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
	if !bytes.Equal(out.Result, want) {
		t.Fatalf("post-kill result differs from single-process bytes:\n fleet %s\n local %s", out.Result, want)
	}
	if !killed.Load() {
		t.Fatal("kill hook never fired")
	}
	qs := f.d.Queue().Stats()
	if qs.Expired < 1 {
		t.Fatalf("no lease expired despite the kill: %+v", qs)
	}
	if _, ok := f.d.Store().Get(job.Key()); !ok {
		t.Fatal("result not in the store after recovery")
	}
}

// TestFleetDispatcherRestartMidBatch crashes the dispatcher with an
// accepted, partially-leased batch on disk, restarts from the same data
// dir, and verifies the batch completes byte-identically.
func TestFleetDispatcherRestartMidBatch(t *testing.T) {
	dir := t.TempDir()
	sreq := e2eSweepRequest()
	jobs, want := localCanonical(t, sreq)

	// First dispatcher: accept the batch, lease one job to a worker that
	// will never report, then "crash" (Close flushes nothing extra — the
	// journal was fsynced at enqueue time).
	d1, err := NewDispatcher(DispatcherConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d1.Queue().Enqueue(jobs); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d1.Queue().Lease("doomed-worker", time.Minute); !ok {
		t.Fatal("lease failed")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted dispatcher: every job recovered as pending (the lease was
	// volatile), and the batch drains to the same bytes.
	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()
	if got := f.d.Queue().Stats().Recovered; got != int64(len(jobs)) {
		t.Fatalf("recovered %d jobs, want %d", got, len(jobs))
	}

	resp := postSweep(t, f.srv.URL, sreq)
	if resp.Failed != 0 {
		t.Fatalf("restarted batch had failures: %+v", resp)
	}
	// The resubmitted sweep's jobs dedupe onto the recovered ones.
	if resp.Computed != 0 || resp.Deduped != len(jobs) {
		t.Fatalf("recovered batch not deduped: %+v", resp)
	}
	for i, job := range jobs {
		stored, ok := f.d.Store().Get(job.Key())
		if !ok {
			t.Fatalf("job %d missing from store after restart", i)
		}
		if !bytes.Equal(stored, want[job.Key()]) {
			t.Fatalf("job %d: post-restart bytes differ from single-process bytes", i)
		}
	}
}
