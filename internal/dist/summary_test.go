package dist

// Row summaries and purged results: a warm sweep reads each stored
// result's three row fields from the store's entry, decoded once,
// strictly, from the verified payload; a result that verify-on-read
// purged is computed again instead of failing its run or row on every
// retry.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flagsim/internal/wire"
)

// trySweep posts one sweep and decodes the reply without touching t, so
// test goroutines can call it.
func trySweep(url string, body []byte) (SweepFleetResponse, error) {
	var out SweepFleetResponse
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("sweep status %d: %s", resp.StatusCode, raw)
	}
	return out, json.Unmarshal(raw, &out)
}

// postRun posts one run and returns the decoded reply (on 200), the
// status and the raw body.
func postRun(t *testing.T, url string, req wire.RunRequest) (RunFleetResponse, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out RunFleetResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode, string(raw)
}

// sameRows reports the first row of got whose spec or summary fields
// differ from want's.
func sameRows(got, want []wire.SweepRunRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Spec != w.Spec || g.MakespanNS != w.MakespanNS || g.Events != w.Events ||
			g.GridSHA256 != w.GridSHA256 || g.Err != w.Err {
			return fmt.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// coldThenRestart runs sreq cold through a two-worker fleet rooted at
// dir, then restarts the dispatcher from dir with no workers attached:
// every result now exists only on disk, and no entry is decoded yet.
func coldThenRestart(t *testing.T, dir string, sreq wire.SweepRequest) (*testFleet, SweepFleetResponse) {
	t.Helper()
	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 2, nil)
	cold := postSweep(t, f.srv.URL, sreq)
	stopWorkers()
	f.stop(t)
	if cold.Failed != 0 || cold.Warm != 0 || cold.Computed == 0 {
		t.Fatalf("cold sweep: %+v", cold)
	}
	return startFleet(t, dir), cold
}

// TestWarmSweepAfterRestart: with every result only on disk, a warm
// sweep reads each one through the verified store and answers the cold
// sweep's rows without fleet work.
func TestWarmSweepAfterRestart(t *testing.T) {
	sreq := e2eSweepRequest()
	f, cold := coldThenRestart(t, t.TempDir(), sreq)
	defer f.stop(t)
	for pass := 0; pass < 2; pass++ {
		warm := postSweep(t, f.srv.URL, sreq)
		if warm.Warm != warm.Count || warm.Computed != 0 || warm.Deduped != 0 || warm.Failed != 0 {
			t.Fatalf("pass %d warm sweep: %+v", pass, warm)
		}
		if err := sameRows(warm.Runs, cold.Runs); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, row := range warm.Runs {
			if !row.CacheHit {
				t.Fatalf("pass %d row %d not a cache hit", pass, i)
			}
		}
	}
}

// TestWarmSweepsConcurrent runs warm sweeps from 8 goroutines against a
// restarted dispatcher, so the store's entries are decoded while others
// read them; run it under -race.
func TestWarmSweepsConcurrent(t *testing.T) {
	sreq := e2eSweepRequest()
	f, cold := coldThenRestart(t, t.TempDir(), sreq)
	defer f.stop(t)
	body, err := json.Marshal(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				warm, err := trySweep(f.srv.URL, body)
				if err != nil {
					t.Error(err)
					return
				}
				if warm.Warm != warm.Count || warm.Computed != 0 || warm.Failed != 0 {
					t.Errorf("warm sweep: %+v", warm)
					return
				}
				if err := sameRows(warm.Runs, cold.Runs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUndecodableStoredResult: a framed, checksummed result frame whose
// payload is not a wire.SimResult is corrupt, like one with a bad
// checksum. /v1/sweep and /v1/run each purge it, count it in Corrupt
// and recompute the single-process bytes; the next request is warm.
func TestUndecodableStoredResult(t *testing.T) {
	for i, payload := range []string{`not json`, `{"x":1}`} {
		for _, path := range []string{"/v1/sweep", "/v1/run"} {
			req := wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: uint64(100 + i)}
			spec, err := req.Spec()
			if err != nil {
				t.Fatal(err)
			}
			res, err := spec.RunOnce(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wire.MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			appendFrame(t, filepath.Join(dir, storeDirName), spec.Key(), []byte(payload))
			f := startFleet(t, dir)
			stopWorkers := startWorkers(t, f, 1, nil)
			for pass := 0; pass < 2; pass++ {
				warm := pass == 1
				if path == "/v1/run" {
					out, code, body := postRun(t, f.srv.URL, req)
					if code != http.StatusOK || out.Warm != warm || !bytes.Equal(out.Result, want) {
						t.Fatalf("%q %s pass %d: %d %s, want the single-process bytes %s",
							payload, path, pass, code, body, want)
					}
					continue
				}
				resp := postSweep(t, f.srv.URL, wire.SweepRequest{Base: req})
				row, local := resp.Runs[0], wire.NewSimResult(res)
				if resp.Failed != 0 || resp.Computed != 1-pass || row.CacheHit != warm ||
					row.MakespanNS != local.MakespanNS || row.Events != local.Events ||
					row.GridSHA256 != local.GridSHA256 {
					t.Fatalf("%q %s pass %d: %+v", payload, path, pass, resp)
				}
			}
			if stored, ok := f.d.Store().Get(spec.Key()); !ok || !bytes.Equal(stored, want) {
				t.Fatalf("%q %s: stored %q, want the single-process bytes", payload, path, stored)
			}
			if st := f.d.Store().Stats(); st.Corrupt != 1 || st.Mismatches != 0 {
				t.Fatalf("%q %s: store %+v, want 1 corrupt entry and no mismatch", payload, path, st)
			}
			stopWorkers()
			f.stop(t)
		}
	}
}

// postWorker posts one worker-protocol call and decodes a 200 reply into
// out (when non-nil), returning the status.
func postWorker(t *testing.T, url, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestLateReportAfterJournalDropsJob: a late report whose bytes differ
// from the stored result, arriving after the completed job has left the
// journal (two restarts), still reaches first-write-wins: it is answered
// 200, counted as a determinism mismatch, and the first result stays.
func TestLateReportAfterJournalDropsJob(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, 77)
	first, late := testResult(1), testResult(2)
	f := startFleet(t, dir)
	var reg RegisterResponse
	if code := postWorker(t, f.srv.URL, "/v1/workers/register", RegisterRequest{Name: "w"}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	if _, _, err := f.d.EnqueueJobs([]Job{job}); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	if code := postWorker(t, f.srv.URL, "/v1/workers/lease", LeaseRequest{WorkerID: reg.WorkerID}, &lease); code != http.StatusOK {
		t.Fatalf("lease: %d", code)
	}
	report := ReportRequest{LeaseID: lease.LeaseID, WorkerID: reg.WorkerID, Key: job.KeyHex, Result: first}
	if code := postWorker(t, f.srv.URL, "/v1/workers/report", report, nil); code != http.StatusOK {
		t.Fatalf("first report: %d", code)
	}
	for restart := 0; restart < 2; restart++ {
		f.stop(t)
		f = startFleet(t, dir)
	}
	defer f.stop(t)
	report.Result = late
	if code := postWorker(t, f.srv.URL, "/v1/workers/report", report, nil); code != http.StatusOK {
		t.Fatalf("late report after two restarts: %d, want 200", code)
	}
	if st := f.d.Store().Stats(); st.Mismatches != 1 {
		t.Fatalf("store %+v, want the late report counted as one mismatch", st)
	}
	if stored, ok := f.d.Store().Get(job.Key()); !ok || !bytes.Equal(stored, first) {
		t.Fatalf("stored %q, want the first result %q", stored, first)
	}
}

// tierHits scrapes flagsim_dist_result_tier_hits_total.
func tierHits(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "flagsim_dist_result_tier_hits_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no flagsim_dist_result_tier_hits_total in /metrics")
	return 0
}

// TestTierHitsCountWarmRows: the tier-hit counter rises by one per row
// served from the tier, duplicates within a request included, whether
// the row's entry was just decoded (the first pass after a restart) or
// already held.
func TestTierHitsCountWarmRows(t *testing.T) {
	sreq := e2eSweepRequest()
	sreq.Seeds = []uint64{3, 5, 3} // 18 rows over 12 keys
	f, cold := coldThenRestart(t, t.TempDir(), sreq)
	defer f.stop(t)
	if cold.Computed != 12 {
		t.Fatalf("cold sweep: %+v", cold)
	}
	for pass := 0; pass < 3; pass++ {
		before := tierHits(t, f.srv.URL)
		warm := postSweep(t, f.srv.URL, sreq)
		rows := 0
		for _, row := range warm.Runs {
			if row.CacheHit {
				rows++
			}
		}
		if rows != 18 || warm.Warm != 12 || warm.Failed != 0 {
			t.Fatalf("pass %d warm sweep: %+v", pass, warm)
		}
		if got := tierHits(t, f.srv.URL) - before; got != float64(rows) {
			t.Fatalf("pass %d: tier hits rose by %v, want %d", pass, got, rows)
		}
	}
}

// TestPurgedResultRecomputedByRun: after a restart, a completed job's
// result frame is damaged. Verify-on-read purges it; /v1/run must then
// recompute the job and answer the single-process bytes, not fail.
func TestPurgedResultRecomputedByRun(t *testing.T) {
	dir := t.TempDir()
	req := wire.RunRequest{Flag: "mauritius", Scenario: 3, Seed: 21}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}

	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 1, nil)
	if out, code, body := postRun(t, f.srv.URL, req); code != http.StatusOK || out.Warm {
		t.Fatalf("cold run: %d %s", code, body)
	}
	stopWorkers()
	f.stop(t)

	f = startFleet(t, dir)
	stopWorkers = startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()
	corruptFrame(t, filepath.Join(dir, storeDirName), spec.Key(), payloadByte)
	for pass := 0; pass < 2; pass++ {
		out, code, body := postRun(t, f.srv.URL, req)
		if code != http.StatusOK {
			t.Fatalf("pass %d: run after purge: %d %s", pass, code, body)
		}
		if !bytes.Equal(out.Result, want) {
			t.Fatalf("pass %d: recomputed bytes differ from single-process bytes:\n fleet %s\n local %s",
				pass, out.Result, want)
		}
		if out.Warm != (pass == 1) {
			t.Fatalf("pass %d: warm = %v", pass, out.Warm)
		}
	}
}

// TestPurgedResultRecomputedBySweep: the sweep flavour of the purge. The
// damaged key must be found by the warm decision itself, recomputed in
// the same request, and answered byte-identically.
func TestPurgedResultRecomputedBySweep(t *testing.T) {
	dir := t.TempDir()
	sreq := e2eSweepRequest()
	jobs, want := localCanonical(t, sreq)

	f := startFleet(t, dir)
	stopWorkers := startWorkers(t, f, 2, nil)
	cold := postSweep(t, f.srv.URL, sreq)
	stopWorkers()
	f.stop(t)
	if cold.Failed != 0 || cold.Computed != len(jobs) {
		t.Fatalf("cold sweep: %+v", cold)
	}

	f = startFleet(t, dir)
	stopWorkers = startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()
	purged := 2
	corruptFrame(t, filepath.Join(dir, storeDirName), jobs[purged].Key(), payloadByte)
	first := postSweep(t, f.srv.URL, sreq)
	if first.Failed != 0 || first.Computed != 1 || first.Warm != len(jobs)-1 {
		t.Fatalf("first sweep after purge: %+v", first)
	}
	if err := sameRows(first.Runs, cold.Runs); err != nil {
		t.Fatal(err)
	}
	for i, row := range first.Runs {
		if row.CacheHit != (i != purged) {
			t.Fatalf("row %d cache_hit = %v", i, row.CacheHit)
		}
	}
	if stored, ok := f.d.Store().Get(jobs[purged].Key()); !ok || !bytes.Equal(stored, want[jobs[purged].Key()]) {
		t.Fatalf("recomputed result not stored byte-identically: %s", stored)
	}
	second := postSweep(t, f.srv.URL, sreq)
	if second.Failed != 0 || second.Computed != 0 || second.Warm != len(jobs) {
		t.Fatalf("second sweep after purge: %+v", second)
	}
}
