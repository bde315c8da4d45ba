package dist

// Row summaries and purged results: a warm sweep reads each stored
// result's three row fields from a summary decoded once, strictly, from
// the verified payload; a result that verify-on-read purged is computed
// again instead of failing its run or row on every retry.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flagsim/internal/wire"
)

// corruptResult flips one payload byte of key's results/<hex> file, as a
// bad disk block would. The file keeps its framing, so only the checksum
// check on the next verified read catches it.
func corruptResult(t *testing.T, dir string, key Key) {
	t.Helper()
	path := filepath.Join(dir, storeDirName, hex.EncodeToString(key[:]))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-sha256.Size-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

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
// every result now exists only on disk, and no row summary is cached.
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
// restarted dispatcher, so the summaries are filled while others read
// them; run it under -race.
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

// TestUndecodableStoredResult: a correctly framed and checksummed payload
// that is not a wire.SimResult fails its row with a decode error, on
// every sweep — never a row of zeros, and never a recompute (the store
// does hold a verified result for the key).
func TestUndecodableStoredResult(t *testing.T) {
	f := startFleet(t, t.TempDir())
	defer f.stop(t)
	for i, payload := range []string{`not json`, `{"x":1}`} {
		req := wire.RunRequest{Flag: "mauritius", Scenario: 1, Seed: uint64(100 + i)}
		job, err := NewJob(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.d.Store().Put(job.Key(), []byte(payload)); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			resp := postSweep(t, f.srv.URL, wire.SweepRequest{Base: req})
			row := resp.Runs[0]
			if resp.Warm != 1 || resp.Computed != 0 || resp.Failed != 1 || !row.CacheHit ||
				!strings.HasPrefix(row.Err, "dist: stored result undecodable: ") {
				t.Fatalf("payload %q pass %d: %+v", payload, pass, resp)
			}
			if row.MakespanNS != 0 || row.Events != 0 || row.GridSHA256 != "" {
				t.Fatalf("payload %q pass %d: failed row carries fields: %+v", payload, pass, row)
			}
		}
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
// the row's summary was just decoded (the first pass after a restart)
// or cached.
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
// result file is damaged. Verify-on-read purges it; /v1/run must then
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
	corruptResult(t, dir, spec.Key())
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
	corruptResult(t, dir, jobs[purged].Key())
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
