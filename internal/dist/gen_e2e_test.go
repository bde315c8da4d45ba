package dist

// Generated flags through the fabric with zero dist changes: sweep keys
// content-address generated names, so the journal dedupes, workers
// resolve the names locally, and the result tier serves warm resubmits
// — all proven byte-identical to a single-process run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"flagsim/internal/flaggen"
	"flagsim/internal/wire"
)

func genSweepRequest() wire.SweepRequest {
	flags := make([]string, 4)
	for v := range flags {
		flags[v] = flaggen.Name(42, uint64(v))
	}
	return wire.SweepRequest{
		Base:      wire.RunRequest{Flag: flags[0], Seed: 3},
		Flags:     flags,
		Scenarios: []int{2, 4},
	}
}

// TestFleetGeneratedFlagSweep pins the tentpole's distribution claim: a
// sweep over procedurally generated flags runs through flagdispd + two
// in-process workers byte-identical to local RunOnce, and a warm
// resubmit computes nothing.
func TestFleetGeneratedFlagSweep(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()

	sreq := genSweepRequest()
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
		if row.Err != "" {
			t.Fatalf("row %d (%s) failed: %s", i, row.Spec, row.Err)
		}
		if !strings.Contains(row.Spec, "gen:v1:42:") {
			t.Fatalf("row %d spec %q does not name a generated flag", i, row.Spec)
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

	// Warm resubmit: all tier hits, zero computes.
	warm := postSweep(t, f.srv.URL, sreq)
	if warm.Computed != 0 || warm.Warm != len(jobs) || warm.Failed != 0 {
		t.Fatalf("warm sweep: %+v", warm)
	}
	for i, row := range warm.Runs {
		if !row.CacheHit {
			t.Fatalf("warm row %d not a cache hit", i)
		}
	}
}

// TestFleetRejectsMalformedGenRef pins the wire contract at the
// dispatcher's front door: malformed generated-flag refs are rejected
// as client errors (400, the same class as an unknown builtin name and
// the same status flagsimd gives) — never accepted into the journal,
// never a 500.
func TestFleetRejectsMalformedGenRef(t *testing.T) {
	f := startFleet(t, t.TempDir())
	defer f.stop(t)

	for _, flag := range []string{"gen:v1:bogus:0", "gen:v1:042:7", "gen:v3:1:1"} {
		body := fmt.Sprintf(`{"flag":%q,"seed":1}`, flag)
		resp, err := http.Post(f.srv.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("flag %q: status %d, want 400", flag, resp.StatusCode)
		}
	}
}
