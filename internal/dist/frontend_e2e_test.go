package dist

// One front end, two backends: the same request table goes to an
// in-process flagsimd (local backend) and an in-process flagdispd with a
// worker (fleet backend). Every row must get the same status and the
// same deterministic signature — the result section, the sweep rows, or
// the whole error body — from both daemons.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"flagsim/internal/obs"
	"flagsim/internal/server"
	"flagsim/internal/workload"
)

// exchange sends one request and returns it as a workload record (the
// shape ResultSignature reads) plus the response headers.
func exchange(t *testing.T, base, method, path, body, runID string) (workload.Record, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if runID != "" {
		req.Header.Set("X-Run-ID", runID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Record{Status: resp.StatusCode, Method: method, Path: path,
		Body: []byte(body), Resp: raw}, resp.Header
}

// axis renders the integers 1..n as a JSON array body.
func axis(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	return "[" + strings.Join(vals, ",") + "]"
}

func TestFrontendSameAnswersFromBothBackends(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()
	simd := httptest.NewServer(server.New(server.Config{}).Handler())
	defer simd.Close()

	const clientID = "0123456789abcdef"
	overCap := `{"base":{"flag":"mauritius"},"seeds":` + axis(100) + `,"per_color":` + axis(50) + `}`
	post, get := http.MethodPost, http.MethodGet
	for _, row := range []struct {
		name, method, path, body, runID string
		want                            int
	}{
		{"builtin run", post, "/v1/run", `{"flag":"mauritius","scenario":2,"seed":3}`, "", 200},
		{"faulted run", post, "/v1/run", `{"scenario":4,"pipelined":true,"seed":7,"faults":{"preset":"heavy","seed":3}}`, "", 200},
		{"generated run", post, "/v1/run", `{"flag":"gen:v1:42:1","scenario":2,"seed":3}`, "", 200},
		{"builtin sweep", post, "/v1/sweep", `{"base":{"flag":"mauritius","seed":3},"scenarios":[1,2],"per_color":[1,2]}`, "", 200},
		{"generated sweep", post, "/v1/sweep", `{"base":{"seed":3},"flags":["gen:v1:42:0","gen:v1:42:2"],"scenarios":[2,4]}`, "", 200},
		{"not JSON", post, "/v1/run", `not json`, "", 400},
		{"unknown field", post, "/v1/run", `{"bogus_field":1}`, "", 400},
		{"trailing document", post, "/v1/run", `{"flag":"mauritius"}{"seed":1}`, "", 400},
		{"trailing brace", post, "/v1/run", `{"flag":"mauritius"}}`, "", 400},
		{"unknown exec", post, "/v1/run", `{"exec":"quantum"}`, "", 400},
		{"unknown flag", post, "/v1/run", `{"flag":"atlantis"}`, "", 400},
		{"malformed gen ref", post, "/v1/run", `{"flag":"gen:v1:bogus:0","seed":1}`, "", 400},
		{"scenario 9", post, "/v1/run", `{"scenario":9}`, "", 400},
		{"pipelined on scenario 2", post, "/v1/run", `{"scenario":2,"pipelined":true}`, "", 400},
		{"sweep trailing document", post, "/v1/sweep", `{"base":{}}{"seeds":[1]}`, "", 400},
		{"sweep unknown flag", post, "/v1/sweep", `{"base":{},"flags":["mauritius","atlantis"]}`, "", 400},
		{"grid over the cap", post, "/v1/sweep", overCap, "", 400},
		{"run at the size limit", post, "/v1/run", `{"w":1024,"h":4,"seed":1}`, "", 200},
		{"billion-cell sides", post, "/v1/run", `{"w":1000000000,"h":1000000000}`, "", 400},
		{"width over the limit", post, "/v1/run", `{"w":1025,"h":4}`, "", 400},
		{"height over the limit", post, "/v1/run", `{"w":4,"h":1025}`, "", 400},
		{"workers over the limit", post, "/v1/run", `{"exec":"dynamic","workers":1025}`, "", 400},
		{"per_color over the limit", post, "/v1/run", `{"per_color":1000000000}`, "", 400},
		{"sweep base over the limit", post, "/v1/sweep", `{"base":{"w":2048},"seeds":[1,2]}`, "", 400},
		{"sweep per_color axis over the limit", post, "/v1/sweep", `{"base":{},"per_color":[1,2,1025]}`, "", 400},
		{"sweep workers axis over the limit", post, "/v1/sweep", `{"base":{"exec":"dynamic"},"workers":[2,4096]}`, "", 400},
		{"GET run", get, "/v1/run", "", "", 405},
		{"GET sweep", get, "/v1/sweep", "", "", 405},
		{"negative jitter", post, "/v1/run", `{"jitter":-1}`, "", 422},
		{"zero skill", post, "/v1/run", `{"skills":[0]}`, "", 422},
		{"client run ID", post, "/v1/run", `{"flag":"france","seed":5}`, clientID, 200},
	} {
		t.Run(row.name, func(t *testing.T) {
			var sigs [2][]byte
			for i, base := range []string{simd.URL, f.srv.URL} {
				rec, hdr := exchange(t, base, row.method, row.path, row.body, row.runID)
				if rec.Status != row.want {
					t.Fatalf("daemon %d: status %d, want %d: %s", i, rec.Status, row.want, rec.Resp)
				}
				id := hdr.Get("X-Run-ID")
				if row.runID != "" && id != row.runID {
					t.Errorf("daemon %d: X-Run-ID %q, want the client's %q echoed", i, id, row.runID)
				}
				if !obs.ValidRunID(id) {
					t.Errorf("daemon %d: X-Run-ID %q is malformed", i, id)
				}
				sig, err := workload.ResultSignature(&rec)
				if err != nil {
					t.Fatalf("daemon %d: %v", i, err)
				}
				sigs[i] = sig
			}
			if !bytes.Equal(sigs[0], sigs[1]) {
				t.Errorf("signatures differ:\n flagsimd  %s\n flagdispd %s", sigs[0], sigs[1])
			}
		})
	}

	// Traces too: ?trace=chrome (whose signature is the whole trace) and
	// the client run's replayed trace are the same from both daemons once
	// the process_name row, which names the daemon that served them, is
	// dropped.
	body := `{"flag":"mauritius","scenario":2,"seed":3}`
	for _, call := range []struct{ method, path, body string }{
		{post, "/v1/run?trace=chrome", body},
		{get, "/v1/runs/" + clientID + "/trace", ""},
	} {
		var sigs [2][]byte
		for i, base := range []string{simd.URL, f.srv.URL} {
			rec, _ := exchange(t, base, call.method, call.path, call.body, "")
			if rec.Status != http.StatusOK {
				t.Fatalf("daemon %d %s: status %d, want 200: %s", i, call.path, rec.Status, rec.Resp)
			}
			sig := rec.Resp
			if call.method == post {
				var err error
				if sig, err = workload.ResultSignature(&rec); err != nil {
					t.Fatalf("daemon %d %s: %v", i, call.path, err)
				}
			}
			sigs[i] = withoutProcessName(t, sig)
		}
		if !bytes.Equal(sigs[0], sigs[1]) {
			t.Errorf("%s: traces differ:\n flagsimd  %.300s\n flagdispd %.300s", call.path, sigs[0], sigs[1])
		}
	}

	// flagdispd records the envelope too: the client's run is listed in
	// /v1/runs.
	var runs server.RunsResponse
	rec, _ := exchange(t, f.srv.URL, get, "/v1/runs", "", "")
	if rec.Status != http.StatusOK || json.Unmarshal(rec.Resp, &runs) != nil {
		t.Fatalf("flagdispd /v1/runs: status %d: %s", rec.Status, rec.Resp)
	}
	found := false
	for _, sum := range runs.Runs {
		found = found || sum.ID == clientID && sum.Status == http.StatusOK && sum.Spec != ""
	}
	if !found {
		t.Errorf("flagdispd /v1/runs does not list run %s: %s", clientID, rec.Resp)
	}
}

// traceEvents decodes a Chrome trace body into its events, each as the
// bytes the daemon wrote, with its name and phase.
func traceEvents(t *testing.T, raw []byte) (events []json.RawMessage, heads []struct{ Name, Ph string }) {
	t.Helper()
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v: %.200s", err, raw)
	}
	heads = make([]struct{ Name, Ph string }, len(events))
	for i, ev := range events {
		if err := json.Unmarshal(ev, &heads[i]); err != nil {
			t.Fatal(err)
		}
	}
	return events, heads
}

// withoutProcessName drops a Chrome trace's process_name rows: the one
// place where the two daemons' traces of one spec differ, since each
// names the daemon that served it.
func withoutProcessName(t *testing.T, raw []byte) []byte {
	t.Helper()
	events, heads := traceEvents(t, raw)
	var kept []json.RawMessage
	for i, ev := range events {
		if heads[i].Ph != "M" || heads[i].Name != "process_name" {
			kept = append(kept, ev)
		}
	}
	out, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// spanEvents keeps a Chrome trace's "X" events, the engine spans.
func spanEvents(t *testing.T, raw []byte) []byte {
	t.Helper()
	events, heads := traceEvents(t, raw)
	var kept []json.RawMessage
	for i, ev := range events {
		if heads[i].Ph == "X" {
			kept = append(kept, ev)
		}
	}
	if len(kept) == 0 {
		t.Fatalf("trace has no X events: %.200s", raw)
	}
	out, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTracesReplayEquallyOnBothDaemons: a trace is its spec's replay.
// For a builtin, a generated and a faulted spec, each daemon answers
// /v1/runs/{id}/trace for a cold run and for a warm hit of it, and
// ?trace=chrome, with the same X events, and both daemons with the
// same ones.
func TestTracesReplayEquallyOnBothDaemons(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()
	simd := httptest.NewServer(server.New(server.Config{}).Handler())
	defer simd.Close()

	post, get := http.MethodPost, http.MethodGet
	for i, body := range []string{
		`{"flag":"mauritius","scenario":4,"seed":11}`,
		`{"flag":"gen:v1:42:1","scenario":2,"seed":11}`,
		`{"scenario":4,"pipelined":true,"seed":11,"faults":{"preset":"heavy","seed":3}}`,
	} {
		var want []byte
		for d, base := range []string{simd.URL, f.srv.URL} {
			var traces [][]byte
			for warm := 0; warm < 2; warm++ {
				runID := fmt.Sprintf("%016x", 0xa0+2*i+warm)
				rec, _ := exchange(t, base, post, "/v1/run", body, runID)
				var reply struct {
					CacheHit bool `json:"cache_hit"` // flagsimd
					Warm     bool `json:"warm"`      // flagdispd
				}
				if rec.Status != http.StatusOK || json.Unmarshal(rec.Resp, &reply) != nil {
					t.Fatalf("daemon %d %s: status %d: %.200s", d, body, rec.Status, rec.Resp)
				}
				if hit := reply.CacheHit || reply.Warm; hit != (warm == 1) {
					t.Fatalf("daemon %d %s run %d: served warm %v", d, body, warm, hit)
				}
				rec, _ = exchange(t, base, get, "/v1/runs/"+runID+"/trace", "", "")
				if rec.Status != http.StatusOK {
					t.Fatalf("daemon %d %s trace of run %d: status %d: %s", d, body, warm, rec.Status, rec.Resp)
				}
				traces = append(traces, rec.Resp)
			}
			rec, _ := exchange(t, base, post, "/v1/run?trace=chrome", body, "")
			if rec.Status != http.StatusOK {
				t.Fatalf("daemon %d %s ?trace=chrome: status %d: %s", d, body, rec.Status, rec.Resp)
			}
			traces = append(traces, rec.Resp)
			for k, tr := range traces {
				got := spanEvents(t, tr)
				if want == nil {
					want = got
				}
				if !bytes.Equal(got, want) {
					t.Errorf("daemon %d %s: trace %d (cold, warm, ?trace=chrome) has other X events:\n%.300s\n%.300s",
						d, body, k, got, want)
				}
			}
		}
	}
}

// TestRequestLimitsCheckedBeforeRunning: a run or sweep asking for more
// than the request limits allow is refused with 400 naming the limit by
// both daemons, without planning or allocating the run.
func TestRequestLimitsCheckedBeforeRunning(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, row := range []struct{ path, body, limit string }{
		{"/v1/run", `{"w":1000000000,"h":1000000000}`, "w 1000000000 is over the limit 1024"},
		{"/v1/run", `{"w":512,"h":4096}`, "h 4096 is over the limit 1024"},
		{"/v1/run", `{"exec":"dynamic","workers":1000000000}`, "workers 1000000000 is over the limit 1024"},
		{"/v1/run", `{"per_color":1000000000}`, "per_color 1000000000 is over the limit 1024"},
		{"/v1/sweep", `{"base":{},"per_color":[1,1000000000]}`, "per_color 1000000000 is over the limit 1024"},
		{"/v1/sweep", `{"base":{},"workers":[1000000000]}`, "workers 1000000000 is over the limit 1024"},
	} {
		for name, h := range map[string]http.Handler{
			"flagsimd":  server.New(server.Config{}).Handler(),
			"flagdispd": d.Handler(),
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, row.path, strings.NewReader(row.body)))
			runtime.ReadMemStats(&after)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), row.limit) {
				t.Errorf("%s %s: status %d, want 400 naming the limit: %s", name, row.body, w.Code, w.Body)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
				t.Errorf("%s %s: refusing the request allocated %d bytes, want under 4 MB", name, row.body, alloc)
			}
		}
	}
	if n := len(d.Queue().PendingJobs()); n != 0 {
		t.Errorf("refused requests left %d jobs queued", n)
	}
}

// TestReplayTraceSkipsRequestsOverTheLimits: trace replay holds records
// to the front end's request limits, skipping and counting the ones the
// front end would refuse.
func TestReplayTraceSkipsRequestsOverTheLimits(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	path := filepath.Join(t.TempDir(), "capture.fswl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := workload.NewTraceWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []workload.Record{
		{Status: 200, Method: http.MethodPost, Path: "/v1/run", Body: []byte(`{"flag":"france","seed":1}`)},
		{Status: 400, Method: http.MethodPost, Path: "/v1/run", Body: []byte(`{"w":1000000000,"h":1000000000}`)},
		{Status: 400, Method: http.MethodPost, Path: "/v1/sweep", Body: []byte(`{"base":{},"per_color":[1,2000]}`)},
	} {
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	added, deduped, skipped, err := d.ReplayTrace(path)
	if err != nil || added != 1 || deduped != 0 || skipped != 2 {
		t.Fatalf("replay: added %d, deduped %d, skipped %d, err %v; want 1, 0, 2, nil", added, deduped, skipped, err)
	}
}

// TestGridCapCheckedBeforeExpansion: a 7.8 KB sweep body whose grid has
// a million cells is refused with 400 by both daemons without resolving
// a single cell.
func TestGridCapCheckedBeforeExpansion(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	body := `{"base":{"flag":"mauritius"},"seeds":` + axis(1000) + `,"per_color":` + axis(1000) + `}`
	for name, h := range map[string]http.Handler{
		"flagsimd":  server.New(server.Config{}).Handler(),
		"flagdispd": d.Handler(),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "limit 4096") {
			t.Errorf("%s: status %d, want 400 naming the limit: %s", name, w.Code, w.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
			t.Errorf("%s: refusing the grid allocated %d bytes, want under 4 MB", name, alloc)
		}
	}
}
