package server

// Tests for the observability layer: the unified /metrics registry
// (engine + sweep + runtime families), run IDs, structured request
// logging, and the run ring's trace endpoints.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flagsim/internal/obs"
	"flagsim/internal/wire"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, raw := getBody(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("/metrics content type %q", ct)
	}
	return string(raw)
}

// metricValue extracts a sample value from exposition text by exact
// series name (including any label block).
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " ([0-9.e+-]+)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not found in exposition", series)
	}
	var v float64
	fmt.Sscanf(m[1], "%g", &v)
	return v
}

// TestMetricsCoverWholeStack runs one compute and requires the scrape to
// reflect all three layers: serving counters, engine families fed by the
// pool probe, and Go runtime gauges.
func TestMetricsCoverWholeStack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":4,"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	out := scrape(t, ts.URL)

	if v := metricValue(t, out, `flagsimd_requests_total{endpoint="/v1/run",code="200"}`); v != 1 {
		t.Errorf("requests_total = %g, want 1", v)
	}
	if v := metricValue(t, out, "flagsim_engine_cells_painted_total"); v <= 0 {
		t.Errorf("engine painted %g cells after a compute", v)
	}
	if v := metricValue(t, out, "flagsim_engine_runs_total"); v != 1 {
		t.Errorf("engine runs = %g, want 1", v)
	}
	if v := metricValue(t, out, "flagsim_engine_event_queue_high_water"); v <= 0 {
		t.Errorf("event queue high water = %g", v)
	}
	if v := metricValue(t, out, "flagsimd_sweep_cache_misses_total"); v != 1 {
		t.Errorf("cache misses = %g, want 1", v)
	}
	if v := metricValue(t, out, "flagsim_engine_grants_total"); v <= 0 {
		t.Errorf("grants = %g", v)
	}
	if v := metricValue(t, out, "go_goroutines"); v <= 0 {
		t.Errorf("go_goroutines = %g", v)
	}
	if !strings.Contains(out, "# TYPE flagsim_engine_blocks_total counter") {
		t.Error("blocks family missing its TYPE header")
	}
	if !strings.Contains(out, "# TYPE go_gc_pause_seconds_total counter") {
		t.Error("runtime GC family missing")
	}

	// A warm re-run feeds the cache-hit counter but not the engine.
	postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":4,"seed":1}`)
	out = scrape(t, ts.URL)
	if v := metricValue(t, out, "flagsimd_sweep_cache_hits_total"); v != 1 {
		t.Errorf("cache hits after warm rerun = %g, want 1", v)
	}
	if v := metricValue(t, out, "flagsim_engine_runs_total"); v != 1 {
		t.Errorf("cache hit reached the engine probe: runs = %g", v)
	}
}

// TestEngineMetricsInstrumentedRuns pins which computes leave the
// engine's fast path: untraced, fault-free sweeps never do (the pool
// publishes their Results and installs nothing), while a cold /v1/run
// (its span collector), a ?trace=chrome run and every faulted compute
// do, and flagsim_engine_instrumented_runs_total counts exactly those.
func TestEngineMetricsInstrumentedRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sweeps := []string{
		`{"base":{"scenario":2,"seed":1},"flags":["gen:v1:5:0","gen:v1:5:1","gen:v1:5:2","gen:v1:5:3"],"execs":["static","steal","dynamic"]}`,
		`{"base":{"scenario":4,"seed":2},"flags":["gen:v1:5:4","gen:v1:5:5"],"execs":["static","steal","dynamic"],"seeds":[2,3]}`,
	}
	computed := 0
	for _, body := range sweeps {
		resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
		}
		var out SweepResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 || out.Misses == 0 {
			t.Fatalf("sweep: %d failed, %d misses", out.Failed, out.Misses)
		}
		computed += out.Misses
	}
	out := scrape(t, ts.URL)
	if v := metricValue(t, out, "flagsim_engine_runs_total"); v != float64(computed) {
		t.Errorf("engine runs = %g, want %d", v, computed)
	}
	if v := metricValue(t, out, "flagsim_engine_instrumented_runs_total"); v != 0 {
		t.Errorf("untraced, fault-free sweeps ran %g instrumented computes, want 0", v)
	}
	// The memo holds a record of every spec, and nothing but the computes
	// counted above: one entry per compute, no other miss. Every one of
	// those computes was published uninstrumented, so every memoized
	// record came from a fast-path compute.
	for _, body := range sweeps {
		var req wire.SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		specs, err := req.Specs()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if _, ok := s.Sweeper().Lookup(spec.Key()); !ok {
				t.Errorf("%s: no memoized record", spec.Label())
			}
		}
	}
	if st := s.Sweeper().Stats(); st.Entries != computed || st.Misses != computed {
		t.Errorf("memo holds %d entries from %d misses, want the %d fast-path computes", st.Entries, st.Misses, computed)
	}

	instrumented := 0
	for _, call := range []struct {
		path, body string
		computes   int
	}{
		{"/v1/run", `{"flag":"mauritius","scenario":4,"seed":1}`, 1},
		{"/v1/run", `{"flag":"mauritius","scenario":4,"seed":1}`, 0}, // warm
		{"/v1/run?trace=chrome", `{"flag":"mauritius","scenario":4,"seed":1}`, 1},
		{"/v1/sweep", `{"base":{"flag":"jordan","scenario":3,"faults":{"preset":"light","seed":3}},"seeds":[1,2,3]}`, 3},
	} {
		resp, raw := postJSON(t, ts.URL+call.path, call.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", call.path, resp.StatusCode, raw)
		}
		computed += call.computes
		instrumented += call.computes
		out = scrape(t, ts.URL)
		if v := metricValue(t, out, "flagsim_engine_instrumented_runs_total"); v != float64(instrumented) {
			t.Errorf("after %s %s: instrumented runs = %g, want %d", call.path, call.body, v, instrumented)
		}
		if v := metricValue(t, out, "flagsim_engine_runs_total"); v != float64(computed) {
			t.Errorf("after %s %s: engine runs = %g, want %d", call.path, call.body, v, computed)
		}
	}
}

// TestRunIDPlumbing checks the X-Run-ID header, the response envelope's
// run_id, and that the two agree.
func TestRunIDPlumbing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	header := resp.Header.Get("X-Run-ID")
	if len(header) != 16 {
		t.Fatalf("X-Run-ID = %q, want 16 hex chars", header)
	}
	var envelope struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.RunID != header {
		t.Errorf("run_id %q != X-Run-ID %q", envelope.RunID, header)
	}
}

// TestRunsRingAndTraceEndpoint exercises the after-the-fact trace path:
// a computed run's spans are retrievable by run ID as a Chrome trace; a
// cache hit's are not, with a 404 explaining why.
func TestRunsRingAndTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":4,"seed":9}`)
	cold := resp.Header.Get("X-Run-ID")
	resp, _ = postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":4,"seed":9}`)
	warm := resp.Header.Get("X-Run-ID")

	resp, raw := getBody(t, ts.URL+"/v1/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/runs status %d", resp.StatusCode)
	}
	var list RunsResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 || len(list.Runs) != 2 {
		t.Fatalf("runs listed = %d, want 2", list.Count)
	}
	// Newest first: the warm hit leads.
	if list.Runs[0].ID != warm || !list.Runs[0].CacheHit {
		t.Errorf("newest entry = %+v, want warm hit %s", list.Runs[0], warm)
	}
	if list.Runs[1].ID != cold || list.Runs[1].CacheHit {
		t.Errorf("oldest entry = %+v, want cold run %s", list.Runs[1], cold)
	}
	if list.Runs[1].Spec == "" || list.Runs[1].SpecHash == "" || list.Runs[1].Makespan == 0 {
		t.Errorf("summary missing detail: %+v", list.Runs[1])
	}

	// The computed run has a trace.
	resp, raw = getBody(t, ts.URL+"/v1/runs/"+cold+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, raw)
	}
	assertChromeTrace(t, raw)

	// The cache hit does not, and the 404 says so.
	resp, raw = getBody(t, ts.URL+"/v1/runs/"+warm+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-hit trace status %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "trace=chrome") {
		t.Errorf("404 body should point at ?trace=chrome: %s", raw)
	}

	// Unknown IDs 404 too.
	resp, _ = getBody(t, ts.URL+"/v1/runs/ffffffffffffffff/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d", resp.StatusCode)
	}
}

// TestTraceChromeQueryStreamsTrace checks POST /v1/run?trace=chrome:
// the response is a Chrome trace, it is produced even when the spec is
// already memoized (cache bypass), and the run lands in the ring with
// its trace.
func TestTraceChromeQueryStreamsTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Warm the cache first so the bypass is what's under test.
	postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":4,"seed":5}`)
	resp, raw := postJSON(t, ts.URL+"/v1/run?trace=chrome", `{"flag":"mauritius","scenario":4,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	assertChromeTrace(t, raw)
	id := resp.Header.Get("X-Run-ID")
	if sum, ok := s.ring.Get(id); !ok || !sum.HasTrace() {
		t.Errorf("traced run %s not in ring with trace", id)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/run?trace=perfetto", `{"flag":"mauritius"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown trace format status %d", resp.StatusCode)
	}
}

// assertChromeTrace validates the Perfetto-loadable shape: a JSON array
// holding thread_name metadata ("M") and complete ("X") events with
// microsecond timestamps.
func assertChromeTrace(t *testing.T, raw []byte) {
	t.Helper()
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		PID  int    `json:"pid"`
		TID  int    `json:"tid"`
		Dur  int64  `json:"dur"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var metas, completes, paints int
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				metas++
			}
		case "X":
			completes++
			if strings.HasPrefix(e.Name, "paint ") {
				paints++
			}
		}
	}
	if metas == 0 || completes == 0 || paints == 0 {
		t.Fatalf("trace shape: %d thread_name metas, %d X events, %d paints", metas, completes, paints)
	}
}

// TestRequestLogging captures the structured log and checks the
// request line's fields, plus the slow-request promotion to Warn.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger, SlowRequest: time.Nanosecond})
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","seed":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line := struct {
		Level    string `json:"level"`
		Msg      string `json:"msg"`
		RunID    string `json:"run_id"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
		Outcome  string `json:"outcome"`
		Spec     string `json:"spec"`
		SpecHash string `json:"spec_hash"`
		CacheHit *bool  `json:"cache_hit"`
	}{}
	dec := json.NewDecoder(&buf)
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("no log line: %v", err)
	}
	if line.Msg != "slow request" || line.Level != "WARN" {
		t.Errorf("1ns threshold should promote to Warn: %+v", line)
	}
	if line.RunID != resp.Header.Get("X-Run-ID") {
		t.Errorf("log run_id %q != header %q", line.RunID, resp.Header.Get("X-Run-ID"))
	}
	if line.Endpoint != "/v1/run" || line.Status != 200 || line.Outcome != "ok" {
		t.Errorf("log line = %+v", line)
	}
	if line.Spec == "" || len(line.SpecHash) != 16 || line.CacheHit == nil {
		t.Errorf("log line missing spec detail: %+v", line)
	}
}

// TestLoggingDefaultsQuiet: with no Logger configured nothing is
// emitted anywhere (the nop logger), and serving still works.
func TestLoggingDefaultsQuiet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"flag":"france"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestRunRingBounded: the ring never exceeds its configured size.
func TestRunRingBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{RunRingSize: 2})
	for seed := 0; seed < 5; seed++ {
		postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"flag":"mauritius","seed":%d}`, seed))
	}
	if n := s.ring.Len(); n != 2 {
		t.Errorf("ring holds %d, want 2", n)
	}
}

// TestRunIDRingRoundTrip is the round-trip regression: the X-Run-ID a
// run response carries must be retrievable from the ring via /v1/runs,
// with the summary's spec, cache-hit flag, and status agreeing with the
// response that minted the ID.
func TestRunIDRingRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/run", `{"flag":"mauritius","scenario":3,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Run-ID")
	var envelope RunResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatal(err)
	}

	resp, raw = getBody(t, ts.URL+"/v1/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/runs status %d", resp.StatusCode)
	}
	var list RunsResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Runs {
		if s.ID != id {
			continue
		}
		if s.Spec != envelope.Spec {
			t.Errorf("ring spec %q != response spec %q", s.Spec, envelope.Spec)
		}
		if s.CacheHit != envelope.CacheHit {
			t.Errorf("ring cache_hit %v != response %v", s.CacheHit, envelope.CacheHit)
		}
		if s.Status != http.StatusOK {
			t.Errorf("ring status %d, want 200", s.Status)
		}
		if s.Outcome != "ok" {
			t.Errorf("ring outcome %q, want ok", s.Outcome)
		}
		return
	}
	t.Fatalf("run %s not found in the ring (%d entries)", id, list.Count)
}

// TestRunsRingConcurrentReadersAndWriters hammers the run ring through
// the full HTTP stack: parallel POST /v1/run writers (distinct seeds, so
// every request is a fresh compute recorded in the ring) racing parallel
// GET /v1/runs and /v1/runs/{id}/trace readers. Run under -race this is
// the regression net for ring synchronization; in any mode it checks
// every reader sees a consistent, bounded snapshot.
func TestRunsRingConcurrentReadersAndWriters(t *testing.T) {
	const ringSize = 8
	_, ts := newTestServer(t, Config{RunRingSize: ringSize, MaxInFlight: 16, MaxQueue: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"flag":"mauritius","seed":%d}`, w*100+i)
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				id := resp.Header.Get("X-Run-ID")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// Immediately read the trace this run just recorded —
				// racing other writers that may be evicting it.
				tr, err := http.Get(ts.URL + "/v1/runs/" + id + "/trace")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, tr.Body)
				tr.Body.Close()
				if tr.StatusCode != http.StatusOK && tr.StatusCode != http.StatusNotFound {
					t.Errorf("trace status %d for %s", tr.StatusCode, id)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp, err := http.Get(ts.URL + "/v1/runs")
				if err != nil {
					t.Error(err)
					return
				}
				var list RunsResponse
				err = json.NewDecoder(resp.Body).Decode(&list)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if list.Count > ringSize || len(list.Runs) != list.Count {
					t.Errorf("inconsistent snapshot: count=%d len=%d cap=%d",
						list.Count, len(list.Runs), ringSize)
				}
				for _, s := range list.Runs {
					if s.ID == "" {
						t.Error("ring listed an empty summary")
					}
				}
			}
		}()
	}
	wg.Wait()
}
