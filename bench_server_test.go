package flagsim_test

// E35 companion benchmarks — the serving hot path, gated by benchguard.
// The warm two run against a real HTTP listener with the sweep cache
// warm, so they time what a healthy production request costs (routing,
// admission, JSON, cache hit) rather than the simulation itself: a
// regression there is serving overhead, which the engine benchmarks
// would never see. BenchmarkServerSweepCold times the miss path through
// the same server: every run is computed and published to /metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flagsim"
)

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(flagsim.NewServer(flagsim.ServerConfig{MaxInFlight: 2}).Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServerRun times a warm /v1/run round trip end to end.
func BenchmarkServerRun(b *testing.B) {
	ts := benchServer(b)
	body := `{"flag":"mauritius","scenario":4,"seed":1}`
	benchPost(b, ts.URL+"/v1/run", body) // populate the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/run", body)
	}
}

// BenchmarkServerRunWarm times one warm /v1/run through the server's
// handler in process, with no socket: front end, admission, the memo's
// Lookup and the envelope written around the stored record bytes. One
// op is one run, so ns/op and the reported ns/run agree; allocs/op are
// the serving path's own. The warm reply is checked before the timer.
func BenchmarkServerRunWarm(b *testing.B) {
	h := flagsim.NewServer(flagsim.ServerConfig{MaxInFlight: 2}).Handler()
	body := []byte(`{"flag":"mauritius","scenario":4,"seed":1}`)
	rd := &bodyReader{}
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	serve := func(w http.ResponseWriter) {
		rd.Reset(body)
		req.Body = rd
		h.ServeHTTP(w, req)
	}
	serve(httptest.NewRecorder()) // compute and memoize
	rec := httptest.NewRecorder()
	serve(rec)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit":true`)) {
		b.Fatalf("warm run: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	w := &discardResponse{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.header)
		serve(w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/run")
}

// bodyReader is a request body the benchmark rewinds for every call.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// discardResponse is a ResponseWriter that keeps only its header map,
// so the benchmark loop allocates nothing of its own.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkServerSweepWarm times a fully warm 8-run /v1/sweep grid,
// reported per run.
func BenchmarkServerSweepWarm(b *testing.B) {
	ts := benchServer(b)
	body := `{"base": {"flag": "mauritius", "scenario": 4}, "execs": ["static", "steal"], "seeds": [1, 2, 3, 4]}`
	benchPost(b, ts.URL+"/v1/sweep", body) // populate the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/sweep", body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8), "ns/run")
}

// BenchmarkServerSweepCold times generated-cold's request shape: one op
// is one /v1/sweep of 8 never-seen gen:v1 flags under all three
// executors, 24 computed runs through the server's pool, reported per
// run. The flags of op i are gen:v1:<op>:0..7, so no op hits the memo.
func BenchmarkServerSweepCold(b *testing.B) {
	ts := benchServer(b)
	body := func(op int) string {
		flags := make([]string, 8)
		for v := range flags {
			flags[v] = fmt.Sprintf("%q", flagsim.GenFlagName(uint64(op), uint64(v)))
		}
		return `{"base":{"scenario":2,"workers":2,"seed":1},"execs":["static","steal","dynamic"],"flags":[` +
			strings.Join(flags, ",") + `]}`
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body(0)))
	if err != nil {
		b.Fatal(err)
	}
	var out struct {
		Count  int `json:"count"`
		Misses int `json:"cache_misses"`
		Failed int `json:"failed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if out.Count != 24 || out.Misses != 24 || out.Failed != 0 {
		b.Fatalf("cold sweep: %d runs, %d misses, %d failed; want 24 computed", out.Count, out.Misses, out.Failed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/sweep", body(i+1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*24), "ns/run")
}
