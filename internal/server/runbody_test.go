package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/wire"
)

// TestRunBodyMatchesMarshaledResponse pins flagsimd's /v1/run bodies,
// cold and warm, to json.Marshal(RunResponse) plus WriteJSON's newline:
// a warm reply is the envelope written around the memo record's stored
// bytes, and it must not differ by a byte from marshaling the envelope
// around a freshly computed result. The run ID is fixed by X-Run-ID; a
// cold reply's elapsed_ns is read back from the body.
func TestRunBodyMatchesMarshaledResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := []string{
		`{"flag":"mauritius","scenario":4,"seed":1}`,
		`{"exec":"steal","flag":"jordan","scenario":3,"kind":"crayon","seed":5,"faults":{"preset":"heavy","seed":2}}`,
		`{"exec":"dynamic","flag":"gen:v1:7:3","workers":3,"seed":2,"policy":"pull-color-affinity"}`,
	}
	for n, body := range bodies {
		var req RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, warm := range []bool{false, true} {
			id := fmt.Sprintf("000000000000%02x%02x", n, i)
			hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hreq.Header.Set("X-Run-ID", id)
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q: %s", body, resp.StatusCode, resp.Header.Get("Content-Type"), raw.Bytes())
			}
			var got RunResponse
			if err := json.Unmarshal(raw.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if warm && got.ElapsedNS != 0 {
				t.Errorf("%s: warm elapsed_ns %d, want 0", body, got.ElapsedNS)
			}
			want, err := json.Marshal(RunResponse{RunID: id, Spec: spec.Label(), CacheHit: warm,
				ElapsedNS: got.ElapsedNS, Result: NewSimResult(fresh)})
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(raw.Bytes(), want) {
				t.Errorf("%s (warm %v): body\n %s\nwant\n %s", body, warm, raw.Bytes(), want)
			}
		}
	}
}

// TestRunBodyEscapesLikeJSON: runBody quotes its strings exactly as
// json.Marshal does, including the characters encoding/json escapes.
func TestRunBodyEscapesLikeJSON(t *testing.T) {
	result := []byte(`{"strategy":"s"}`)
	for _, spec := range []string{"static/mauritius/S1/thick-marker/seed=1", `a"b\c`, "a<b", "a>b", "a&b", "tab\there", "del\x7f", "é ", "bad\xffutf8"} {
		got := runBody("00000000000000aa", spec, true, 1500*time.Nanosecond, result)
		want, err := json.Marshal(struct {
			RunID     string          `json:"run_id"`
			Spec      string          `json:"spec"`
			CacheHit  bool            `json:"cache_hit"`
			ElapsedNS int64           `json:"elapsed_ns"`
			Result    json.RawMessage `json:"result"`
		}{"00000000000000aa", spec, true, 1500, result})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("spec %q: runBody\n %s\nwant\n %s", spec, got, want)
		}
	}
}

// The "esc" scheme makes any "esc:..." a flag name: a copy of Great
// Britain, whose layers depend on each other, named with the requested
// name and a byte that is not UTF-8. A pipelined run of one fails with
// an error quoting that name raw, so labels and errors that need
// escaping reach a sweep's rows.
func init() {
	flagspec.RegisterDynamic("esc", func(name string) (*flagspec.Flag, error) {
		f := *flagspec.GreatBritain
		f.Name = name + "\xff"
		return &f, nil
	})
}

// TestSweepBodyMatchesMarshaledResponse pins flagsimd's /v1/sweep
// bodies, cold and warm, to json.Marshal(SweepResponse) plus WriteJSON's
// newline, with each row's fields from a library run of its spec: rows
// written by append from the memo records must not differ by a byte.
// The serving fields (workers, wall_ns, the hit counts) are read back
// from the body; each row's cache_hit is checked on its own.
func TestSweepBodyMatchesMarshaledResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		body string
		// failed rows, and a fragment their escaping must put in the body
		failed  int
		escaped string
	}{
		// Builtin and generated flags, with within-request duplicate keys.
		{`{"base":{"scenario":4},"execs":["static","steal","dynamic"],"flags":["mauritius","gen:v1:7:3","mauritius"],"seeds":[1,2]}`, 0, ""},
		// Labels that need escaping, and a fault plan's label.
		{`{"base":{"seed":3,"faults":{"preset":"heavy","seed":2}},"flags":["esc:a<b>&c\u2028d","esc:\u00e9\u2029"],"kinds":["crayon","dauber"]}`,
			0, `esc:a\u003cb\u003e\u0026c\u2028d/scenario-1/crayon`},
		// Failed rows, duplicates among them: a pipelined run of a flag
		// whose layers depend on each other fails, and the error quotes
		// the flag's name, whose last byte is not UTF-8.
		{`{"base":{"scenario":4,"pipelined":true},"flags":["mauritius","esc:x<y>","greatbritain"],"seeds":[5,5]}`,
			4, `esc:x\u003cy\u003e\ufffd has layer dependencies`},
	} {
		body := c.body
		var sreq wire.SweepRequest
		if err := wire.Decode([]byte(body), &sreq); err != nil {
			t.Fatal(err)
		}
		_, specs, err := sreq.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]SweepRunRow, len(specs))
		failed := 0
		for i, spec := range specs {
			rows[i].Spec = spec.Label()
			res, err := spec.RunOnce(nil)
			if err != nil {
				rows[i].Err = err.Error()
				failed++
				continue
			}
			rows[i].MakespanNS, rows[i].Events = int64(res.Makespan), res.Events
			rows[i].GridSHA256 = fmt.Sprintf("%x", res.Grid.Digest())
		}
		for _, warm := range []bool{false, true} {
			resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, resp.StatusCode, raw)
			}
			var got SweepResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Runs) != len(specs) {
				t.Fatalf("%s: %d rows, want %d", body, len(got.Runs), len(specs))
			}
			seen := map[[32]byte]bool{}
			for i, spec := range specs {
				key := spec.Key()
				rows[i].CacheHit = warm || seen[key]
				seen[key] = true
				if got.Runs[i].CacheHit != rows[i].CacheHit {
					t.Errorf("%s (warm %v): row %d cache_hit %v, want %v", body, warm, i, got.Runs[i].CacheHit, rows[i].CacheHit)
				}
			}
			want, err := json.Marshal(SweepResponse{Count: len(specs), Workers: got.Workers, WallNS: got.WallNS,
				Hits: got.Hits, Misses: got.Misses, Failed: failed, Runs: rows})
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(raw, want) {
				t.Errorf("%s (warm %v): body\n %s\nwant\n %s", body, warm, raw, want)
			}
			if failed != c.failed || !bytes.Contains(raw, []byte(c.escaped)) {
				t.Errorf("%s: %d failed rows, want %d, or no %q in\n %s", body, failed, c.failed, c.escaped, raw)
			}
		}
	}
}

// TestRepliesCarryContentLength: a 24-row sweep reply, over net/http's
// 2 KB buffer, is sent with its Content-Length, not chunked; so are a
// run reply and an error.
func TestRepliesCarryContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/sweep", `{"base":{"flag":"mauritius"},"execs":["static","steal","dynamic"],"scenarios":[1,2,3,4],"seeds":[1,2]}`},
		{"/v1/run", `{"flag":"jordan","seed":4}`},
		{"/v1/run", `{"flag":"nosuchflag"}`},
	} {
		resp, raw := postJSON(t, ts.URL+c.path, c.body)
		if c.path == "/v1/sweep" && len(raw) < 4096 {
			t.Fatalf("sweep reply of %d bytes: want one well past 2 KB", len(raw))
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v, for a %d-byte body",
				c.path, c.body, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
	}
}
