package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
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
