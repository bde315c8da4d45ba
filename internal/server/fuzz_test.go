package server

// Wire-DTO robustness: the run endpoint's decode/resolve path is fed
// adversarial JSON. The invariants under fuzzing are (1) decoding and
// spec resolution never panic, and (2) a request the resolver rejects
// comes back as a client error (400), never a server error (500) — a
// malformed fault plan or duration must not look like a service fault.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzSeedBodies is the corpus: valid requests, every rejection branch
// of RunRequest.spec and FaultRequest.plan, and structurally hostile
// payloads.
var fuzzSeedBodies = []string{
	`{}`,
	`{"flag":"mauritius","scenario":4,"pipelined":true}`,
	`{"exec":"dynamic","workers":3,"policy":"pull-color-affinity"}`,
	`{"exec":"warp"}`,
	`{"flag":"atlantis"}`,
	`{"scenario":9}`,
	`{"scenario":2,"pipelined":true}`,
	`{"kind":"quill"}`,
	`{"setup":"twenty seconds"}`,
	`{"setup":"-5s"}`,
	`{"hold":"never"}`,
	`{"policy":"pull-random"}`,
	`{"skills":[1.5]}`,
	`{"faults":{"preset":"heavy","seed":7}}`,
	`{"faults":{"preset":"catastrophic"}}`,
	`{"faults":{"preset":"light","degrade_prob":0.5}}`,
	`{"faults":{"degrade_prob":0.5}}`,
	`{"faults":{"degrade_prob":0.1,"degrade_factor":0.5}}`,
	`{"faults":{"degrade_prob":2,"degrade_factor":2}}`,
	`{"faults":{"handoff_delay_prob":0.5}}`,
	`{"faults":{"handoff_delay_prob":0.5,"handoff_delay":"soon"}}`,
	`{"faults":{"stalls":[{"proc":-2,"at":"1s","for":"1s"}]}}`,
	`{"faults":{"stalls":[{"proc":0,"at":"nope","for":"1s"}]}}`,
	`{"faults":{"stalls":[{"proc":0,"at":"1s","for":"-1s"}]}}`,
	`{"faults":{"lost_paint_prob":0.5}}`,
	`{"w":-1,"h":-1}`,
	`{"w":1000000000,"h":1000000000}`,
	`{"w":1025}`,
	`{"workers":1000000000}`,
	`{"per_color":1000000000}`,
	`{"seed":18446744073709551615}`,
	`{"unknown_field":1}`,
	`[1,2,3]`,
	`"run"`,
	`{"flag":`,
	"{\"flag\":\"\x00\"}",
	`{"faults":null}`,
	`{"faults":{}}`,
	// A valid request followed by more bytes is rejected as a whole,
	// never run as its first document.
	`{"flag":"mauritius"}{"seed":1}`,
	`{"flag":"mauritius"} x`,
	`{"flag":"mauritius"}}`,
	`{"flag":"mauritius"}]`,
}

// FuzzRunRequest drives raw bodies through the exact decode+resolve
// stack the handler uses. Panics surface as fuzz failures; every error
// is fine — this fuzzer pins "malformed input is an error, not a crash".
func FuzzRunRequest(f *testing.F) {
	for _, body := range fuzzSeedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		if err != nil {
			t.Skip()
		}
		var run RunRequest
		if err := decodeJSON(req, &run); err != nil {
			return
		}
		// Decoded fine: resolution must not panic either, whatever the
		// field values. (SweepRequest resolution reuses this same path
		// per grid cell, so this covers /v1/sweep's resolver too.)
		_, _ = run.Spec()
	})
}

// TestRunRequestErrorsAre400 posts every rejection-branch body through
// the real handler stack and requires a 400 — proving resolver errors
// and requests over the request limits are classified as the client's
// fault, not mapped to 500 by accident.
func TestRunRequestErrorsAre400(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range fuzzSeedBodies {
		var run RunRequest
		req, _ := http.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		decodeErr := decodeJSON(req, &run)
		resolveErr := error(nil)
		if decodeErr == nil {
			if resolveErr = run.CheckLimits(); resolveErr == nil {
				_, resolveErr = run.Spec()
			}
		}
		if decodeErr == nil && resolveErr == nil {
			continue // a valid request; covered by the handler tests
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		var payload map[string]any
		decodeFailed := json.NewDecoder(resp.Body).Decode(&payload) != nil
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if decodeFailed || payload["error"] == "" {
			t.Errorf("body %q: 400 without a JSON error payload", body)
		}
	}
}

// TestRunRequestFaultsRoundTrip pins the fault DTO's happy path: a
// preset request executes, reports its injection tally in the response,
// and hashes to a different spec than its fault-free twin — while the
// fault-free response carries no faults section at all.
func TestRunRequestFaultsRoundTrip(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) RunResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
		var out RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	clean := post(`{"scenario":4,"pipelined":true,"seed":7}`)
	if clean.Result.Faults != nil {
		t.Fatalf("fault-free response carries a faults section: %+v", clean.Result.Faults)
	}
	faulted := post(`{"scenario":4,"pipelined":true,"seed":7,"faults":{"preset":"heavy","seed":3}}`)
	if faulted.Result.Faults == nil {
		t.Fatal("heavy-preset response carries no faults section")
	}
	if faulted.Result.Faults.DegradedCells == 0 {
		t.Errorf("heavy preset degraded no cells: %+v", faulted.Result.Faults)
	}
	if faulted.Spec == clean.Spec {
		t.Error("faulted spec label identical to fault-free label")
	}
	if faulted.Result.GridSHA256 != clean.Result.GridSHA256 {
		t.Error("faults changed the final grid")
	}
	if faulted.Result.MakespanNS <= clean.Result.MakespanNS {
		t.Errorf("heavy faults did not slow the run: %d vs %d ns",
			faulted.Result.MakespanNS, clean.Result.MakespanNS)
	}
	// Determinism over the wire: the same faulted request replays to the
	// identical result section (second request is a cache hit).
	again := post(`{"scenario":4,"pipelined":true,"seed":7,"faults":{"preset":"heavy","seed":3}}`)
	if !again.CacheHit {
		t.Error("identical faulted request missed the cache")
	}
	a, _ := json.Marshal(faulted.Result)
	b, _ := json.Marshal(again.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("faulted result section not byte-identical across requests:\n%s\n%s", a, b)
	}
}
