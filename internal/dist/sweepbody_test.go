package dist

// flagdispd's /v1/sweep bodies are written by append from the stored
// results' summaries. They must stay byte for byte json.Marshal of
// SweepFleetResponse plus WriteJSON's newline.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"flagsim/internal/flagspec"
	"flagsim/internal/wire"
)

// The "esc" scheme makes any "esc:..." a flag name: a copy of Great
// Britain, whose layers depend on each other, named with the requested
// name and a byte that is not UTF-8. A pipelined run of one fails with
// an error quoting that name, so labels and errors that need escaping
// reach a sweep's rows.
func init() {
	flagspec.RegisterDynamic("esc", func(name string) (*flagspec.Flag, error) {
		f := *flagspec.GreatBritain
		f.Name = name + "\xff"
		return &f, nil
	})
}

// TestFleetSweepBodyMatchesMarshaledResponse posts each sweep twice to a
// two-worker fleet and compares every body with json.Marshal of the
// SweepFleetResponse built from the store and the queue: each ok row's
// fields from its stored payload, each failed row's message from its
// job. The serving counts and wall_ns are read back from the body, and
// each row's cache_hit is checked against the store before the request.
// A stored result with zero makespan and events, as a worker may report
// one, stands in for rows that omit both fields.
func TestFleetSweepBodyMatchesMarshaledResponse(t *testing.T) {
	f := startFleet(t, t.TempDir())
	defer f.stop(t)
	zero, err := wire.RunRequest{Flag: "japan", Scenario: 2, Seed: 8}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := zero.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := wire.NewSimResult(res)
	zeroed.MakespanNS, zeroed.Events = 0, 0
	payload, err := json.Marshal(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.d.Store().Put(zero.Key(), payload); err != nil {
		t.Fatal(err)
	}
	stop := startWorkers(t, f, 2, nil)
	defer stop()

	for _, c := range []struct {
		body string
		// failed rows, and a fragment their escaping must put in the body
		failed  int
		escaped string
	}{
		// The zero-valued stored result, served warm, beside builtin and
		// generated flags, with within-request duplicate keys.
		{`{"base":{"scenario":2,"seed":8},"flags":["japan","gen:v1:7:3","japan","mauritius"],"execs":["static","dynamic"]}`, 0, `"spec":"static/japan/scenario-2/thick-marker/seed=8","cache_hit":true,"grid_sha256"`},
		// Labels that need escaping, and a fault plan's label.
		{`{"base":{"seed":3,"faults":{"preset":"light","seed":2}},"flags":["esc:a<b>&c\u2028d","esc:\u00e9\u2029"],"kinds":["crayon","dauber"]}`,
			0, `esc:a\u003cb\u003e\u0026c\u2028d/scenario-1/crayon`},
		// Failed rows, duplicates among them: a pipelined run of a flag
		// whose layers depend on each other fails on the worker. Its
		// message quotes the flag's name, whose last byte the report's
		// JSON turned into U+FFFD.
		{`{"base":{"scenario":4,"pipelined":true},"flags":["mauritius","esc:x<y>","greatbritain"],"seeds":[5,5]}`,
			4, "esc:x\\u003cy\\u003e\ufffd has layer dependencies"},
	} {
		var sreq wire.SweepRequest
		if err := wire.Decode([]byte(c.body), &sreq); err != nil {
			t.Fatal(err)
		}
		_, specs, err := sreq.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			stored := make([]bool, len(specs))
			for i, spec := range specs {
				stored[i] = f.d.Store().Has(spec.Key())
			}
			resp, err := http.Post(f.srv.URL+"/v1/sweep", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.body, resp.StatusCode, raw.Bytes())
			}
			var got SweepFleetResponse
			if err := json.Unmarshal(raw.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want := SweepFleetResponse{Count: len(specs), Warm: got.Warm, Computed: got.Computed,
				Deduped: got.Deduped, WallNS: got.WallNS, Runs: make([]wire.SweepRunRow, len(specs))}
			for i, spec := range specs {
				row := &want.Runs[i]
				row.Spec, row.CacheHit = spec.Label(), stored[i]
				if _, errMsg := f.d.Queue().Status(spec.Key()); errMsg != "" {
					row.Err = errMsg
					want.Failed++
					continue
				}
				payload, ok := f.d.Store().Get(spec.Key())
				if !ok {
					t.Fatalf("%s: row %d neither failed nor stored", c.body, i)
				}
				var res wire.SimResult
				if err := json.Unmarshal(payload, &res); err != nil {
					t.Fatal(err)
				}
				row.MakespanNS, row.Events, row.GridSHA256 = res.MakespanNS, res.Events, res.GridSHA256
			}
			wantRaw, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if wantRaw = append(wantRaw, '\n'); !bytes.Equal(raw.Bytes(), wantRaw) {
				t.Errorf("%s (pass %d): body\n %s\nwant\n %s", c.body, pass, raw.Bytes(), wantRaw)
			}
			if want.Failed != c.failed || !bytes.Contains(raw.Bytes(), []byte(c.escaped)) {
				t.Errorf("%s: %d failed rows, want %d, or no %q in\n %s", c.body, want.Failed, c.failed, c.escaped, raw.Bytes())
			}
		}
	}

	// A 24-row reply, past net/http's 2 KB buffer, goes out with its
	// Content-Length, not chunked.
	body := `{"base":{"flag":"mauritius"},"execs":["static","steal","dynamic"],"scenarios":[1,2,3,4],"seeds":[1,2]}`
	resp, err := http.Post(f.srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || raw.Len() < 4096 {
		t.Fatalf("24-row sweep: status %d, %d bytes", resp.StatusCode, raw.Len())
	}
	if resp.ContentLength != int64(raw.Len()) || len(resp.TransferEncoding) != 0 {
		t.Errorf("24-row sweep: Content-Length %d, Transfer-Encoding %v, for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, raw.Len())
	}
}
