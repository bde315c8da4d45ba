package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flagsim/internal/dist"
	"flagsim/internal/wire"
)

// tiny shrinks a workload's rounds so a test can run it end to end.
var tiny = size{warm: 2, timed: 6, distinct: 2}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := w.inputs(42, 1, tiny), w.inputs(42, 1, tiny)
		if !bytes.Equal(bodies(a), bodies(b)) {
			t.Errorf("%s: seed 42 gave different request bodies on two calls", w.name)
		}
		if bytes.Equal(bodies(a), bodies(w.inputs(43, 1, tiny))) {
			t.Errorf("%s: seeds 42 and 43 gave identical request bodies", w.name)
		}
	}
}

func bodies(in roundInputs) []byte {
	var out []byte
	for _, req := range append(append([]request(nil), in.warm...), in.timed...) {
		out = append(append(out, req.path...), req.body...)
	}
	return out
}

// TestColdInputsDisjoint checks that the cold workloads never send the
// same work twice: warm-up and timed phase, two rounds and the replay
// all draw distinct generated names or spec keys.
func TestColdInputsDisjoint(t *testing.T) {
	for _, name := range []string{"generated-cold", "fleet-cold"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]string{}
		for _, r := range []int{0, 1, replayRound} {
			in := w.inputs(9, r, w.size)
			for phase, reqs := range map[string][]request{"warm": in.warm, "timed": in.timed} {
				for _, key := range workKeys(t, name, reqs) {
					where := fmt.Sprintf("round %d %s", r, phase)
					if prev, dup := seen[key]; dup {
						t.Fatalf("%s: %s sent in %s and again in %s", name, key, prev, where)
					}
					seen[key] = where
				}
			}
		}
		if len(seen) == 0 {
			t.Fatalf("%s: no inputs", name)
		}
	}
}

// workKeys names each unit of work the requests ask for: generated flag
// names for generated-cold, spec content addresses for fleet-cold.
func workKeys(t *testing.T, workload string, reqs []request) []string {
	var out []string
	for _, req := range reqs {
		var sreq wire.SweepRequest
		if err := strictJSON(req.body, &sreq); err != nil {
			t.Fatal(err)
		}
		if workload == "generated-cold" {
			out = append(out, sreq.Flags...)
			continue
		}
		jobs, err := dispatcherJobs(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			out = append(out, j.KeyHex)
		}
	}
	return out
}

func TestVerifierCatchesPlantedResult(t *testing.T) {
	ctx := context.Background()
	run := request{path: pathRun, runs: 1,
		body: mustJSON(wire.RunRequest{Exec: "steal", Flag: "jordan", Scenario: 3, Seed: 5})}
	var rreq wire.RunRequest
	if err := strictJSON(run.body, &rreq); err != nil {
		t.Fatal(err)
	}
	sp, err := rreq.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := wire.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	good := mustJSON(runResponse{CacheHit: true, Result: raw})
	planted := bytes.Replace(good, []byte(`"events":`), []byte(`"events":1`), 1)

	sweepReq := fleetSweeps(rand.New(rand.NewPCG(1, 2)), freshSeeds(1, 0), 1)[0]
	var sreq wire.SweepRequest
	if err := strictJSON(sweepReq.body, &sreq); err != nil {
		t.Fatal(err)
	}
	specs, err := sreq.Specs()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]wire.SweepRunRow, len(specs))
	for i, sp := range specs {
		res, err := sp.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = expectedRow(sp, res)
	}
	goodRows := mustJSON(dist.SweepFleetResponse{Count: len(rows), Computed: len(rows), Runs: rows})
	bad := append([]wire.SweepRunRow(nil), rows...)
	for i := range bad {
		bad[i].GridSHA256 = strings.Repeat("0", 64)
	}
	badRows := mustJSON(dist.SweepFleetResponse{Count: len(bad), Computed: len(bad), Runs: bad})

	for _, tc := range []struct {
		name string
		ex   exchange
		want int
	}{
		{"run", exchange{req: run, status: 200, body: good}, 0},
		{"planted run", exchange{req: run, status: 200, body: planted}, 1},
		{"rows", exchange{req: sweepReq, status: 200, body: goodRows}, 0},
		{"planted rows", exchange{req: sweepReq, status: 200, body: badRows}, rowsPerSample},
	} {
		checked, mismatched, err := verify(ctx, tc.ex, rand.New(rand.NewPCG(3, 4)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if checked == 0 || mismatched != tc.want {
			t.Errorf("%s: checked %d, mismatched %d, want %d mismatched", tc.name, checked, mismatched, tc.want)
		}
	}

	// fleet-warm compares every re-submission with its set-up rows.
	w, _ := workloadByName("fleet-warm")
	chk := newChecker(w)
	if f := chk.check(sweepReq, 200, goodRows, false); f != 0 {
		t.Fatalf("set-up rows failed %d runs", f)
	}
	warmBad := mustJSON(dist.SweepFleetResponse{Count: len(bad), Warm: len(bad), Runs: bad})
	if f := chk.check(sweepReq, 200, warmBad, true); f != len(bad) {
		t.Errorf("re-submission with planted rows failed %d runs, want %d", f, len(bad))
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the part of BENCHMARK.json the metric check reads.
type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }  `json:"workloads"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	endToEnd, perLayer := declared(bf.EndToEnd), declared(bf.PerLayer)
	// Every declared workload exists and prints the declared reason.
	// fleet-cold is the one the benchmark runs only by hand (NOTES.md).
	for _, wl := range bf.Workloads {
		w, err := workloadByName(wl.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		} else if w.why != wl.Why {
			t.Errorf("%s: BENCHMARK.json says why %q, the benchmark prints %q", wl.Name, wl.Why, w.why)
		}
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d besides fleet-cold", len(bf.Workloads), len(workloads)-1)
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var out bytes.Buffer
			dir := t.TempDir()
			cfg := &runConfig{w: w, seed: 3, seconds: 1, trace: trace, dataDir: dir,
				traceOut: filepath.Join(dir, "trace.json"), size: tiny, minRounds: 2}
			if code := execute(cfg, &out); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", w.name, trace, res)
			}
			for name, v := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%v: printed %s in %q, declared %q (declared: %v)", w.name, trace, name, v.Unit, unit, ok)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not printed", w.name, trace, name)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: no Chrome trace: %v", w.name, err)
				}
			}
			// Only the Chrome trace may outlive the run.
			if entries, _ := os.ReadDir(dir); len(entries) != b2i(trace) {
				t.Errorf("%s trace=%v: scratch left behind: %v", w.name, trace, entries)
			}
		}
	}
}
