package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/sweep"
)

// TestRecordBytesMatchMarshalResult pins record mode to the reference
// encoding: over every builtin flag under every executor, scenarios 1-4
// and the none/light/heavy fault presets, plus gen:v1:7:0-15 under every
// executor, a record's bytes equal MarshalResult of a fresh RunOnce, and
// its summary equals that run's makespan, events and sha256 of its
// grid's String() form.
func TestRecordBytesMatchMarshalResult(t *testing.T) {
	execs := []string{"static", "steal", "dynamic"}
	var reqs []RunRequest
	for _, flag := range flagspec.Names() {
		for _, exec := range execs {
			for scen := 1; scen <= 4; scen++ {
				for _, preset := range fault.PresetNames() {
					req := RunRequest{Exec: exec, Flag: flag, Scenario: scen, Seed: 2}
					if preset != "none" {
						req.Faults = &FaultRequest{Preset: preset, Seed: 5}
					}
					reqs = append(reqs, req)
				}
			}
		}
	}
	for v := uint64(0); v < 16; v++ {
		for _, exec := range execs {
			reqs = append(reqs, RunRequest{Exec: exec, Flag: flaggen.Name(7, v), Scenario: 2, Seed: 1})
		}
	}
	specs := make([]sweep.Spec, len(reqs))
	for i, req := range reqs {
		var err error
		if specs[i], err = req.Spec(); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	s := sweep.New(sweep.Options{Encode: EncodeRecord})
	for _, run := range s.Run(nil, specs).Runs {
		if run.Err != nil {
			t.Fatalf("%s: %v", run.Spec.Label(), run.Err)
		}
		fresh, err := run.Spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalResult(fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.Record.Bytes()
		if err != nil {
			t.Fatalf("%s: %v", run.Spec.Label(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: record bytes\n %s\nwant\n %s", run.Spec.Label(), got, want)
		}
		sum := sweep.Summary{Makespan: fresh.Makespan, Events: fresh.Events,
			GridSHA256: sha256.Sum256([]byte(fresh.Grid.String()))}
		if run.Record.Summary != sum {
			t.Fatalf("%s: summary %+v, want %+v", run.Spec.Label(), run.Record.Summary, sum)
		}
	}
}
