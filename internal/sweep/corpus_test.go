package sweep_test

// The same-bytes corpus: a fixed set of runs over builtin and generated
// flags, every executor and scenario, at the handout size and at 13×7,
// digested over what a caller can see of each run — the wire result,
// the result's plan and any error text. The digest was recorded before
// the planners moved onto a shared per-batch geometry; it must not
// change while that geometry only changes cost.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"flagsim/internal/core"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// corpusDigest is the SHA-256 of the corpus's runs in order.
const corpusDigest = "9987266de72cecae49fc24edc149e9cd139df92467e12580f6de24448f3bc4fe"

// corpusSpecs is the 9 builtin flags and gen:v1:7:0 to gen:v1:7:47, each
// under all three executors, scenarios S1 to S4-pipelined, at the
// flag's default size and at 13×7, with seed = scenario: 1710 specs.
func corpusSpecs() []sweep.Spec {
	flags := flagspec.Names()
	for v := uint64(0); v < 48; v++ {
		flags = append(flags, flaggen.Name(7, v))
	}
	var out []sweep.Spec
	for _, fl := range flags {
		for _, exec := range []sweep.Exec{sweep.ExecStatic, sweep.ExecSteal, sweep.ExecDynamic} {
			for scen := core.S1; scen <= core.S4Pipelined; scen++ {
				for _, size := range [][2]int{{0, 0}, {13, 7}} {
					sp := sweep.Spec{Exec: exec, Flag: fl, W: size[0], H: size[1],
						Scenario: scen, Kind: implement.ThickMarker, Seed: uint64(scen)}
					if exec == sweep.ExecDynamic {
						s, _ := core.ScenarioByID(scen)
						sp.Workers = s.Workers
					}
					out = append(out, sp)
				}
			}
		}
	}
	return out
}

// digestRun writes one run's visible outcome into h and reports whether
// it failed.
func digestRun(t *testing.T, h hash.Hash, sp sweep.Spec, res *sim.Result, err error) bool {
	t.Helper()
	fmt.Fprintf(h, "%s\n", sp.Label())
	if err != nil {
		fmt.Fprintf(h, "error: %s\n", err)
		return true
	}
	for _, v := range []any{wire.NewSimResult(res), res.Plan} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(raw, '\n'))
	}
	return false
}

func TestCorpusDigest(t *testing.T) {
	specs := corpusSpecs()
	if len(specs) != 1710 {
		t.Fatalf("%d corpus specs, want 1710", len(specs))
	}
	pooled := sweep.New(sweep.Options{Workers: 4}).Run(nil, specs)
	for name, outcome := range map[string]func(i int) (*sim.Result, error){
		"pool": func(i int) (*sim.Result, error) { return pooled.Runs[i].Result, pooled.Runs[i].Err },
		"RunOnce": func(i int) (*sim.Result, error) {
			return specs[i].RunOnce(nil)
		},
	} {
		h := sha256.New()
		failed := 0
		for i, sp := range specs {
			res, err := outcome(i)
			if digestRun(t, h, sp, res, err) {
				failed++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
			t.Errorf("%s: corpus digest %s, want %s (%d error rows)", name, got, corpusDigest, failed)
		}
	}
}
