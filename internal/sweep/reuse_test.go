package sweep_test

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// reuseSpecs is every runnable (flag, executor, scenario, team size)
// of flags, with the implement kind and count, pull policy, faults,
// jitter, setup and size varied along the way, shuffled so that
// consecutive specs differ in shape, and each followed by its twin
// under another seed, so that an arena also runs one shape twice in a
// row, which is when it reuses what it cached for that shape. Specs
// that cannot run (a pipelined scenario on a flag with layer
// dependencies, a two-worker scenario on a solo team) are left out.
func reuseSpecs(t *testing.T, flags []string, sizes [][2]int, seed uint64) []sweep.Spec {
	t.Helper()
	light, err := fault.Preset("light", seed)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []implement.Kind{implement.ThickMarker, implement.Crayon, implement.Dauber}
	var specs []sweep.Spec
	i := 0
	for _, fl := range flags {
		for _, exec := range []sweep.Exec{sweep.ExecStatic, sweep.ExecSteal, sweep.ExecDynamic} {
			for scen := core.S1; scen <= core.S4Pipelined; scen++ {
				for workers := 1; workers <= 4; workers++ {
					size := sizes[i%len(sizes)]
					sp := sweep.Spec{Exec: exec, Flag: fl, W: size[0], H: size[1],
						Scenario: scen, Workers: workers, Kind: kinds[i%len(kinds)],
						PerColor: 1 + i%5/4, Seed: seed + uint64(i), Setup: time.Duration(i%3) * time.Second,
						Policy: sim.PullPolicy(i % 2)}
					if i%4 >= 2 {
						sp.Faults = light
					}
					if i%5 == 2 {
						sp.Jitter = 0.2
					}
					i++
					if _, err := sp.RunOnce(nil); err == nil {
						specs = append(specs, sp)
					}
				}
			}
		}
	}
	out := make([]sweep.Spec, 0, 2*len(specs))
	for _, j := range rand.New(rand.NewPCG(seed, 1)).Perm(len(specs)) {
		twin := specs[j]
		twin.Seed += 1 << 20
		out = append(out, specs[j], twin)
	}
	return out
}

// TestRecordBytesIndependentOfArenaReuse: a record-mode Sweeper's crew
// members compute every spec of a batch through one borrowed arena, and
// later batches through arenas earlier members returned. Whatever ran
// through the arena before, each record must hold exactly the bytes and
// summary of a fresh, independent run of its spec.
func TestRecordBytesIndependentOfArenaReuse(t *testing.T) {
	first := reuseSpecs(t,
		[]string{"mauritius", flaggen.Name(23, 0), "greatbritain", flaggen.Name(23, 1), "france"},
		[][2]int{{0, 0}, {13, 7}, {21, 11}}, 100)
	second := reuseSpecs(t,
		[]string{flaggen.Name(24, 5), "canada", "mauritius"},
		[][2]int{{17, 9}, {0, 0}, {40, 24}}, 900)
	if len(first) < 400 || len(second) < 240 {
		t.Fatalf("only %d and %d runnable specs", len(first), len(second))
	}
	for _, workers := range []int{1, 4} {
		s := sweep.New(sweep.Options{Workers: workers, Encode: wire.EncodeRecord})
		for bi, specs := range [][]sweep.Spec{first, second} {
			batch := s.Run(nil, specs)
			if err := batch.Err(); err != nil {
				t.Fatalf("workers=%d batch %d: %v", workers, bi, err)
			}
			for i, run := range batch.Runs {
				fresh, err := specs[i].RunOnce(nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := wire.MarshalResult(fresh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.Record.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				sum := sweep.Summary{Makespan: fresh.Makespan, Events: fresh.Events, GridSHA256: fresh.Grid.Digest()}
				if !bytes.Equal(got, want) || run.Record.Summary != sum {
					t.Fatalf("workers=%d batch %d: %s: record differs from a fresh run\n got %s\nwant %s",
						workers, bi, specs[i].Label(), got, want)
				}
				if run.Result != nil {
					t.Fatalf("workers=%d: %s: a record-mode run carries a live Result", workers, specs[i].Label())
				}
			}
		}
	}
}
