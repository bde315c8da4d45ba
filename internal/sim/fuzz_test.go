package sim

// FuzzEngineConfig drives the unified engine (static and stealing
// sources) with randomized workloads: arbitrary raster sizes, team sizes,
// decomposition strategies, implement technologies and counts, hold
// policies, jittered service times, and setup phases. Whatever the
// configuration, the engine must
//
//   - never panic,
//   - never deadlock (a watchdog converts a hung kernel into a failure),
//   - color the flag correctly and conserve work, and
//   - keep makespan >= setup + the largest per-processor busy time
//     (paint + overhead both accrue on a processor's serial timeline).
//
// The parser packages have had fuzz coverage since the seed; this target
// gives the simulator core the same treatment, seeded from the golden
// configurations pinned in testdata/.

import (
	"testing"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/processor"
	"flagsim/internal/rng"
	"flagsim/internal/workplan"
)

// fuzzPlan builds one of the decompositions at a fuzzer-chosen raster
// size, or reports that the combination is structurally invalid.
func fuzzPlan(f *flagspec.Flag, strat, pRaw, wRaw, hRaw uint8) (*workplan.Plan, error) {
	w := 1 + int(wRaw)%48
	h := 1 + int(hRaw)%24
	p := int(pRaw%4) + 1
	switch strat % 5 {
	case 0:
		return workplan.Sequential(f, w, h)
	case 1:
		if p > len(f.Layers) {
			p = len(f.Layers)
		}
		return workplan.LayerBlocks(f, w, h, p)
	case 2:
		return workplan.VerticalSlices(f, w, h, p, pRaw%2 == 0)
	case 3:
		return workplan.Cyclic(f, w, h, p)
	default:
		return workplan.Blocks(f, w, h, p, p, 2)
	}
}

func FuzzEngineConfig(f *testing.F) {
	// Seed corpus mirroring the golden configurations (golden_test.go):
	// flag, strategy, team size, raster size, kind, seed, jitter, setup,
	// hold policy, implements per color, executor.
	f.Add(uint8(0), uint8(2), uint8(3), uint8(0), uint8(0), uint8(1), uint64(1), uint16(0), uint32(20000), uint8(0), uint8(0), uint8(0))     // static-s4-mauritius
	f.Add(uint8(3), uint8(2), uint8(3), uint8(0), uint8(0), uint8(3), uint64(7), uint16(150), uint32(0), uint8(0), uint8(0), uint8(0))       // static-gb-crayon-jitter
	f.Add(uint8(0), uint8(3), uint8(2), uint8(0), uint8(0), uint8(1), uint64(3), uint16(0), uint32(0), uint8(1), uint8(1), uint8(0))         // static-eager-cyclic
	f.Add(uint8(0), uint8(2), uint8(3), uint8(63), uint8(31), uint8(1), uint64(5), uint16(200), uint32(10000), uint8(0), uint8(1), uint8(1)) // steal, large raster

	f.Fuzz(func(t *testing.T, fi, strat, pRaw, wRaw, hRaw, kindRaw uint8,
		seed uint64, jitterMil uint16, setupMs uint32, holdRaw, extraRaw, execRaw uint8) {
		flags := flagspec.All()
		fl := flags[int(fi)%len(flags)]
		plan, err := fuzzPlan(fl, strat, pRaw, wRaw, hRaw)
		if err != nil {
			t.Skip() // the builder rejected the combination up front
		}
		profile := processor.DefaultProfile("P")
		profile.JitterSigma = float64(jitterMil%2000) / 1000
		team, err := processor.Team(plan.NumProcs(), profile, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Plan:  plan,
			Procs: team,
			Set:   implement.NewSetN(implement.Kinds()[int(kindRaw)%4], fl.Colors(), int(extraRaw%3)+1),
			Hold:  HoldPolicy(holdRaw % 2),
			Setup: time.Duration(setupMs%60000) * time.Millisecond,
		}
		runner := Run
		if execRaw%2 == 1 {
			runner = RunSteal
		}

		// Watchdog: a finite workload must drain; a stuck kernel is a
		// deadlock, not a slow test.
		type outcome struct {
			res *Result
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := runner(cfg)
			ch <- outcome{res, err}
		}()
		var res *Result
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("engine rejected a structurally valid config: %v", o.err)
			}
			res = o.res
		case <-time.After(30 * time.Second):
			t.Fatalf("deadlock: engine did not drain (flag %s, plan %s, %d procs)",
				fl.Name, plan.Strategy, plan.NumProcs())
		}

		if err := res.Verify(fl); err != nil {
			t.Fatal(err)
		}
		if res.Makespan < res.SetupTime {
			t.Fatalf("makespan %v < setup %v", res.Makespan, res.SetupTime)
		}
		cells := 0
		var maxBusy time.Duration
		for _, p := range res.Procs {
			cells += p.Cells
			if busy := p.PaintTime + p.Overhead; busy > maxBusy {
				maxBusy = busy
			}
			if p.Finish > res.Makespan {
				t.Fatalf("%s finished at %v after makespan %v", p.Name, p.Finish, res.Makespan)
			}
		}
		if cells != plan.TotalTasks() {
			t.Fatalf("painted %d cells, plan has %d tasks", cells, plan.TotalTasks())
		}
		if res.Makespan < res.SetupTime+maxBusy {
			t.Fatalf("makespan %v < setup %v + max busy %v: time vanished from a processor's timeline",
				res.Makespan, res.SetupTime, maxBusy)
		}
	})
}
