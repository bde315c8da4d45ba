package sim

import (
	"testing"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/workplan"
)

// Static validation through one owned arena: a plan is validated once
// per arena, but every run still checks its implement set against the
// plan's colours, and an invalid plan is never cached.

// TestStaticValidationEveryRun: an invalid plan fails every run with
// Plan.Validate's error; a set that lacks a colour the plan paints fails
// every run with the coverage error, also after the plan was validated
// with a complete set, and a complete set runs again afterwards.
func TestStaticValidationEveryRun(t *testing.T) {
	plan := mauritiusPlan(t, 4)
	bad := *plan
	bad.PerProc = append([][]workplan.Task(nil), plan.PerProc...)
	bad.PerProc[0] = append([]workplan.Task(nil), plan.PerProc[0]...)
	bad.PerProc[0][0].Cell.X = -1
	want := bad.Validate()
	if want == nil {
		t.Fatal("the corrupted plan validates")
	}
	procs := dynTeam(t, 1, 1, 1, 1)
	full := allocSet()
	var noRed []palette.Color
	for _, c := range flagspec.Mauritius.Colors() {
		if c != palette.Red {
			noRed = append(noRed, c)
		}
	}
	lacking := implement.NewSet(implement.ThickMarker, noRed)
	const wantCover = "implement: set has no red implement"

	arena := NewArena()
	for _, run := range []func(Config) (*Result, error){Run, RunSteal} {
		for i := 0; i < 3; i++ {
			if _, err := run(Config{Plan: &bad, Procs: procs, Set: full, Arena: arena}); err == nil || err.Error() != want.Error() {
				t.Fatalf("invalid plan, run %d: error %v, want %v", i+1, err, want)
			}
		}
		for i, set := range []*implement.Set{lacking, full, lacking, lacking, full} {
			_, err := run(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
			if set == full && err != nil {
				t.Fatalf("run %d with a complete set: %v", i+1, err)
			}
			if set == lacking && (err == nil || err.Error() != wantCover) {
				t.Fatalf("run %d without red: error %v, want %q", i+1, err, wantCover)
			}
		}
	}
}

// TestWarmRunNewSetAllocationFree: once an owned arena has validated a
// plan, or a flag's colours for the dynamic executor, a run with another
// implement set each time, as a sweep builds one per run, allocates
// nothing.
func TestWarmRunNewSetAllocationFree(t *testing.T) {
	f := flagspec.Mauritius
	plan := mauritiusPlan(t, 5)
	procs := dynTeam(t, 1.3, 1.0, 1.0, 0.5)
	sets := []*implement.Set{allocSet(), allocSet(), allocSet()}
	for name, exec := range map[string]func(*implement.Set, *Arena) (*Result, error){
		"static": func(set *implement.Set, arena *Arena) (*Result, error) {
			return Run(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
		},
		"dynamic": func(set *implement.Set, arena *Arena) (*Result, error) {
			return RunDynamic(DynamicConfig{Flag: f, Procs: procs, Set: set, Arena: arena})
		},
	} {
		arena := NewArena()
		i := 0
		run := func() {
			i++
			if _, err := exec(sets[i%len(sets)], arena); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(6, run); got != 0 {
			t.Errorf("%s: a warm run with a new set allocates %.1f allocs/run, want 0", name, got)
		}
	}
}
