package sim

import (
	"testing"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/processor"
	"flagsim/internal/rng"
	"flagsim/internal/workplan"
)

func dynTeam(t *testing.T, skills ...float64) []*processor.Processor {
	t.Helper()
	out := make([]*processor.Processor, len(skills))
	for i, s := range skills {
		p := processor.DefaultProfile("P")
		p.Name = "P" + string(rune('1'+i))
		p.WarmupPenalty = 0
		p.MovePerCell = 0
		p.Skill = s
		pr, err := processor.New(p, rng.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pr
	}
	return out
}

func runDynamic(t *testing.T, f *flagspec.Flag, policy PullPolicy, skills ...float64) *Result {
	t.Helper()
	res, err := RunDynamic(DynamicConfig{
		Flag:   f,
		Procs:  dynTeam(t, skills...),
		Set:    implement.NewSet(implement.ThickMarker, f.Colors()),
		Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(f); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDynamicPaintsCorrectly(t *testing.T) {
	for _, policy := range []PullPolicy{PullOrdered, PullColorAffinity} {
		for _, f := range []*flagspec.Flag{flagspec.Mauritius, flagspec.GreatBritain, flagspec.Jordan} {
			res := runDynamic(t, f, policy, 1, 1, 1)
			total := 0
			for _, p := range res.Procs {
				total += p.Cells
			}
			if total != res.Plan.TotalTasks() {
				t.Fatalf("%s/%s: painted %d of %d", f.Name, policy, total, res.Plan.TotalTasks())
			}
		}
	}
}

func TestDynamicAffinityBeatsOrderedUnderContention(t *testing.T) {
	// With one implement per color, ordered pulling funnels everyone
	// through the same stripe; affinity keeps each student on their
	// color.
	ordered := runDynamic(t, flagspec.Mauritius, PullOrdered, 1, 1, 1, 1)
	affinity := runDynamic(t, flagspec.Mauritius, PullColorAffinity, 1, 1, 1, 1)
	if affinity.Makespan >= ordered.Makespan {
		t.Fatalf("affinity (%v) should beat ordered (%v)", affinity.Makespan, ordered.Makespan)
	}
	if affinity.TotalWaitImplement() >= ordered.TotalWaitImplement() {
		t.Fatalf("affinity wait (%v) should be below ordered (%v)",
			affinity.TotalWaitImplement(), ordered.TotalWaitImplement())
	}
}

func TestDynamicBalancesHeterogeneousSkills(t *testing.T) {
	// One student twice as fast: with enough implements that color
	// exclusivity can't serialize the tail, self-scheduling gives the
	// fast student more cells. (With one implement per color the split
	// stays even — whoever holds the last color's marker finishes that
	// whole stripe — which is faithful to the physical activity.)
	f := flagspec.Mauritius
	res, err := RunDynamic(DynamicConfig{
		Flag:   f,
		Procs:  dynTeam(t, 2.0, 1.0),
		Set:    implement.NewSetN(implement.ThickMarker, f.Colors(), 2),
		Policy: PullColorAffinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(f); err != nil {
		t.Fatal(err)
	}
	fast, slow := res.Procs[0].Cells, res.Procs[1].Cells
	if fast <= slow {
		t.Fatalf("fast student painted %d cells, slow %d; dynamic should shift work", fast, slow)
	}
}

func TestDynamicBeatsStaticOnHeterogeneousTeam(t *testing.T) {
	// Static vertical slices give every student the same area; the slow
	// student is the critical path. Dynamic adapts.
	f := flagspec.Mauritius
	skills := []float64{1.6, 1.6, 1.6, 0.6}

	static := func() *Result {
		plan, err := staticSlicesPlan(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Plan:  plan,
			Procs: dynTeam(t, skills...),
			Set:   implement.NewSetN(implement.ThickMarker, f.Colors(), 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	dynamic, err := RunDynamic(DynamicConfig{
		Flag:   f,
		Procs:  dynTeam(t, skills...),
		Set:    implement.NewSetN(implement.ThickMarker, f.Colors(), 4),
		Policy: PullColorAffinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dynamic.Verify(f); err != nil {
		t.Fatal(err)
	}
	if dynamic.Makespan >= static.Makespan {
		t.Fatalf("dynamic (%v) should beat static slices (%v) with a slow teammate",
			dynamic.Makespan, static.Makespan)
	}
}

func TestDynamicSingleProcessor(t *testing.T) {
	res := runDynamic(t, flagspec.Mauritius, PullColorAffinity, 1)
	if res.Procs[0].Cells != 96 {
		t.Fatalf("solo dynamic painted %d cells", res.Procs[0].Cells)
	}
}

func TestDynamicLayeredFlagHonorsDependencies(t *testing.T) {
	res, err := RunDynamic(DynamicConfig{
		Flag:   flagspec.GreatBritain,
		Procs:  dynTeam(t, 1, 1, 1, 1),
		Set:    implement.NewSet(implement.ThickMarker, flagspec.GreatBritain.Colors()),
		Policy: PullOrdered,
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(flagspec.GreatBritain); err != nil {
		t.Fatal(err)
	}
	// The executed assignment must respect layer order per trace: no
	// white paint before the last blue-field cell.
	var fieldEnd, firstWhite int64 = 0, 1 << 62
	for _, sp := range res.Trace {
		if sp.Kind != SpanPaint {
			continue
		}
		if sp.Color == flagspec.GreatBritain.Layers[0].Color && int64(sp.End) > fieldEnd {
			fieldEnd = int64(sp.End)
		}
		if sp.Color == flagspec.GreatBritain.Layers[1].Color && int64(sp.Start) < firstWhite {
			firstWhite = int64(sp.Start)
		}
	}
	if firstWhite < fieldEnd {
		t.Fatalf("white painting started at %d before blue field finished at %d", firstWhite, fieldEnd)
	}
}

func TestDynamicValidation(t *testing.T) {
	if _, err := RunDynamic(DynamicConfig{}); err == nil {
		t.Fatal("nil flag should error")
	}
	if _, err := RunDynamic(DynamicConfig{Flag: flagspec.Mauritius}); err == nil {
		t.Fatal("no processors should error")
	}
	if _, err := RunDynamic(DynamicConfig{
		Flag:  flagspec.Mauritius,
		Procs: dynTeam(t, 1),
		Set:   implement.NewSet(implement.ThickMarker, flagspec.France.Colors()),
	}); err == nil {
		t.Fatal("uncovered colors should error")
	}
}

// TestDynamicGeometry: a dynamic run given its flag's geometry matches
// one that builds its own, and a geometry of another size is refused.
func TestDynamicGeometry(t *testing.T) {
	f := flagspec.GreatBritain
	cfg := func(geo *workplan.Geometry) DynamicConfig {
		return DynamicConfig{Flag: f, Procs: dynTeam(t, 1, 1.5), Policy: PullColorAffinity,
			Set: implement.NewSet(implement.ThickMarker, f.Colors()), Geometry: geo}
	}
	want, err := RunDynamic(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDynamic(cfg(workplan.NewGeometry(f, f.DefaultW, f.DefaultH)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Events != want.Events || !got.Grid.Equal(want.Grid) {
		t.Error("run from a given geometry differs from its own")
	}
	if _, err := RunDynamic(cfg(workplan.NewGeometry(f, f.DefaultW, f.DefaultH+1))); err == nil {
		t.Error("a geometry of another size was used")
	}
}

func TestDynamicDeterministic(t *testing.T) {
	a := runDynamic(t, flagspec.Mauritius, PullColorAffinity, 1, 1)
	b := runDynamic(t, flagspec.Mauritius, PullColorAffinity, 1, 1)
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("dynamic runs differ: %v/%d vs %v/%d", a.Makespan, a.Events, b.Makespan, b.Events)
	}
}

// staticSlicesPlan builds the scenario-4 style plan used by the
// heterogeneity comparison.
func staticSlicesPlan(f *flagspec.Flag, p int) (*workplan.Plan, error) {
	return workplan.VerticalSlices(f, f.DefaultW, f.DefaultH, p, true)
}
