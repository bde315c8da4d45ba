package core

import (
	"reflect"
	"testing"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

func run(t *testing.T, id ScenarioID, seed uint64) *sim.Result {
	t.Helper()
	scen, err := ScenarioByID(id)
	if err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(scen.Workers, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunSpec{Flag: flagspec.Mauritius, Scenario: scen, Team: team, Setup: DefaultSetup})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCoreScenariosMatchFig1(t *testing.T) {
	scens := CoreScenarios()
	if len(scens) != 4 {
		t.Fatalf("%d scenarios, want 4", len(scens))
	}
	workers := []int{1, 2, 4, 4}
	for i, s := range scens {
		if s.Workers != workers[i] {
			t.Fatalf("scenario %d workers %d, want %d", i+1, s.Workers, workers[i])
		}
		if s.Description == "" {
			t.Fatalf("scenario %d lacks a description", i+1)
		}
	}
}

func TestScenarioByIDUnknown(t *testing.T) {
	if _, err := ScenarioByID(ScenarioID(99)); err == nil {
		t.Fatal("unknown scenario should error")
	}
}

func TestAllScenariosRunAndVerify(t *testing.T) {
	for _, id := range []ScenarioID{S1, S2, S3, S4, S4Pipelined} {
		res := run(t, id, 42)
		if res.Makespan <= DefaultSetup {
			t.Fatalf("%v makespan %v implausible", id, res.Makespan)
		}
	}
}

func TestScenarioTimesOrdering(t *testing.T) {
	t1 := run(t, S1, 1).Makespan
	t2 := run(t, S2, 1).Makespan
	t3 := run(t, S3, 1).Makespan
	t4 := run(t, S4, 1).Makespan
	if !(t1 > t2 && t2 > t3) {
		t.Fatalf("expected t1 > t2 > t3: %v %v %v", t1, t2, t3)
	}
	if t4 <= t3 {
		t.Fatalf("scenario 4 (%v) should be slower than 3 (%v)", t4, t3)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	scen, _ := ScenarioByID(S3)
	team, _ := NewTeam(2, 1)
	if _, err := Run(RunSpec{Flag: flagspec.Mauritius, Scenario: scen, Team: team}); err == nil {
		t.Fatal("wrong team size should error")
	}
	if _, err := Run(RunSpec{Scenario: scen, Team: team}); err == nil {
		t.Fatal("nil flag should error")
	}
}

// TestRunGeometry: a run given its flag's geometry at its size gives the
// same result as one that builds its own, for both executors; a
// geometry of another size or flag is refused.
func TestRunGeometry(t *testing.T) {
	f := flagspec.GreatBritain
	scen, _ := ScenarioByID(S2)
	for name, run := range map[string]func(RunSpec) (*sim.Result, error){"static": Run, "steal": RunStealing} {
		spec := func(geo *workplan.Geometry) RunSpec {
			team, _ := NewTeam(2, 3)
			return RunSpec{Flag: f, Scenario: scen, Team: team, Setup: DefaultSetup, Geometry: geo}
		}
		want, err := run(spec(nil))
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(spec(workplan.NewGeometry(f, f.DefaultW, f.DefaultH)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.Events != want.Events || !got.Grid.Equal(want.Grid) ||
			!reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("%s: run from a given geometry differs from its own", name)
		}
		for _, geo := range []*workplan.Geometry{
			workplan.NewGeometry(f, f.DefaultW+1, f.DefaultH),
			workplan.NewGeometry(flagspec.Jordan, f.DefaultW, f.DefaultH),
		} {
			if _, err := run(spec(geo)); err == nil {
				t.Errorf("%s: a mismatched geometry was used", name)
			}
		}
	}
}

func TestRunDefaultsImplements(t *testing.T) {
	scen, _ := ScenarioByID(S1)
	team, _ := NewTeam(1, 3)
	res, err := Run(RunSpec{Flag: flagspec.France, Scenario: scen, Team: team})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Implements) != len(flagspec.France.Colors()) {
		t.Fatalf("default set has %d implements", len(res.Implements))
	}
}

func TestSpeedupLesson(t *testing.T) {
	base := run(t, S1, 7)
	runs := map[ScenarioID]*sim.Result{
		S2: run(t, S2, 7),
		S3: run(t, S3, 7),
	}
	lesson, err := SpeedupLesson(base, runs)
	if err != nil {
		t.Fatal(err)
	}
	s2 := lesson.Values["scenario-2-speedup"]
	s3 := lesson.Values["scenario-3-speedup"]
	if s2 <= 1 || s3 <= s2 {
		t.Fatalf("speedups s2=%v s3=%v", s2, s3)
	}
	// Sub-linear because of setup (Amdahl) and switch overheads.
	if s3 >= lesson.Values["scenario-3-linear"] {
		t.Fatalf("s3=%v should be below linear %v", s3, lesson.Values["scenario-3-linear"])
	}
	if _, err := SpeedupLesson(nil, runs); err == nil {
		t.Fatal("nil baseline should error")
	}
}

func TestWarmupLesson(t *testing.T) {
	scen, _ := ScenarioByID(S1)
	team, _ := NewTeam(1, 11)
	first, err := Run(RunSpec{Flag: flagspec.Mauritius, Scenario: scen, Team: team})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(RunSpec{Flag: flagspec.Mauritius, Scenario: scen, Team: team})
	if err != nil {
		t.Fatal(err)
	}
	lesson, err := WarmupLesson(first, second)
	if err != nil {
		t.Fatal(err)
	}
	if lesson.Values["improvement-percent"] <= 0 {
		t.Fatalf("improvement %v should be positive", lesson.Values["improvement-percent"])
	}
	if _, err := WarmupLesson(first, nil); err == nil {
		t.Fatal("nil run should error")
	}
}

func TestTechnologyLesson(t *testing.T) {
	scen, _ := ScenarioByID(S1)
	byKind := map[string]*sim.Result{}
	for _, kind := range []implement.Kind{implement.Dauber, implement.Crayon} {
		team, _ := NewTeam(1, 13)
		res, err := Run(RunSpec{
			Flag: flagspec.Mauritius, Scenario: scen, Team: team,
			Set: implement.NewSet(kind, flagspec.Mauritius.Colors()),
		})
		if err != nil {
			t.Fatal(err)
		}
		byKind[kind.String()] = res
	}
	lesson, err := TechnologyLesson(byKind)
	if err != nil {
		t.Fatal(err)
	}
	if lesson.Values["dauber-seconds"] >= lesson.Values["crayon-seconds"] {
		t.Fatalf("dauber (%v) should beat crayon (%v)",
			lesson.Values["dauber-seconds"], lesson.Values["crayon-seconds"])
	}
	if _, err := TechnologyLesson(map[string]*sim.Result{"x": nil}); err == nil {
		t.Fatal("single kind should error")
	}
}

func TestContentionLesson(t *testing.T) {
	s3 := run(t, S3, 17)
	s4 := run(t, S4, 17)
	lesson, err := ContentionLesson(s3, s4)
	if err != nil {
		t.Fatal(err)
	}
	if lesson.Values["s4-slowdown-percent"] <= 0 {
		t.Fatalf("slowdown %v should be positive", lesson.Values["s4-slowdown-percent"])
	}
	if lesson.Values["s4-wait-seconds"] <= 0 {
		t.Fatal("scenario 4 must wait on implements")
	}
	if lesson.Values["s4-max-queue"] < 1 {
		t.Fatalf("max queue %v", lesson.Values["s4-max-queue"])
	}
}

func TestPipeliningLesson(t *testing.T) {
	naive := run(t, S4, 19)
	piped := run(t, S4Pipelined, 19)
	lesson, err := PipeliningLesson(naive, piped)
	if err != nil {
		t.Fatal(err)
	}
	if lesson.Values["pipelined-speedup"] <= 1 {
		t.Fatalf("pipelined speedup %v", lesson.Values["pipelined-speedup"])
	}
	if lesson.Values["naive-fill-seconds"] <= lesson.Values["pipelined-fill-seconds"] {
		t.Fatal("naive fill should exceed pipelined fill")
	}
}

func TestLoadBalanceLesson(t *testing.T) {
	lesson, err := LoadBalanceLesson(90*time.Second, 32*time.Second, 120*time.Second, 55*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lesson.Values["simple-speedup"] <= lesson.Values["intricate-speedup"] {
		t.Fatal("simple flag should see the greater speedup")
	}
	if _, err := LoadBalanceLesson(0, 1, 1, 1, 3); err == nil {
		t.Fatal("zero time should error")
	}
}
