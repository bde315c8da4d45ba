package processor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flagsim/internal/geom"
	"flagsim/internal/implement"
	"flagsim/internal/rng"
)

func marker() *implement.Implement {
	return &implement.Implement{
		ID: 0, Color: 1, Kind: implement.ThickMarker,
		Spec: implement.DefaultSpec(implement.ThickMarker),
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []Profile{
		{},                    // no name
		{Name: "P", Skill: 0}, // zero skill
		{Name: "P", Skill: 1, WarmupPenalty: -1},
		{Name: "P", Skill: 1, WarmupPenalty: 0.5}, // penalty without decay
		{Name: "P", Skill: 1, MovePerCell: -time.Second},
		{Name: "P", Skill: 1, JitterSigma: -0.1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, p)
		}
	}
	if err := DefaultProfile("P1").Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmupDecays(t *testing.T) {
	pr := MustNew(DefaultProfile("P1"), rng.New(1))
	first := pr.WarmupFactor()
	if first <= 1 {
		t.Fatalf("initial warmup factor %v should exceed 1", first)
	}
	im := marker()
	for i := 0; i < 100; i++ {
		pr.ServiceTime(geom.Pt{X: i % 10, Y: i / 10}, im)
	}
	later := pr.WarmupFactor()
	if later >= first {
		t.Fatalf("warmup should decay: %v -> %v", first, later)
	}
	if later > 1.01 {
		t.Fatalf("after 100 cells warmup factor %v should be near 1", later)
	}
}

func TestWarmupDisabled(t *testing.T) {
	p := DefaultProfile("P1")
	p.WarmupPenalty = 0
	pr := MustNew(p, rng.New(1))
	if pr.WarmupFactor() != 1 {
		t.Fatalf("disabled warmup factor %v", pr.WarmupFactor())
	}
}

// refWarmup is the warmup model as the paper states it, the reference
// WarmupFactor must reproduce bit for bit.
func refWarmup(penalty, decay float64, n int) float64 {
	return 1 + penalty*math.Exp(-float64(n)/decay)
}

// TestWarmupTable: the default profile's table holds the formula bit
// for bit and stops at the first n where the formula is exactly 1.0,
// which it stays through n = 2²²; WarmupFactor reads the table there
// and 1 beyond it.
func TestWarmupTable(t *testing.T) {
	p := DefaultProfile("P1")
	if warmup.penalty != p.WarmupPenalty || warmup.decay != p.WarmupDecayCells {
		t.Fatalf("table built for (%v, %v), want the default (%v, %v)",
			warmup.penalty, warmup.decay, p.WarmupPenalty, p.WarmupDecayCells)
	}
	cut := len(warmup.factor)
	if cut != 721 {
		t.Fatalf("table holds %d entries, want 721", cut)
	}
	for n, f := range warmup.factor {
		if want := refWarmup(p.WarmupPenalty, p.WarmupDecayCells, n); math.Float64bits(f) != math.Float64bits(want) || f == 1 {
			t.Fatalf("factor[%d] = %v, formula %v", n, f, want)
		}
	}
	for n := cut; n <= 1<<22; n++ {
		if f := refWarmup(p.WarmupPenalty, p.WarmupDecayCells, n); f != 1 {
			t.Fatalf("formula at n = %d is %v, not 1", n, f)
		}
	}
	pr := MustNew(p, rng.New(1))
	for _, n := range []int{0, 1, 20, cut - 1, cut, cut + 1, 1 << 22, 1 << 30} {
		pr.cellsColored = n
		if got, want := pr.WarmupFactor(), refWarmup(p.WarmupPenalty, p.WarmupDecayCells, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WarmupFactor at n = %d is %v, formula %v", n, got, want)
		}
	}
}

// TestWarmupFollowsProfileChanges: Profile is embedded and exported, so
// a caller may change the warmup fields after New; WarmupFactor follows
// the new values, and a zero penalty still gives 1.
func TestWarmupFollowsProfileChanges(t *testing.T) {
	pr := MustNew(DefaultProfile("P1"), rng.New(1))
	for _, c := range []struct{ penalty, decay float64 }{
		{0.5, 20}, {0.7, 20}, {0.5, 7}, {1.25, 3.5}, {0.5, 20},
	} {
		pr.WarmupPenalty, pr.WarmupDecayCells = c.penalty, c.decay
		for _, n := range []int{0, 1, 2, 50, 720, 721, 5000} {
			pr.cellsColored = n
			if got, want := pr.WarmupFactor(), refWarmup(c.penalty, c.decay, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("(%v, %v) at n = %d: WarmupFactor %v, formula %v", c.penalty, c.decay, n, got, want)
			}
		}
	}
	pr.WarmupPenalty = 0
	pr.cellsColored = 3
	if f := pr.WarmupFactor(); f != 1 {
		t.Fatalf("zero penalty: WarmupFactor %v, want 1", f)
	}
}

func TestServiceTimeComposition(t *testing.T) {
	p := DefaultProfile("P1")
	p.WarmupPenalty = 0
	p.MovePerCell = 100 * time.Millisecond
	pr := MustNew(p, rng.New(1))
	im := marker()
	// First cell: no movement.
	d1 := pr.ServiceTime(geom.Pt{X: 0, Y: 0}, im)
	if d1 != time.Second {
		t.Fatalf("first cell %v, want 1s", d1)
	}
	// Adjacent cell: one unit of movement.
	d2 := pr.ServiceTime(geom.Pt{X: 1, Y: 0}, im)
	if d2 != time.Second+100*time.Millisecond {
		t.Fatalf("adjacent cell %v", d2)
	}
	// Far jump: distance 5.
	d3 := pr.ServiceTime(geom.Pt{X: 4, Y: 2}, im)
	if d3 != time.Second+500*time.Millisecond {
		t.Fatalf("far cell %v", d3)
	}
}

func TestSkillDividesTime(t *testing.T) {
	p := DefaultProfile("fast")
	p.WarmupPenalty = 0
	p.MovePerCell = 0
	p.Skill = 2
	pr := MustNew(p, rng.New(1))
	if d := pr.ServiceTime(geom.Pt{}, marker()); d != 500*time.Millisecond {
		t.Fatalf("skill-2 cell took %v", d)
	}
}

func TestResetRunKeepsExperience(t *testing.T) {
	pr := MustNew(DefaultProfile("P1"), rng.New(1))
	im := marker()
	for i := 0; i < 10; i++ {
		pr.ServiceTime(geom.Pt{X: i, Y: 0}, im)
	}
	exp := pr.CellsColored()
	pr.ResetRun()
	if pr.CellsColored() != exp {
		t.Fatal("ResetRun must keep session experience")
	}
	// After ResetRun, the next cell pays no movement cost.
	d := pr.ServiceTime(geom.Pt{X: 0, Y: 0}, im)
	base := pr.PeekServiceTime(geom.Pt{X: 0, Y: 0}, im)
	_ = base
	if d > 2*time.Second {
		t.Fatalf("first cell after reset should not include movement: %v", d)
	}
	pr.ResetSession()
	if pr.CellsColored() != 0 {
		t.Fatal("ResetSession must clear experience")
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	pr := MustNew(DefaultProfile("P1"), rng.New(1))
	im := marker()
	before := pr.CellsColored()
	d1 := pr.PeekServiceTime(geom.Pt{}, im)
	d2 := pr.PeekServiceTime(geom.Pt{}, im)
	if pr.CellsColored() != before {
		t.Fatal("Peek must not advance experience")
	}
	if d1 != d2 {
		t.Fatalf("repeated peeks differ: %v vs %v", d1, d2)
	}
}

func TestJitterVariesAroundBase(t *testing.T) {
	p := DefaultProfile("P1")
	p.WarmupPenalty = 0
	p.MovePerCell = 0
	p.JitterSigma = 0.3
	pr := MustNew(p, rng.New(5))
	im := marker()
	var min, max time.Duration
	for i := 0; i < 500; i++ {
		pr.ResetRun()
		d := pr.ServiceTime(geom.Pt{}, im)
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == max {
		t.Fatal("jitter produced constant times")
	}
	if min <= 0 {
		t.Fatalf("non-positive service time %v", min)
	}
	if max > 5*time.Second {
		t.Fatalf("implausible jittered time %v", max)
	}
}

func TestBreaksOnlyWhenBreakable(t *testing.T) {
	pr := MustNew(DefaultProfile("P1"), rng.New(1))
	if pr.Breaks(marker()) {
		t.Fatal("unbreakable implement broke")
	}
	crayon := &implement.Implement{
		ID: 1, Color: 1, Kind: implement.Crayon,
		Spec: implement.Spec{SpeedFactor: 1, BreakProb: 1, Repair: time.Second},
	}
	if !pr.Breaks(crayon) {
		t.Fatal("p=1 crayon did not break")
	}
}

func TestTeamNamesAndErrors(t *testing.T) {
	team, err := Team(4, DefaultProfile("ignored"), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range team {
		want := []string{"P1", "P2", "P3", "P4"}[i]
		if pr.Name != want {
			t.Fatalf("member %d named %q", i, pr.Name)
		}
	}
	if _, err := Team(0, DefaultProfile("x"), rng.New(1)); err == nil {
		t.Fatal("expected error for empty team")
	}
	// Past the static names, and on every member, a name and a stream
	// are what New with a formatted name and a labeled split gives.
	big, err := Team(20, DefaultProfile("x"), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range big {
		name := fmt.Sprintf("P%d", i+1)
		ref := MustNew(DefaultProfile(name), rng.New(7).SplitLabeled(name))
		if pr.Name != name || pr.rng.Uint64() != ref.rng.Uint64() {
			t.Fatalf("member %d: name %q, want %q, or its stream differs", i, pr.Name, name)
		}
	}
	bad := DefaultProfile("x")
	bad.Skill = 0
	if _, err := Team(2, bad, rng.New(1)); err == nil || !strings.Contains(err.Error(), "P1") {
		t.Fatalf("invalid template: err = %v, want one naming P1", err)
	}
}

func TestServiceTimeAlwaysPositiveProperty(t *testing.T) {
	check := func(seed uint64, skillRaw, jitterRaw uint8, x, y uint8) bool {
		p := DefaultProfile("P")
		p.Skill = 0.5 + float64(skillRaw%30)/10
		p.JitterSigma = float64(jitterRaw%5) / 10
		pr := MustNew(p, rng.New(seed))
		d := pr.ServiceTime(geom.Pt{X: int(x % 30), Y: int(y % 30)}, marker())
		return d > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNilForInvalid(t *testing.T) {
	if _, err := New(Profile{}, nil); err == nil {
		t.Fatal("invalid profile should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid profile")
		}
	}()
	MustNew(Profile{}, nil)
}
