package implement

import (
	"fmt"
	"strings"
	"testing"

	"flagsim/internal/palette"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("roundtrip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("quill"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestSpeedFactorsOrdered(t *testing.T) {
	// Fastest to slowest, per the paper's §III-C observation.
	kinds := Kinds()
	for i := 1; i < len(kinds); i++ {
		a, b := DefaultSpec(kinds[i-1]), DefaultSpec(kinds[i])
		if a.SpeedFactor >= b.SpeedFactor {
			t.Fatalf("%v (%v) should be faster than %v (%v)",
				kinds[i-1], a.SpeedFactor, kinds[i], b.SpeedFactor)
		}
	}
}

func TestOnlyCrayonsBreak(t *testing.T) {
	for _, k := range Kinds() {
		spec := DefaultSpec(k)
		if k == Crayon {
			if spec.BreakProb <= 0 || spec.Repair <= 0 {
				t.Fatal("crayons must be breakable with a repair cost")
			}
		} else if spec.BreakProb != 0 {
			t.Fatalf("%v should not break", k)
		}
	}
}

func TestNewSetOnePerColor(t *testing.T) {
	colors := []palette.Color{palette.Red, palette.Blue}
	s := NewSet(ThickMarker, colors)
	if len(s.All()) != 2 {
		t.Fatalf("set size %d", len(s.All()))
	}
	for _, c := range colors {
		if len(s.ForColor(c)) != 1 {
			t.Fatalf("color %v has %d implements", c, len(s.ForColor(c)))
		}
	}
	if s.ForColor(palette.Green) != nil {
		t.Fatal("green should be absent")
	}
}

func TestNewSetNUniqueIDs(t *testing.T) {
	s := NewSetN(Dauber, []palette.Color{palette.Red, palette.Green}, 3)
	seen := map[int]bool{}
	for _, im := range s.All() {
		if seen[im.ID] {
			t.Fatalf("duplicate ID %d", im.ID)
		}
		seen[im.ID] = true
		if im.Spec == (Spec{}) {
			t.Fatal("specs must be filled in")
		}
	}
	if len(s.All()) != 6 {
		t.Fatalf("set size %d, want 6", len(s.All()))
	}
}

func TestNewSetNPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSetN with n=0 should panic")
		}
	}()
	NewSetN(Dauber, []palette.Color{palette.Red}, 0)
}

func TestCovers(t *testing.T) {
	s := NewSet(ThinMarker, []palette.Color{palette.Red, palette.Blue})
	if err := s.Covers([]palette.Color{palette.Red}); err != nil {
		t.Fatal(err)
	}
	err := s.Covers([]palette.Color{palette.Red, palette.Yellow})
	if err == nil || !strings.Contains(err.Error(), "yellow") {
		t.Fatalf("expected yellow coverage error, got %v", err)
	}
}

func TestMixedSetValidation(t *testing.T) {
	if _, err := NewMixedSet(nil); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := NewMixedSet([]*Implement{nil}); err == nil {
		t.Fatal("nil implement should error")
	}
	if _, err := NewMixedSet([]*Implement{
		{ID: 1, Color: palette.Red, Kind: Dauber},
		{ID: 1, Color: palette.Blue, Kind: Dauber},
	}); err == nil {
		t.Fatal("duplicate ID should error")
	}
	if _, err := NewMixedSet([]*Implement{
		{ID: 1, Color: palette.None, Kind: Dauber},
	}); err == nil {
		t.Fatal("None color should error")
	}
	if _, err := NewMixedSet([]*Implement{
		{ID: 1, Color: palette.Red, Kind: Kind(99)},
	}); err == nil {
		t.Fatal("invalid kind should error")
	}
}

func TestMixedSetFillsDefaultSpec(t *testing.T) {
	s, err := NewMixedSet([]*Implement{
		{ID: 0, Color: palette.Red, Kind: Crayon},
		{ID: 1, Color: palette.Blue, Kind: Dauber, Spec: Spec{SpeedFactor: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ForColor(palette.Red)[0].Spec; got != DefaultSpec(Crayon) {
		t.Fatalf("zero spec not defaulted: %+v", got)
	}
	if got := s.ForColor(palette.Blue)[0].Spec.SpeedFactor; got != 9 {
		t.Fatalf("explicit spec overwritten: %v", got)
	}
}

func TestSetColors(t *testing.T) {
	s := NewSet(ThickMarker, []palette.Color{palette.Green, palette.Red})
	colors := s.Colors()
	if len(colors) != 2 {
		t.Fatalf("colors %v", colors)
	}
	// Colors come back in palette order, not insertion order.
	if colors[0] != palette.Red || colors[1] != palette.Green {
		t.Fatalf("colors %v not in palette order", colors)
	}
}

// TestSetOutOfPaletteColor: only palette colours are looked up. An
// implement of a colour outside the palette keeps its place and ID in
// All, but ForColor, Has and Covers find none, and never index past
// the per-colour table.
func TestSetOutOfPaletteColor(t *testing.T) {
	odd := []palette.Color{palette.NColors, 200, 255}
	s := NewSetN(Crayon, append([]palette.Color{palette.Red}, odd...), 2)
	if got := len(s.All()); got != 8 {
		t.Fatalf("set size %d, want 8", got)
	}
	for i, im := range s.All() {
		if im.ID != i {
			t.Fatalf("implement %d has ID %d", i, im.ID)
		}
	}
	for _, c := range odd {
		if s.ForColor(c) != nil || s.Has(c) {
			t.Errorf("%v: ForColor %v, Has %v, want nil and false", c, s.ForColor(c), s.Has(c))
		}
		if err := s.Covers([]palette.Color{palette.Red, c}); err == nil || !strings.Contains(err.Error(), c.String()) {
			t.Errorf("%v: Covers = %v, want an error naming it", c, err)
		}
	}
	if got := len(s.ForColor(palette.Red)); got != 2 {
		t.Errorf("red has %d implements, want 2", got)
	}
	if got := s.Colors(); len(got) != 1 || got[0] != palette.Red {
		t.Errorf("Colors = %v, want [red]", got)
	}
}

// TestSetForColorKeepsIDOrder: a colour listed twice, apart, holds its
// implements in ID order, and growing its list leaves All untouched.
func TestSetForColorKeepsIDOrder(t *testing.T) {
	s := NewSetN(Dauber, []palette.Color{palette.Red, palette.Blue, palette.Red}, 2)
	ids := func(ims []*Implement) []int {
		var out []int
		for _, im := range ims {
			out = append(out, im.ID)
		}
		return out
	}
	if got := ids(s.ForColor(palette.Red)); fmt.Sprint(got) != "[0 1 4 5]" {
		t.Errorf("red IDs %v, want [0 1 4 5]", got)
	}
	if got := ids(s.ForColor(palette.Blue)); fmt.Sprint(got) != "[2 3]" {
		t.Errorf("blue IDs %v, want [2 3]", got)
	}
	if got := ids(s.All()); fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Errorf("All IDs %v, want [0 1 2 3 4 5]", got)
	}
}
