package flagspec

import (
	"fmt"
	"strings"
	"testing"

	"flagsim/internal/geom"
	"flagsim/internal/palette"
)

func TestAllBuiltinsValidate(t *testing.T) {
	for _, f := range All() {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestLookup(t *testing.T) {
	f, err := Lookup("mauritius")
	if err != nil {
		t.Fatal(err)
	}
	if f != Mauritius {
		t.Fatal("Lookup returned a different flag instance")
	}
	if _, err := Lookup("atlantis"); err == nil {
		t.Fatal("expected error for unknown flag")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names has %d entries, All has %d", len(names), len(All()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, want := range []string{"mauritius", "france", "canada", "greatbritain", "jordan"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing built-in flag %q", want)
		}
	}
}

func TestMauritiusStructure(t *testing.T) {
	f := Mauritius
	if len(f.Layers) != 4 {
		t.Fatalf("mauritius has %d layers, want 4", len(f.Layers))
	}
	wantColors := []palette.Color{palette.Red, palette.Blue, palette.Yellow, palette.Green}
	for i, l := range f.Layers {
		if l.Color != wantColors[i] {
			t.Fatalf("layer %d color %v, want %v", i, l.Color, wantColors[i])
		}
		if len(l.DependsOn) != 0 {
			t.Fatalf("mauritius stripes must be independent; layer %q depends on %v", l.Name, l.DependsOn)
		}
	}
	// The stripes are disjoint, so no implied overlap dependencies either.
	overlaps := f.Overlaps(f.DefaultW, f.DefaultH)
	for i, os := range overlaps {
		if len(os) != 0 {
			t.Fatalf("mauritius layer %d overlaps %v", i, os)
		}
	}
}

func TestJordanDependencies(t *testing.T) {
	f := Jordan
	tri := f.Layer("red-triangle")
	if tri == nil {
		t.Fatal("jordan has no red-triangle layer")
	}
	if len(tri.DependsOn) != 3 {
		t.Fatalf("red-triangle depends on %v, want all three stripes", tri.DependsOn)
	}
	star := f.Layer("white-star")
	if star == nil || len(star.DependsOn) != 1 || star.DependsOn[0] != "red-triangle" {
		t.Fatal("white-star must depend exactly on red-triangle")
	}
}

func TestGreatBritainLayerChain(t *testing.T) {
	f := GreatBritain
	// Every non-background layer must transitively depend on blue-field.
	for _, l := range f.Layers[1:] {
		if len(l.DependsOn) == 0 {
			t.Fatalf("layer %q has no dependencies", l.Name)
		}
	}
	// Overlaps must imply that later layers overlap the field.
	overlaps := f.Overlaps(f.DefaultW, f.DefaultH)
	for i := 1; i < len(f.Layers); i++ {
		found := false
		for _, j := range overlaps[i] {
			if j == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("layer %q does not overlap the blue field", f.Layers[i].Name)
		}
	}
}

func TestColors(t *testing.T) {
	got := Mauritius.Colors()
	if len(got) != 4 {
		t.Fatalf("mauritius needs %d colors, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("Colors() must be sorted")
		}
	}
	if len(Japan.Colors()) != 2 {
		t.Fatalf("japan needs %d colors, want 2", len(Japan.Colors()))
	}
	// A flag that was never validated may paint outside the palette;
	// such a colour is listed once, in ascending order, like any other.
	odd := &Flag{Layers: []Layer{{Color: 200}, {Color: palette.Blue}, {Color: 200}, {Color: palette.Red}, {Color: 255}}}
	if got := fmt.Sprint(odd.Colors()); got != "[red blue color(200) color(255)]" {
		t.Fatalf("out-of-palette colors %s", got)
	}
}

func TestLayerNamesOrder(t *testing.T) {
	names := Jordan.LayerNames()
	want := []string{"black-stripe", "white-stripe", "green-stripe", "red-triangle", "white-star"}
	if len(names) != len(want) {
		t.Fatalf("got %d names", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("layer %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		flag *Flag
		want string
	}{
		{"no name", &Flag{DefaultW: 4, DefaultH: 4, Layers: []Layer{{Name: "x", Color: palette.Red, Shape: geom.Full{}}}}, "no name"},
		{"bad size", &Flag{Name: "f", DefaultW: 0, DefaultH: 4, Layers: []Layer{{Name: "x", Color: palette.Red, Shape: geom.Full{}}}}, "size"},
		{"no layers", &Flag{Name: "f", DefaultW: 4, DefaultH: 4}, "no layers"},
		{"dup layer", &Flag{Name: "f", DefaultW: 4, DefaultH: 4, Layers: []Layer{
			{Name: "x", Color: palette.Red, Shape: geom.Full{}},
			{Name: "x", Color: palette.Blue, Shape: geom.Full{}},
		}}, "duplicate"},
		{"none color", &Flag{Name: "f", DefaultW: 4, DefaultH: 4, Layers: []Layer{
			{Name: "x", Color: palette.None, Shape: geom.Full{}},
		}}, "invalid color"},
		{"nil shape", &Flag{Name: "f", DefaultW: 4, DefaultH: 4, Layers: []Layer{
			{Name: "x", Color: palette.Red},
		}}, "no shape"},
		{"unknown dep", &Flag{Name: "f", DefaultW: 4, DefaultH: 4, Layers: []Layer{
			{Name: "x", Color: palette.Red, Shape: geom.Full{}, DependsOn: []string{"ghost"}},
		}}, "unknown"},
		{"forward dep", &Flag{Name: "f", DefaultW: 4, DefaultH: 4, Layers: []Layer{
			{Name: "x", Color: palette.Red, Shape: geom.Full{}, DependsOn: []string{"y"}},
			{Name: "y", Color: palette.Blue, Shape: geom.Full{}},
		}}, "unknown or later"},
	}
	for _, tc := range cases {
		err := tc.flag.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestLayerLookupMissing(t *testing.T) {
	if Mauritius.Layer("maple-leaf") != nil {
		t.Fatal("mauritius should not have a maple leaf")
	}
}

func TestCanadaLeafDependsOnField(t *testing.T) {
	leaf := Canada.Layer("maple-leaf")
	if leaf == nil {
		t.Fatal("canada has no maple-leaf layer")
	}
	found := false
	for _, d := range leaf.DependsOn {
		if d == "white-field" {
			found = true
		}
	}
	if !found {
		t.Fatal("maple-leaf must depend on white-field")
	}
}
