// Package flagspec declares the flags used by the unplugged activity as
// layered paint programs.
//
// A flag is a sequence of Layers painted back-to-front, exactly the
// Painter's-algorithm structure the paper's Knox follow-up discusses for the
// flag of Great Britain (§III-D): "the background must be colored before the
// diagonals, which must be colored before the rectilinear lines." Layer
// order is therefore semantic — it induces the dependency graphs of
// package depgraph — and not merely a rendering convenience.
//
// Shapes are declared in normalized coordinates so the same spec rasterizes
// onto any grid size; the paper's handouts are coarse grids (on the order of
// 12×8 for Mauritius, 25×12 for the Canadian handout) and all defaults here
// match that scale.
package flagspec

import (
	"fmt"
	"sort"

	"flagsim/internal/geom"
	"flagsim/internal/palette"
)

// Layer is one paint pass: fill every cell of Shape with Color. Layers
// within a flag are ordered; a later layer overpaints earlier ones where
// they overlap.
type Layer struct {
	// Name identifies the layer in dependency graphs and schedules,
	// e.g. "background", "saltire", "red-triangle".
	Name string
	// Color is the paint color for this layer.
	Color palette.Color
	// Shape selects the cells the layer covers.
	Shape geom.Shape
	// DependsOn lists names of layers that must be fully painted before
	// this one may begin. An empty list means the layer depends only on
	// the layers it visually overpaints (computed by Overlaps); flags with
	// purely disjoint layers (Mauritius) have fully independent layers.
	DependsOn []string
}

// Flag is a named, ordered stack of layers plus the default grid size used
// by the activity's handouts.
type Flag struct {
	// Name is the lowercase flag identifier ("mauritius", "canada", ...).
	Name string
	// DefaultW and DefaultH are the handout grid dimensions in cells.
	DefaultW, DefaultH int
	// Layers are painted in order.
	Layers []Layer
}

// Validate checks structural invariants: non-empty layers, unique layer
// names, valid colors, and DependsOn references that resolve to earlier
// layers (a layer may not depend on one painted after it).
func (f *Flag) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("flagspec: flag has no name")
	}
	if f.DefaultW <= 0 || f.DefaultH <= 0 {
		return fmt.Errorf("flagspec: %s: non-positive default size %dx%d", f.Name, f.DefaultW, f.DefaultH)
	}
	if len(f.Layers) == 0 {
		return fmt.Errorf("flagspec: %s: no layers", f.Name)
	}
	seen := make(map[string]int, len(f.Layers))
	for i, l := range f.Layers {
		if l.Name == "" {
			return fmt.Errorf("flagspec: %s: layer %d has no name", f.Name, i)
		}
		if _, dup := seen[l.Name]; dup {
			return fmt.Errorf("flagspec: %s: duplicate layer %q", f.Name, l.Name)
		}
		if !l.Color.Valid() || l.Color == palette.None {
			return fmt.Errorf("flagspec: %s: layer %q has invalid color", f.Name, l.Name)
		}
		if l.Shape == nil {
			return fmt.Errorf("flagspec: %s: layer %q has no shape", f.Name, l.Name)
		}
		for _, dep := range l.DependsOn {
			j, ok := seen[dep]
			if !ok {
				return fmt.Errorf("flagspec: %s: layer %q depends on unknown or later layer %q", f.Name, l.Name, dep)
			}
			if j >= i {
				return fmt.Errorf("flagspec: %s: layer %q depends on non-earlier layer %q", f.Name, l.Name, dep)
			}
		}
		seen[l.Name] = i
	}
	return nil
}

// Layer returns the named layer, or nil.
func (f *Flag) Layer(name string) *Layer {
	for i := range f.Layers {
		if f.Layers[i].Name == name {
			return &f.Layers[i]
		}
	}
	return nil
}

// LayerNames returns layer names in paint order.
func (f *Flag) LayerNames() []string {
	out := make([]string, len(f.Layers))
	for i, l := range f.Layers {
		out[i] = l.Name
	}
	return out
}

// Colors returns the distinct paint colors the flag needs, in stable order.
// This is the set of implements a team must be handed.
func (f *Flag) Colors() []palette.Color {
	set := make(map[palette.Color]bool)
	for _, l := range f.Layers {
		set[l.Color] = true
	}
	out := make([]palette.Color, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Overlaps reports, for each layer index i, the indices j < i whose shapes
// share at least one cell with layer i at the given raster size. These are
// the implied paint-order dependencies of the Painter's algorithm.
func (f *Flag) Overlaps(w, h int) [][]int {
	masks := make([][]bool, len(f.Layers))
	for i, l := range f.Layers {
		m := make([]bool, w*h)
		shape := geom.Prepare(l.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if shape.Contains(geom.Pt{X: x, Y: y}, w, h) {
					m[y*w+x] = true
				}
			}
		}
		masks[i] = m
	}
	out := make([][]int, len(f.Layers))
	for i := range f.Layers {
		for j := 0; j < i; j++ {
			if masksIntersect(masks[i], masks[j]) {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

func masksIntersect(a, b []bool) bool {
	for i := range a {
		if a[i] && b[i] {
			return true
		}
	}
	return false
}

// registry holds the built-in flags keyed by name.
var registry = map[string]*Flag{}

func register(f *Flag) *Flag {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[f.Name]; dup {
		panic("flagspec: duplicate flag " + f.Name)
	}
	registry[f.Name] = f
	return f
}

// Lookup returns the flag with the given name: a built-in, or — for
// prefixed names like "gen:v1:42:7" — whatever a registered dynamic
// resolver produces (see RegisterDynamic). A malformed dynamic name
// returns the resolver's own typed error, not the unknown-flag error.
func Lookup(name string) (*Flag, error) {
	f, ok := registry[name]
	if !ok {
		if df, handled, err := resolveDynamic(name); handled {
			return df, err
		}
		return nil, fmt.Errorf("flagspec: unknown flag %q (have %v)", name, Names())
	}
	return f, nil
}

// Names returns the sorted names of all built-in flags.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered flag, sorted by name.
func All() []*Flag {
	names := Names()
	out := make([]*Flag, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
