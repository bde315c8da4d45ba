package flagspec

// Raster-aware validation and the dynamic-name resolver registry.
//
// Flag.Validate checks the structural invariants a hand-written spec can
// get wrong (names, colors, dependency ordering). Procedurally generated
// flags need a stronger contract — a shape drawn too thin for its grid
// rasterizes to zero cells and the planners then build empty layers — so
// the package-level Validate re-checks the spec against a concrete
// raster: every layer must cover at least one cell, and a full-coverage
// flag must leave no cell unpainted.
//
// The resolver registry lets a name scheme like "gen:v1:42:7" resolve
// anywhere a builtin name does today: Lookup consults the registry for
// prefixed names after the builtin table misses, so every caller of
// Lookup — sweep specs, wire DTOs, the differential harness, the CLI —
// inherits generated flags without knowing the generator exists.

import (
	"fmt"
	"strings"
	"sync"

	"flagsim/internal/geom"
)

// Validate checks f against a concrete w×h raster on top of the flag's
// structural invariants (Flag.Validate): every layer's shape must cover
// at least one cell, dependency references must resolve acyclically
// (guaranteed structurally: a layer may only depend on earlier layers),
// and, when fullCoverage is set, the union of all layers must paint
// every cell. Non-positive w or h fall back to the flag's defaults.
func Validate(f *Flag, w, h int, fullCoverage bool) error {
	if f == nil {
		return fmt.Errorf("flagspec: nil flag")
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if w <= 0 {
		w = f.DefaultW
	}
	if h <= 0 {
		h = f.DefaultH
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("flagspec: %s: non-positive raster %dx%d", f.Name, w, h)
	}
	painted := make([]bool, w*h)
	for _, l := range f.Layers {
		covered := 0
		shape := geom.Prepare(l.Shape, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if shape.Contains(geom.Pt{X: x, Y: y}, w, h) {
					covered++
					painted[y*w+x] = true
				}
			}
		}
		if covered == 0 {
			return fmt.Errorf("flagspec: %s: layer %q covers no cell at %dx%d", f.Name, l.Name, w, h)
		}
	}
	if fullCoverage {
		for i, p := range painted {
			if !p {
				return fmt.Errorf("flagspec: %s: cell (%d,%d) unpainted at %dx%d (full coverage required)",
					f.Name, i%w, i/w, w, h)
			}
		}
	}
	return nil
}

// resolvers maps a name-scheme prefix (the text before the first colon)
// to its resolver. Registration happens in package init functions, but
// the table is still guarded: tests exercise Lookup concurrently.
var resolvers struct {
	sync.RWMutex
	m map[string]func(name string) (*Flag, error)
}

// RegisterDynamic installs a resolver for names of the form
// "<prefix>:...". Lookup consults it after the builtin table misses, so
// a registered scheme's names work anywhere a builtin name does. The
// resolver must be deterministic — same name, same flag — because the
// sweep layer content-addresses results by what the name denotes.
// Registering a prefix twice panics, like a duplicate builtin would.
func RegisterDynamic(prefix string, fn func(name string) (*Flag, error)) {
	if prefix == "" || strings.Contains(prefix, ":") || fn == nil {
		panic("flagspec: invalid dynamic resolver registration")
	}
	resolvers.Lock()
	defer resolvers.Unlock()
	if resolvers.m == nil {
		resolvers.m = make(map[string]func(string) (*Flag, error))
	}
	if _, dup := resolvers.m[prefix]; dup {
		panic("flagspec: duplicate dynamic resolver " + prefix)
	}
	resolvers.m[prefix] = fn
}

// resolveDynamic routes a prefixed name to its registered resolver.
func resolveDynamic(name string) (*Flag, bool, error) {
	prefix, _, ok := strings.Cut(name, ":")
	if !ok {
		return nil, false, nil
	}
	resolvers.RLock()
	fn := resolvers.m[prefix]
	resolvers.RUnlock()
	if fn == nil {
		return nil, false, nil
	}
	f, err := fn(name)
	return f, true, err
}
