// Package implement models the drawing implements of the activity: the
// contended hardware of the paper's "computer".
//
// Each implement is an exclusive resource of a single color. The paper's
// §III-C lessons hang off this model:
//
//   - technology differences: daubers beat thick markers beat thin markers
//     beat crayons ("it is not possible to compare running times on
//     different hardware");
//   - contention: scenario 4 gives four processors vertical slices but only
//     one implement per color, so "everyone needed the same color at the
//     beginning and only one person at a time could use it";
//   - pipelining: passing implements around so each processor holds the
//     right one at each moment, with a fill delay before steady state;
//   - failure injection: the institution that used crayons "got many
//     complaints" — crayons here break stochastically and cost a
//     replacement delay, exercising fault paths in the scheduler.
package implement

import (
	"fmt"
	"time"

	"flagsim/internal/palette"
)

// Kind is an implement technology class.
type Kind uint8

// Implement technology classes, fastest to slowest. The relative factors
// follow the paper's observed ordering (§III-C): daubers fastest, then
// thick markers, thin markers; crayons were the complained-about slowest.
const (
	Dauber Kind = iota
	ThickMarker
	ThinMarker
	Crayon
)

// nkinds is the number of implement kinds.
const nkinds = 4

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k < nkinds }

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Dauber:
		return "dauber"
	case ThickMarker:
		return "thick-marker"
	case ThinMarker:
		return "thin-marker"
	case Crayon:
		return "crayon"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name to a Kind.
func ParseKind(name string) (Kind, error) {
	for k := Kind(0); k < nkinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("implement: unknown kind %q", name)
}

// Kinds returns all defined kinds, fastest first.
func Kinds() []Kind { return []Kind{Dauber, ThickMarker, ThinMarker, Crayon} }

// Spec is the timing model of a technology class. All durations are
// virtual time; the baseline (one cell, skill 1.0, thick marker) is 1s.
type Spec struct {
	// SpeedFactor multiplies per-cell service time. 1.0 is the thick
	// marker baseline.
	SpeedFactor float64
	// Pickup is the time to pick the implement up from the table or
	// receive it in a handoff.
	Pickup time.Duration
	// PutDown is the time to uncap-reverse/put the implement back where a
	// teammate can take it.
	PutDown time.Duration
	// BreakProb is the per-cell probability the implement fails (crayon
	// snapping, marker drying out) and costs Repair before continuing.
	BreakProb float64
	// Repair is the delay to peel/replace a broken implement.
	Repair time.Duration
}

// DefaultSpec returns the calibrated timing model for kind k.
func DefaultSpec(k Kind) Spec {
	switch k {
	case Dauber:
		return Spec{SpeedFactor: 0.55, Pickup: 400 * time.Millisecond, PutDown: 300 * time.Millisecond}
	case ThickMarker:
		return Spec{SpeedFactor: 1.0, Pickup: 500 * time.Millisecond, PutDown: 400 * time.Millisecond}
	case ThinMarker:
		return Spec{SpeedFactor: 1.6, Pickup: 500 * time.Millisecond, PutDown: 400 * time.Millisecond}
	case Crayon:
		return Spec{
			SpeedFactor: 2.2,
			Pickup:      500 * time.Millisecond,
			PutDown:     400 * time.Millisecond,
			BreakProb:   0.01,
			Repair:      8 * time.Second,
		}
	default:
		panic("implement: DefaultSpec of invalid kind")
	}
}

// Implement is one physical implement: a technology class bound to a color.
type Implement struct {
	// ID is unique within a Set (stable across runs for determinism).
	ID int
	// Color is the paint color this implement produces.
	Color palette.Color
	// Kind is the technology class.
	Kind Kind
	// Spec is the timing model; zero-value specs are replaced by
	// DefaultSpec(Kind) when a Set is built.
	Spec Spec
}

// Set is the equipment a team is handed: for each color, one or more
// implements. The paper's core setup is exactly one per color; the E21
// ablation hands out extras to show contention dissolving.
//
// Only palette colours are looked up: an implement of a colour outside
// the palette, which NewSetN accepts, is listed by All but found by no
// ForColor, Has or Covers.
type Set struct {
	// byColor lists each palette colour's implements in ID insertion
	// order, as capped ranges of all wherever a colour's implements
	// were added together.
	byColor [palette.NColors][]*Implement
	all     []*Implement
}

// NewSet builds a set with one implement of the given kind per color.
func NewSet(kind Kind, colors []palette.Color) *Set {
	return NewSetN(kind, colors, 1)
}

// NewSetN builds a set with n implements of the given kind per color.
// The implements share one backing array.
func NewSetN(kind Kind, colors []palette.Color, n int) *Set {
	if n <= 0 {
		panic("implement: NewSetN with n <= 0")
	}
	impls := make([]Implement, len(colors)*n)
	all := make([]*Implement, len(impls))
	for i := range impls {
		impls[i] = Implement{ID: i, Color: colors[i/n], Kind: kind, Spec: DefaultSpec(kind)}
		all[i] = &impls[i]
	}
	return newSet(all)
}

// NewMixedSet builds a set from explicit implements, filling in default
// specs for zero-valued ones. It returns an error on duplicate IDs or
// invalid colors so a hand-built roster can't silently alias.
func NewMixedSet(impls []*Implement) (*Set, error) {
	seen := make(map[int]bool)
	for _, im := range impls {
		if im == nil {
			return nil, fmt.Errorf("implement: nil implement in set")
		}
		if seen[im.ID] {
			return nil, fmt.Errorf("implement: duplicate implement ID %d", im.ID)
		}
		seen[im.ID] = true
		if !im.Color.Valid() || im.Color == palette.None {
			return nil, fmt.Errorf("implement: implement %d has invalid color", im.ID)
		}
		if !im.Kind.Valid() {
			return nil, fmt.Errorf("implement: implement %d has invalid kind", im.ID)
		}
		if im.Spec == (Spec{}) {
			im.Spec = DefaultSpec(im.Kind)
		}
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("implement: empty set")
	}
	return newSet(append([]*Implement(nil), impls...)), nil
}

// newSet indexes all, which the set keeps, by colour. Each run of
// neighbours of one colour becomes a capped range of all; a colour
// whose implements are not neighbours gets its own list, which the cap
// makes append copy rather than overwrite all.
func newSet(all []*Implement) *Set {
	s := &Set{all: all}
	for i := 0; i < len(all); {
		c, j := all[i].Color, i+1
		for j < len(all) && all[j].Color == c {
			j++
		}
		switch {
		case !c.Valid():
			// Listed by All, found by no lookup.
		case s.byColor[c] == nil:
			s.byColor[c] = all[i:j:j]
		default:
			s.byColor[c] = append(s.byColor[c], all[i:j]...)
		}
		i = j
	}
	return s
}

// ForColor returns the implements of color c (nil if the set has none).
func (s *Set) ForColor(c palette.Color) []*Implement {
	if !c.Valid() {
		return nil
	}
	return s.byColor[c]
}

// All returns every implement in the set in ID insertion order.
func (s *Set) All() []*Implement { return s.all }

// Colors returns the colors the set covers.
func (s *Set) Colors() []palette.Color {
	out := make([]palette.Color, 0, len(s.byColor))
	for _, c := range palette.All() {
		if len(s.byColor[c]) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Has reports whether the set holds at least one implement of color c.
// It is the allocation-free per-color form of Covers, for hot-path
// configuration checks that must not build a colors slice.
func (s *Set) Has(c palette.Color) bool { return len(s.ForColor(c)) > 0 }

// Covers reports whether the set has at least one implement for every
// color in need. A team whose set does not cover its flag cannot finish;
// the simulator rejects the run up front instead of deadlocking.
func (s *Set) Covers(need []palette.Color) error {
	for _, c := range need {
		if !s.Has(c) {
			return fmt.Errorf("implement: set has no %s implement", c)
		}
	}
	return nil
}
