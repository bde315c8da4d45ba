package flaggen

// The compiler from (GenSpec, seed, variant) to flagspec.Flag.
//
// Decision classes draw from dedicated rng.SplitLabeled sub-streams
// anchored at the variant label — grid size, family choice, layer
// budget, palette order, geometry parameters, and emblem choices each
// own a stream — so adding a draw to one class never perturbs another,
// and Flag(seed, i) is independent of every other variant.
//
// Validity is guaranteed by construction, then re-checked: geometry
// parameters are clamped to raster-aware lower bounds (a cross arm at
// least wide enough to catch a cell center at the drawn grid, a saltire
// at least 0.75/min(W,H) half-wide because the nearest cell center sits
// within ~0.71/min(W,H) of the diagonal, disc radii likewise), stripe
// counts never exceed the axis resolution, and emblems that still
// rasterize to zero cells are deterministically repaired to a disc (or
// dropped). Every flag then passes flagspec.Validate before it leaves.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/palette"
	"flagsim/internal/rng"
)

// Generator is a compiled GenSpec: validated once, hashed once. All
// Flag calls share the precomputed hash and weight table, so per-flag
// work is bounded by the flag itself, never by re-hashing the spec.
type Generator struct {
	spec    GenSpec
	hash    [sha256.Size]byte
	mix     uint64 // hash[:8] folded into every seed, so spec changes reseed everything
	weights []float64
}

// New compiles spec into a Generator. The spec is validated and hashed
// exactly once, here.
func New(spec GenSpec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{spec: spec, hash: spec.Hash()}
	g.mix = binary.LittleEndian.Uint64(g.hash[:8])
	g.weights = make([]float64, len(spec.Families))
	for i, fw := range spec.Families {
		g.weights[i] = fw.Weight
	}
	return g, nil
}

// Spec returns the compiled spec.
func (g *Generator) Spec() GenSpec { return g.spec }

// Hash returns the spec's content address (see GenSpec.Hash).
func (g *Generator) Hash() [sha256.Size]byte { return g.hash }

// Flag generates the variant-th flag of the seed's family. It is a pure
// function: same generator, seed, and variant always yield a deeply
// equal flag, regardless of what was generated before.
func (g *Generator) Flag(seed, variant uint64) (*flagspec.Flag, error) {
	vs := rng.New(seed ^ g.mix).SplitLabeled("variant:" + strconv.FormatUint(variant, 10))
	gridS := vs.SplitLabeled("grid")
	famS := vs.SplitLabeled("family")
	layS := vs.SplitLabeled("layers")
	palS := vs.SplitLabeled("palette")
	geoS := vs.SplitLabeled("geometry")
	embS := vs.SplitLabeled("emblem")

	w := randRange(gridS, g.spec.MinW, g.spec.MaxW)
	h := randRange(gridS, g.spec.MinH, g.spec.MaxH)
	family := g.spec.Families[famS.Pick(g.weights)].Family
	budget := randRange(layS, g.spec.MinLayers, g.spec.MaxLayers)

	b := &builder{
		w: w, h: h,
		pal:    newColorPicker(g.spec.Colors, palS),
		geo:    geoS,
		emb:    embS,
		budget: budget,
		prob:   g.spec.EmblemProb,
	}
	switch family {
	case FamHStripes:
		b.stripes(true)
	case FamVStripes:
		b.stripes(false)
	case FamBands:
		b.bands()
	case FamCross:
		b.cross()
	case FamSaltire:
		b.saltire()
	case FamDisc:
		b.disc()
	default:
		return nil, fmt.Errorf("flaggen: unknown family %d", family)
	}

	f := &flagspec.Flag{
		Name:     Name(seed, variant),
		DefaultW: w,
		DefaultH: h,
		Layers:   b.layers,
	}
	if err := flagspec.Validate(f, w, h, g.spec.FullCoverage); err != nil {
		return nil, fmt.Errorf("flaggen: spec %x seed %d variant %d: %w", g.hash[:4], seed, variant, err)
	}
	return f, nil
}

// builder accumulates one flag's layers.
type builder struct {
	w, h     int
	pal      *colorPicker
	geo, emb *rng.Stream
	layers   []flagspec.Layer
	budget   int
	prob     float64
}

func (b *builder) minDim() int {
	if b.w < b.h {
		return b.w
	}
	return b.h
}

func (b *builder) add(name string, c palette.Color, s geom.Shape, deps ...string) {
	b.layers = append(b.layers, flagspec.Layer{Name: name, Color: c, Shape: s, DependsOn: deps})
}

// stripes is the Mauritius/France production: n equal stripes along one
// axis, adjacent colors distinct, optionally an emblem overlay.
func (b *builder) stripes(horizontal bool) {
	axis := b.w
	if horizontal {
		axis = b.h
	}
	n := clamp(b.budget, 2, minInt(6, axis))
	prev := palette.None
	for i := 0; i < n; i++ {
		c := b.pal.next(prev)
		var s geom.Shape
		if horizontal {
			s = geom.HStripe(i, n)
		} else {
			s = geom.VStripe(i, n)
		}
		b.add("stripe-"+strconv.Itoa(i), c, s)
		prev = c
	}
	if n < b.budget && b.emb.Bernoulli(b.prob) {
		b.emblem("emblem", 0.5, 0.5, 0.10+b.geo.Float64()*0.12)
	}
}

// bands is the Canada production: a central field flanked by two side
// bands, with an emblem over the field when the budget allows.
func (b *builder) bands() {
	bw := 0.20 + b.geo.Float64()*0.12
	side := b.pal.next(palette.None)
	field := b.pal.next(side)
	b.add("band-left", side, geom.Band{X0: 0, Y0: 0, X1: bw, Y1: 1})
	b.add("field", field, geom.Band{X0: bw, Y0: 0, X1: 1 - bw, Y1: 1})
	b.add("band-right", side, geom.Band{X0: 1 - bw, Y0: 0, X1: 1, Y1: 1})
	if b.budget >= 4 {
		b.emblem("emblem", 0.5, 0.5, 0.16+b.geo.Float64()*0.14)
	}
}

// cross is the Sweden production: a field with a centered or
// nordic-offset cross, optionally fimbriated by an inner cross.
func (b *builder) cross() {
	lo := 0.51 / float64(b.minDim())
	fieldC := b.pal.next(palette.None)
	crossC := b.pal.next(fieldC)
	cx := 0.5
	if b.geo.Bernoulli(0.4) {
		cx = 0.375 // nordic hoist offset
	}
	hw := clampF(0.06+b.geo.Float64()*0.10, lo, 0.22)
	b.add("field", fieldC, geom.Full{})
	b.add("cross", crossC, geom.Cross{CX: cx, CY: 0.5, HalfWidth: hw}, "field")
	if b.budget >= 3 && b.emb.Bernoulli(0.5) {
		inner := b.pal.next(crossC)
		ihw := clampF(hw*0.45, lo, hw)
		b.add("cross-inner", inner, geom.Cross{CX: cx, CY: 0.5, HalfWidth: ihw}, "cross")
	}
}

// saltire is the Great Britain production: a field, a saltire, and —
// budget permitting — an overlaid cross painted after the diagonals,
// exactly the paint-order chain the paper's §III-D discusses.
func (b *builder) saltire() {
	lo := 0.75 / float64(b.minDim())
	fieldC := b.pal.next(palette.None)
	saltC := b.pal.next(fieldC)
	hw := clampF(0.05+b.geo.Float64()*0.08, lo, 0.22)
	b.add("field", fieldC, geom.Full{})
	b.add("saltire", saltC, geom.Saltire{HalfWidth: hw}, "field")
	if b.budget >= 3 && b.emb.Bernoulli(0.5) {
		crossC := b.pal.next(saltC)
		chw := clampF(0.05+b.geo.Float64()*0.07, 0.51/float64(b.minDim()), 0.2)
		b.add("cross", crossC, geom.Cross{CX: 0.5, CY: 0.5, HalfWidth: chw}, "saltire")
		if b.budget >= 4 && b.emb.Bernoulli(0.5) {
			inner := b.pal.next(crossC)
			b.add("cross-inner", inner, geom.Cross{CX: 0.5, CY: 0.5, HalfWidth: clampF(chw*0.45, 0.51/float64(b.minDim()), chw)}, "cross")
		}
	}
}

// disc is the Japan production: a field with a disc, optionally with an
// inner emblem.
func (b *builder) disc() {
	lo := 0.75 / float64(b.minDim())
	fieldC := b.pal.next(palette.None)
	discC := b.pal.next(fieldC)
	cx := 0.5
	if b.geo.Bernoulli(0.3) {
		cx = 0.38 // hoist-shifted sun
	}
	r := clampF(0.18+b.geo.Float64()*0.17, lo, 0.42)
	b.add("field", fieldC, geom.Full{})
	b.add("disc", discC, geom.Disc{CX: cx, CY: 0.5, R: r}, "field")
	if b.budget >= 3 && b.emb.Bernoulli(0.4) {
		b.emblem("disc-emblem", cx, 0.5, clampF(r*0.5, lo, r))
	}
}

// emblem overlays a figurative shape (star, maple leaf, or disc) at the
// given center and scale. The layer depends on every earlier layer it
// overpaints — the Canada/Great Britain dependency policy. Shapes that
// rasterize to zero cells at this grid are deterministically repaired
// to a disc; if even the disc misses (impossible for in-range scales,
// but the repair must terminate), the emblem is dropped.
func (b *builder) emblem(name string, cx, cy, scale float64) {
	lo := 0.75 / float64(b.minDim())
	var s geom.Shape
	switch b.emb.Intn(3) {
	case 0:
		s = geom.Disc{CX: cx, CY: cy, R: maxF(scale, lo)}
	case 1:
		s = geom.Star{CX: cx, CY: cy, R: scale, Inner: 0.45, Points: 5 + b.emb.Intn(4)}
	default:
		s = geom.MapleLeaf{CX: cx, CY: cy, Scale: scale * 2}
	}
	if !covers(s, b.w, b.h) {
		s = geom.Disc{CX: cx, CY: cy, R: maxF(scale, lo)}
		if !covers(s, b.w, b.h) {
			return
		}
	}
	c := b.pal.next(b.colorAt(cx, cy))
	b.add(name, c, s, b.overlapped(s)...)
}

// colorAt returns the currently visible color at the normalized point,
// so an emblem never vanishes into its background.
func (b *builder) colorAt(cx, cy float64) palette.Color {
	p := geom.Pt{X: clamp(int(cx*float64(b.w)), 0, b.w-1), Y: clamp(int(cy*float64(b.h)), 0, b.h-1)}
	c := palette.None
	for _, l := range b.layers {
		if l.Shape.Contains(p, b.w, b.h) {
			c = l.Color
		}
	}
	return c
}

// overlapped lists the names of existing layers sharing at least one
// cell with s at the flag's grid — the DependsOn set for an overlay.
func (b *builder) overlapped(s geom.Shape) []string {
	var deps []string
	for _, l := range b.layers {
		if shapesOverlap(s, l.Shape, b.w, b.h) {
			deps = append(deps, l.Name)
		}
	}
	return deps
}

func covers(s geom.Shape, w, h int) bool {
	s = geom.Prepare(s, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if s.Contains(geom.Pt{X: x, Y: y}, w, h) {
				return true
			}
		}
	}
	return false
}

func shapesOverlap(a, b geom.Shape, w, h int) bool {
	a, b = geom.Prepare(a, w, h), geom.Prepare(b, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := geom.Pt{X: x, Y: y}
			if a.Contains(p, w, h) && b.Contains(p, w, h) {
				return true
			}
		}
	}
	return false
}

// colorPicker deals colors from a seeded permutation of the pool,
// cycling and skipping the color to avoid. With the validated minimum
// of three pool colors, one avoidance always succeeds.
type colorPicker struct {
	pool []palette.Color
	idx  int
}

func newColorPicker(colors []palette.Color, s *rng.Stream) *colorPicker {
	perm := s.Perm(len(colors))
	pool := make([]palette.Color, len(colors))
	for i, j := range perm {
		pool[i] = colors[j]
	}
	return &colorPicker{pool: pool}
}

func (cp *colorPicker) next(avoid palette.Color) palette.Color {
	for {
		c := cp.pool[cp.idx%len(cp.pool)]
		cp.idx++
		if c != avoid {
			return c
		}
	}
}

func randRange(s *rng.Stream, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + s.Intn(hi-lo+1)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if lo > hi {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
