package geom_test

// Prepared shapes must answer exactly as the shapes they were prepared
// from: every raster loop (grid.Rasterize, flagspec.Validate,
// workplan.NewGeometry, the generator's checks) tests prepared shapes,
// and the goldens pin what those loops paint.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
)

// prepSizes are the canvases every shape is checked at besides its
// default: one cell, a column, a row, a wide strip, the generated size
// class and a very wide strip.
var prepSizes = [][2]int{{1, 1}, {1, 9}, {9, 1}, {64, 7}, {120, 80}, {1024, 3}}

// checkPrepared fails unless s prepared for w×h answers Contains exactly
// as s does on every cell of w×h.
func checkPrepared(t *testing.T, label string, s geom.Shape, w, h int) {
	t.Helper()
	ps := geom.Prepare(s, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := geom.Pt{X: x, Y: y}
			if got, want := ps.Contains(p, w, h), s.Contains(p, w, h); got != want {
				t.Fatalf("%s at %dx%d: prepared Contains%v = %v, plain %v", label, w, h, p, got, want)
			}
		}
	}
}

// checkFlag checks every layer of f at its default size and at prepSizes.
func checkFlag(t *testing.T, f *flagspec.Flag) {
	t.Helper()
	for _, l := range f.Layers {
		label := f.Name + "/" + l.Name
		checkPrepared(t, label, l.Shape, f.DefaultW, f.DefaultH)
		for _, sz := range prepSizes {
			checkPrepared(t, label, l.Shape, sz[0], sz[1])
		}
	}
}

// randomStar draws a star with 0–12 points, a centre on or near the
// canvas, and radii and rotations that include negative, zero, NaN and
// infinite values.
func randomStar(rng *rand.Rand) geom.Star {
	odd := func(v float64) float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return 0
		case 2:
			return -v
		case 3:
			return math.Inf(1 - 2*rng.Intn(2))
		}
		return v
	}
	return geom.Star{
		CX: rng.Float64()*1.5 - 0.25, CY: rng.Float64()*1.5 - 0.25,
		R: odd(rng.Float64() * 0.6), Inner: odd(rng.Float64() * 1.2),
		Points: rng.Intn(13), Rotation: odd((rng.Float64() - 0.5) * 40),
	}
}

// randomStars returns n random stars, every third one in a Union with
// a disc and a second star.
func randomStars(n int) []geom.Shape {
	rng := rand.New(rand.NewSource(18))
	out := make([]geom.Shape, 0, n)
	for i := 0; i < n; i++ {
		var s geom.Shape = randomStar(rng)
		if i%3 == 2 {
			s = geom.Union{geom.Disc{CX: 0.5, CY: 0.5, R: 0.1}, s, randomStar(rng)}
		}
		out = append(out, s)
	}
	return out
}

// jordanStar is the seven-pointed star of Jordan's flag.
func jordanStar() geom.Star { return flagspec.Jordan.Layer("white-star").Shape.(geom.Star) }

func TestPreparedBuiltinLayers(t *testing.T) {
	for _, f := range flagspec.All() {
		checkFlag(t, f)
	}
}

func TestPreparedGeneratedLayers(t *testing.T) {
	stars := 0
	for v := uint64(0); v < 300; v++ {
		f, err := flaggen.Generate(18, v)
		if err != nil {
			t.Fatal(err)
		}
		checkFlag(t, f)
		for _, l := range f.Layers {
			if _, ok := l.Shape.(geom.Star); ok {
				stars++
			}
		}
	}
	if stars == 0 {
		t.Fatal("no generated flag among 300 has a star emblem")
	}
}

func TestPreparedRandomStars(t *testing.T) {
	jw, jh := flagspec.Jordan.DefaultW, flagspec.Jordan.DefaultH
	for i, s := range randomStars(100) {
		label := fmt.Sprintf("shape %d %+v", i, s)
		checkPrepared(t, label, s, jw, jh)
		for _, sz := range prepSizes {
			checkPrepared(t, label, s, sz[0], sz[1])
		}
	}
}

// TestPreparedOtherSize: a shape prepared for one size and asked at
// another answers as the plain shape does there.
func TestPreparedOtherSize(t *testing.T) {
	shapes := append(randomStars(30), jordanStar())
	for i, s := range shapes {
		for _, at := range prepSizes {
			ps := geom.Prepare(s, at[0], at[1])
			for _, sz := range [][2]int{{16, 9}, {1, 9}, {9, 1}, {64, 7}} {
				w, h := sz[0], sz[1]
				for c := 0; c < w*h; c++ {
					p := geom.Pt{X: c % w, Y: c / w}
					if got, want := ps.Contains(p, w, h), s.Contains(p, w, h); got != want {
						t.Fatalf("shape %d prepared at %dx%d, asked at %dx%d: Contains%v = %v, plain %v",
							i, at[0], at[1], w, h, p, got, want)
					}
				}
			}
		}
	}
}

// TestPrepareLeavesOtherShapes: Prepare returns a shape that is not a
// Preparer unchanged, a prepared star included.
func TestPrepareLeavesOtherShapes(t *testing.T) {
	prepared := geom.Prepare(jordanStar(), 28, 14)
	for _, s := range []geom.Shape{
		geom.Full{}, geom.HStripe(1, 3), geom.Disc{CX: 0.5, CY: 0.5, R: 0.2},
		geom.Triangle{BY: 1, CX: 0.5, CY: 0.5}, geom.DiagonalStripe{X1: 1, Y1: 1, HalfWidth: 0.1},
		geom.Cross{CX: 0.5, CY: 0.5, HalfWidth: 0.1}, geom.Saltire{HalfWidth: 0.1},
		geom.MapleLeaf{CX: 0.5, CY: 0.5, Scale: 0.4}, prepared,
	} {
		if _, ok := s.(geom.Preparer); ok {
			t.Fatalf("%T is a Preparer", s)
		}
		if got := geom.Prepare(s, 28, 14); got != s {
			t.Fatalf("Prepare(%T) returned %T, want the shape unchanged", s, got)
		}
	}
}

// FuzzShapePrepare checks a prepared star, alone and in a Union, against
// the plain one on every cell, at the size it was prepared for and at
// the transposed size.
func FuzzShapePrepare(f *testing.F) {
	jordan := jordanStar()
	add := func(s geom.Star, w, h uint16) {
		f.Add(s.CX, s.CY, s.R, s.Inner, s.Rotation, int8(s.Points), w, h)
	}
	add(jordan, uint16(flagspec.Jordan.DefaultW), uint16(flagspec.Jordan.DefaultH))
	for _, sz := range prepSizes {
		add(jordan, uint16(sz[0]), uint16(sz[1]))
	}
	add(geom.Star{CX: 0.5, CY: 0.5, R: 0.4, Inner: 0.45, Points: 12, Rotation: 1}, 120, 80)
	add(geom.Star{CX: 0.5, CY: 0.5, R: -0.3, Inner: 0.5, Points: 5, Rotation: -7}, 64, 7)
	add(geom.Star{CX: 0.2, CY: 0.7, R: math.NaN(), Inner: 0.5, Points: 7}, 25, 12)
	add(geom.Star{CX: 0.5, CY: 0.5, R: 0.3, Inner: math.NaN(), Points: 2, Rotation: math.Inf(1)}, 9, 1)
	add(geom.Star{CX: 0.5, CY: 0.5, R: 0.3, Inner: 0.5, Points: 1}, 1, 9)
	add(geom.Star{CX: 0.5, CY: 0.5, R: 0.3, Inner: 0.5, Points: 0}, 1, 1)
	f.Fuzz(func(t *testing.T, cx, cy, r, inner, rot float64, points int8, w, h uint16) {
		s := geom.Star{CX: cx, CY: cy, R: r, Inner: inner, Points: int(points) % 64, Rotation: rot}
		cw, ch := 1+int(w)%1024, 1+int(h)%1024
		ch = min(ch, max(1, (1<<14)/cw))
		for _, shape := range []geom.Shape{s, geom.Union{geom.Band{X1: 0.5, Y1: 0.5}, s}} {
			checkPrepared(t, fmt.Sprintf("%+v", shape), shape, cw, ch)
			ps := geom.Prepare(shape, cw, ch)
			for c := 0; c < cw*ch; c++ {
				p := geom.Pt{X: c / cw, Y: c % cw}
				if got, want := ps.Contains(p, ch, cw), shape.Contains(p, ch, cw); got != want {
					t.Fatalf("%+v prepared at %dx%d, asked at %dx%d: Contains%v = %v, plain %v",
						shape, cw, ch, ch, cw, p, got, want)
				}
			}
		}
	})
}
