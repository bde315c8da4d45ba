package grid

import (
	"crypto/sha256"
	"strings"
	"testing"

	"flagsim/internal/flagspec"
	"flagsim/internal/palette"
)

// TestDigestEqualsStringHash pins Digest to the hash it replaces,
// sha256 over String(): on a 1×1 grid, on widths either side of and
// past digestChunk (so a row spans chunks and a row ends exactly on a
// chunk boundary), on 1024×1024, on every builtin flag's raster, and on
// cells holding colour bytes outside the palette, which String()
// renders as '?'.
func TestDigestEqualsStringHash(t *testing.T) {
	check := func(name string, g *Grid) {
		t.Helper()
		if got, want := g.Digest(), sha256.Sum256([]byte(g.String())); got != want {
			t.Errorf("%s (%dx%d): Digest %x, want %x", name, g.W(), g.H(), got, want)
		}
	}
	check("blank 1x1", New(1, 1))
	one := New(1, 1)
	one.cells[0] = palette.Red
	check("red 1x1", one)
	for _, w := range []int{digestChunk - 2, digestChunk - 1, digestChunk, digestChunk + 1, 3*digestChunk + 7} {
		g := New(w, 3)
		for i := range g.cells {
			g.cells[i] = palette.Color(i % palette.NColors)
		}
		check("striped", g)
	}
	big := New(1024, 1024)
	for i := range big.cells {
		big.cells[i] = palette.Color((i / 7) % palette.NColors)
	}
	check("1024x1024", big)
	for _, f := range flagspec.All() {
		g, err := RasterizeDefault(f)
		if err != nil {
			t.Fatal(err)
		}
		check(f.Name, g)
	}
	bad := New(17, 5)
	for i := range bad.cells {
		bad.cells[i] = palette.Color(i * 37 % 256)
	}
	check("invalid colour bytes", bad)
	if s := bad.String(); !strings.ContainsRune(s, '?') {
		t.Fatalf("invalid colours rendered without '?': %q", s)
	}
}

// TestDigestGlyphsAreOneByte pins what Digest relies on: every colour
// byte renders as a one-byte rune, so String() has exactly (w+1)·h
// bytes.
func TestDigestGlyphsAreOneByte(t *testing.T) {
	for i := 0; i < 256; i++ {
		if r := palette.Color(i).Rune(); r >= 0x80 || byte(r) != glyph[i] {
			t.Fatalf("colour %d renders as %q, glyph table has %q", i, r, glyph[i])
		}
	}
}

// TestDigestAllocationFree checks that Digest renders through its stack
// buffer at any size.
func TestDigestAllocationFree(t *testing.T) {
	g := New(1024, 64)
	if n := testing.AllocsPerRun(20, func() { _ = g.Digest() }); n != 0 {
		t.Fatalf("Digest allocated %v times per call, want 0", n)
	}
}
