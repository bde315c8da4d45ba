package flagsim_test

// E34 — the sweep subsystem: a 64-run grid (8 seeds × 4 implement kinds ×
// 2 scenarios at a 64×32 raster) through the public RunSweep API, serial
// vs pooled vs warm-cache. On a multi-core host the parallel/serial ratio
// is the pool's speedup; the warm benchmark isolates the memoization win,
// which holds even on one core.

import (
	"testing"
	"time"

	"flagsim"
	"flagsim/internal/flagspec"
	"flagsim/internal/grid"
)

// sweepBenchGrid is the 64-run E34 grid.
func sweepBenchGrid() []flagsim.SweepSpec {
	g := flagsim.SweepGrid{
		Base: flagsim.SweepSpec{
			Flag: "mauritius", W: 64, H: 32,
			Setup:  flagsim.DefaultSetup,
			Jitter: 0.1,
		},
		Scenarios: []flagsim.ScenarioID{flagsim.S4, flagsim.S4Pipelined},
		Kinds: []flagsim.ImplementKind{
			flagsim.Dauber, flagsim.ThickMarker, flagsim.ThinMarker, flagsim.Crayon,
		},
		Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	return g.Specs()
}

func benchSweep(b *testing.B, workers int) {
	specs := sweepBenchGrid()
	if len(specs) != 64 {
		b.Fatalf("grid has %d runs, want 64", len(specs))
	}
	b.ResetTimer()
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		res := flagsim.RunSweep(specs, flagsim.SweepOptions{Workers: workers})
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		wall = res.Wall
	}
	b.ReportMetric(wall.Seconds()*1000, "wall-ms")
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 8) }

// BenchmarkSweepWarm reruns the grid on a Sweeper whose cache already
// holds every result: all 64 runs should be hits.
func BenchmarkSweepWarm(b *testing.B) {
	specs := sweepBenchGrid()
	sw := flagsim.NewSweeper(flagsim.SweepOptions{Workers: 8})
	if err := sw.Run(nil, specs).Err(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sw.Run(nil, specs)
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		if res.Cache.Hits != len(specs) {
			b.Fatalf("warm cache hits = %d, want %d", res.Cache.Hits, len(specs))
		}
	}
}

// keySink keeps the content-key and grid-digest benchmarks' digests live.
var keySink [32]byte

// BenchmarkSpecKey times one content address for a builtin spec, the
// key every memo lookup, store file and journal frame is named by. It
// reports allocations so benchguard's exact gate holds it at 0
// allocs/op: the encoding is appended into a stack buffer.
func BenchmarkSpecKey(b *testing.B) {
	spec := flagsim.SweepSpec{
		Flag: "mauritius", Scenario: flagsim.S4, Kind: flagsim.ThickMarker,
		Seed: 7, Setup: flagsim.DefaultSetup,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = spec.Key()
	}
}

// BenchmarkSpecKeyGenerated is BenchmarkSpecKey for a generated flag,
// whose key holds the name's content key (the grammar hash plus seed
// and variant) in place of the literal name. It reports allocations so
// benchguard's exact gate holds it at 0 allocs/op too.
func BenchmarkSpecKeyGenerated(b *testing.B) {
	spec := flagsim.SweepSpec{
		Flag: flagsim.GenFlagName(987654321, 4242), Scenario: flagsim.S4,
		Kind: flagsim.ThickMarker, Seed: 7, Setup: flagsim.DefaultSetup,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = spec.Key()
	}
}

// BenchmarkGridDigest times the grid hash every memo record takes when
// its compute finishes and every sweep row prints: sha256 over the
// grid's String() form, rendered row by row into a stack buffer. The
// grid is Mauritius at 120×80, a generated flag's size class. It reports
// allocations so benchguard's exact gate holds it at 0 allocs/op.
func BenchmarkGridDigest(b *testing.B) {
	g, err := grid.Rasterize(flagspec.Mauritius, 120, 80)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64((g.W() + 1) * g.H()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = g.Digest()
	}
}
