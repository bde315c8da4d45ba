package flagsim_test

// The procedural flag generator's cost envelope: per-flag generation
// (guarded for allocation growth — the grammar hash is computed once at
// compile time, so Flag() must not re-hash per layer) and a 32-variant
// generated sweep, cold vs warm. The warm benchmark doubles as a
// regression gate on the content-addressed key: if generated specs
// stopped memoizing, warm would collapse to cold.

import (
	"testing"

	"flagsim"
)

// BenchmarkGenFlag measures one generated flag end to end: name-space
// draw, grammar walk, validity recheck. Allocation data is reported so
// benchguard's baseline pins the per-flag allocation envelope — growth
// here means the generator started rebuilding per-call state.
func BenchmarkGenFlag(b *testing.B) {
	gen, err := flagsim.NewFlagGenerator(flagsim.DefaultGenSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Flag(42, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// genBenchSpecs is the 32-run generated grid: 32 distinct variants of
// one family, each a full S4 run at its flag's native raster.
func genBenchSpecs() []flagsim.SweepSpec {
	flags := make([]string, 32)
	for v := range flags {
		flags[v] = flagsim.GenFlagName(42, uint64(v))
	}
	g := flagsim.SweepGrid{
		Base: flagsim.SweepSpec{
			Flag:     flags[0],
			Scenario: flagsim.S4,
			Setup:    flagsim.DefaultSetup,
			Seed:     1,
		},
		Flags: flags,
	}
	return g.Specs()
}

// BenchmarkSweepGeneratedCold runs the generated grid on a fresh pool
// each iteration: every flag is resolved, rasterized, and simulated.
func BenchmarkSweepGeneratedCold(b *testing.B) {
	specs := genBenchSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := flagsim.RunSweep(specs, flagsim.SweepOptions{Workers: 8})
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/run")
}

// BenchmarkSweepGeneratedExecs is the generated-cold workload's sweep
// shape on a fresh pool each iteration: 8 generated flags under all
// three executors at scenario 2, so the three runs of each flag share
// one geometry. The flags stay in the generator's cache, so this times
// planning, the engine and verification, not generation.
func BenchmarkSweepGeneratedExecs(b *testing.B) {
	flags := make([]string, 8)
	for v := range flags {
		flags[v] = flagsim.GenFlagName(42, uint64(v))
	}
	specs := flagsim.SweepGrid{
		Base: flagsim.SweepSpec{Flag: flags[0], Scenario: flagsim.S2, Workers: 2,
			Kind: flagsim.ThickMarker, Setup: flagsim.DefaultSetup, Seed: 1},
		Execs: []flagsim.SweepExec{flagsim.SweepStatic, flagsim.SweepSteal, flagsim.SweepDynamic},
		Flags: flags,
	}.Specs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := flagsim.RunSweep(specs, flagsim.SweepOptions{Workers: 8})
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/run")
}

// BenchmarkSweepGeneratedWarm reruns the generated grid on a Sweeper
// whose cache already holds every result: all 32 runs must be hits, so
// the benchmark isolates content-addressed key construction + lookup.
func BenchmarkSweepGeneratedWarm(b *testing.B) {
	specs := genBenchSpecs()
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/run")
}
