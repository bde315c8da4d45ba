package flagsim_test

// Engine benchmarks: the unified executor core under each TaskSource
// policy, at the same workload size, so a regression in the shared engine
// shows up in all three and a regression in one policy's bookkeeping shows
// up alone.
//
// The three core benchmarks measure warm-arena runs: the team, implement
// set, and arena are built once, so every iteration is a pure engine run
// through recycled buffers. That is the configuration the arena work
// targets, and it is what makes the allocation numbers meaningful — a
// warm run of any executor must report 0 allocs/op, and benchguard gates
// on it (see cmd/benchguard). BenchmarkEngineStaticNilHooks covers the
// pooled path (no caller arena) for the same workload.

import (
	"testing"

	"flagsim/internal/check"
	"flagsim/internal/fault"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/obs"
	"flagsim/internal/processor"
	"flagsim/internal/rng"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// benchEngineTeam builds a mildly skewed team so the steal benchmark has
// migrations to perform.
func benchEngineTeam(b *testing.B, skills ...float64) []*processor.Processor {
	b.Helper()
	out := make([]*processor.Processor, len(skills))
	for i, s := range skills {
		p := processor.DefaultProfile("P")
		p.Name = "P" + string(rune('1'+i))
		p.Skill = s
		pr, err := processor.New(p, rng.New(benchSeed).SplitLabeled(p.Name))
		if err != nil {
			b.Fatal(err)
		}
		out[i] = pr
	}
	return out
}

// benchEnginePlan is the shared static workload.
func benchEnginePlan(b *testing.B) *workplan.Plan {
	b.Helper()
	plan, err := workplan.VerticalSlices(flagspec.Mauritius, 64, 32, 4, true)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func BenchmarkEngineStatic(b *testing.B) {
	f := flagspec.Mauritius
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Plan: plan, Procs: procs, Set: set, Arena: arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

func BenchmarkEngineDynamic(b *testing.B) {
	f := flagspec.Mauritius
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunDynamic(sim.DynamicConfig{
			Flag: f, W: 64, H: 32,
			Procs: procs, Set: set, Arena: arena,
			Policy: sim.PullColorAffinity,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

func BenchmarkEngineSteal(b *testing.B) {
	f := flagspec.Mauritius
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	var steals int
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSteal(sim.Config{
			Plan: plan, Procs: procs, Set: set, Arena: arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		steals = res.Steals
	}
	b.ReportMetric(float64(steals), "steals/run")
}

// BenchmarkEngineStaticNilHooks is the specialized-path proof: the same
// workload with no probe, no trace, and no fault injector, run through
// the shared pool rather than a caller arena. With every hook nil the
// engine selects the fast opcode bodies at run entry — straight-line
// resource mechanics with no hook sites compiled in — so this number is
// the floor the instrumented benchmarks (Probed, Faults, Oracle) are
// compared against; the gap between it and BenchmarkEngineStatic is the
// pooled path's per-run result allocations.
func BenchmarkEngineStaticNilHooks(b *testing.B) {
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, flagspec.Mauritius.Colors())
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Plan: plan, Procs: procs, Set: set,
			Probes: nil, Faults: nil,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkEngineStaticProbed is what a pooled flagsimd compute pays for
// its engine metrics: the warm-arena static run of BenchmarkEngineStatic
// plus publishing its Result through the metrics probe, as the sweep
// pool's Observer does. The run installs no probe, so it keeps the fast
// opcodes; the delta against BenchmarkEngineStatic is the publishing
// cost, and 0 allocs/op pins that publishing allocates nothing.
func BenchmarkEngineStaticProbed(b *testing.B) {
	f := flagspec.Mauritius
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	probe := obs.NewMetricsProbe(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Plan: plan, Procs: procs, Set: set, Arena: arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		probe.ObserveResult(res)
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkEngineStaticFaults is BenchmarkEngineStatic with the heavy
// fault preset compiled in — the full fault-hook tax: a stall-window
// scan per advance plus one stateless hash per cell for each enabled
// fault class. Guarded so injection stays a bounded, predictable cost.
func BenchmarkEngineStaticFaults(b *testing.B) {
	f := flagspec.Mauritius
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	fp, err := fault.Preset("heavy", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := fault.New(fp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Plan: plan, Procs: procs, Set: set, Arena: arena,
			Faults: inj,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkEngineStaticOracle is BenchmarkEngineStatic with the
// invariant oracle verifying every run — the cost of flagcheck-style
// verification: per-event map bookkeeping plus the result-time span,
// conservation, and grid-reference sweeps. Compare against
// BenchmarkEngineStatic for the oracle's overhead; the bare benchmark
// staying flat is the proof the oracle is off the hot path when not
// installed (a nil-probe slice and a nil fault hook cost nothing).
func BenchmarkEngineStaticOracle(b *testing.B) {
	f := flagspec.Mauritius
	plan := benchEnginePlan(b)
	procs := benchEngineTeam(b, 1.3, 1.0, 1.0, 0.5)
	set := implement.NewSet(implement.ThickMarker, f.Colors())
	arena := sim.NewArena()
	oracle := check.NewOracle()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Plan: plan, Procs: procs, Set: set, Arena: arena,
			Probes: []sim.Probe{oracle},
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.StopTimer()
	if err := oracle.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(events), "events/run")
}
