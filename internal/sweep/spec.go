// Package sweep batches simulator runs: a bounded worker pool fans a set
// of declarative run specifications across GOMAXPROCS-many workers and a
// content-addressed cache memoizes completed runs, so the repeated
// parameter grids of the evaluation (scaling curves, ablation grids,
// technology sweeps) skip identical work on a warm rerun.
//
// The unit of work is a Spec: a pure-value description of one run. Unlike
// core.RunSpec, a Spec carries no live state — teams, implement sets, and
// plans are materialized fresh inside the worker from the Spec's seed —
// which is what makes a Spec hashable (Key), memoizable, and executable
// on any worker with bit-identical results regardless of pool size or
// scheduling order.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/processor"
	"flagsim/internal/rng"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// Exec selects the executor class a Spec runs under.
type Exec uint8

// Executor classes.
const (
	// ExecStatic runs the scenario's fixed per-processor plan (sim.Run).
	ExecStatic Exec = iota
	// ExecSteal runs the plan under work stealing (sim.RunSteal).
	ExecSteal
	// ExecDynamic runs the shared-bag self-scheduler (sim.RunDynamic).
	ExecDynamic
)

// String names the executor class.
func (e Exec) String() string {
	switch e {
	case ExecStatic:
		return "static"
	case ExecSteal:
		return "steal"
	case ExecDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("exec(%d)", uint8(e))
	}
}

// Spec is a declarative description of one simulation run. The zero value
// of every field is a usable default (Mauritius handout size, scenario 1,
// one dauber per color — set Kind explicitly for the usual thick marker).
type Spec struct {
	// Exec selects the executor class.
	Exec Exec
	// Flag names a built-in flag or a generated one ("gen:v1:<seed>:<variant>",
	// see flagspec.Lookup and package flaggen).
	Flag string
	// W, H override the flag's default raster size when positive.
	W, H int
	// Scenario selects the decomposition for ExecStatic and ExecSteal.
	Scenario core.ScenarioID
	// Workers overrides the scenario's worker count when positive; for
	// ExecDynamic it is the team size (minimum 1).
	Workers int
	// Kind is the implement technology class.
	Kind implement.Kind
	// PerColor is the number of implements per color; 0 means 1.
	PerColor int
	// Seed derives the team's random streams.
	Seed uint64
	// Setup is the serial organization phase.
	Setup time.Duration
	// Hold selects the implement retention policy.
	Hold sim.HoldPolicy
	// Policy selects the pull rule for ExecDynamic.
	Policy sim.PullPolicy
	// Skills optionally overrides per-worker skill; when set, its length
	// must equal the effective worker count.
	Skills []float64
	// Jitter is the per-cell lognormal service-noise sigma (0 = none).
	Jitter float64
	// Faults, when non-nil, injects the plan's deterministic faults into
	// the run. The plan participates in Key(), so a fault-bearing spec
	// memoizes under its own address, distinct from its fault-free twin.
	Faults *fault.Plan
}

// Label renders a compact human-readable identity for tables and errors.
func (s Spec) Label() string {
	var buf [96]byte
	b := append(buf[:0], s.Exec.String()...)
	b = append(append(b, '/'), s.Flag...)
	if s.Exec == ExecDynamic {
		b = append(append(b, '/'), s.Policy.String()...)
	} else {
		b = append(append(b, '/'), s.Scenario.String()...)
	}
	if s.Workers > 0 {
		b = strconv.AppendInt(append(b, "/p="...), int64(s.Workers), 10)
	}
	b = append(append(b, '/'), s.Kind.String()...)
	if s.PerColor > 1 {
		b = strconv.AppendInt(append(b, 'x'), int64(s.PerColor), 10)
	}
	b = strconv.AppendUint(append(b, "/seed="...), s.Seed, 10)
	if s.Faults != nil {
		b = append(append(b, "/faults="...), s.Faults.Label()...)
	}
	return string(b)
}

// Key returns the spec's content address: a SHA-256 digest over a
// versioned canonical encoding of every field that influences the run.
// Two specs with equal keys produce bit-identical Results, so the digest
// is safe to use as a memoization key. Fields are hashed literally — a
// zero W and an explicit W equal to the flag's default are distinct keys
// even though they describe the same run (they still cache consistently,
// each under its own address).
func (s Spec) Key() [sha256.Size]byte {
	// The encoding is appended into a stack buffer, so a builtin or
	// generated spec's key costs no allocation. Every byte is persisted
	// (journal frames, snapshots, result-log frames): the golden test
	// in key_test.go pins it against the original fmt-built encoding.
	var buf [256]byte
	b := strconv.AppendUint(append(buf[:0], "sweep-v1|exec="...), uint64(s.Exec), 10)
	b = append(b, "|flag="...)
	// Generated flags content-address by what the name denotes — the
	// grammar's hash plus (seed, variant) — not the literal name, so a
	// grammar change misses (never corrupts) every cached result, while
	// builtin names keep the address they always had.
	b, ok := flaggen.AppendContentKey(b, s.Flag)
	if !ok {
		b = append(b, s.Flag...)
	}
	b = strconv.AppendInt(append(b, "|w="...), int64(s.W), 10)
	b = strconv.AppendInt(append(b, "|h="...), int64(s.H), 10)
	b = strconv.AppendUint(append(b, "|scen="...), uint64(s.Scenario), 10)
	b = strconv.AppendInt(append(b, "|workers="...), int64(s.Workers), 10)
	b = strconv.AppendUint(append(b, "|kind="...), uint64(s.Kind), 10)
	b = strconv.AppendInt(append(b, "|percolor="...), int64(s.PerColor), 10)
	b = strconv.AppendUint(append(b, "|seed="...), s.Seed, 10)
	b = strconv.AppendInt(append(b, "|setup="...), int64(s.Setup), 10)
	b = strconv.AppendUint(append(b, "|hold="...), uint64(s.Hold), 10)
	b = strconv.AppendUint(append(b, "|policy="...), uint64(s.Policy), 10)
	b = strconv.AppendUint(append(b, "|jitter="...), math.Float64bits(s.Jitter), 16)
	b = append(b, "|skills="...)
	for _, sk := range s.Skills {
		b = append(strconv.AppendUint(b, math.Float64bits(sk), 16), ',')
	}
	// Fault plans extend the encoding only when present, so every
	// pre-fault spec keeps the address it always had.
	if s.Faults != nil {
		fk := s.Faults.Key()
		b = hex.AppendEncode(append(b, "|faults="...), fk[:])
	}
	return sha256.Sum256(b)
}

// team materializes n fresh student processors from the spec's seed. A
// new team per run is the determinism contract: processor warmup counters
// and random streams never leak between pooled runs.
func (s Spec) team(n int) ([]*processor.Processor, error) {
	if len(s.Skills) > 0 && len(s.Skills) != n {
		return nil, fmt.Errorf("sweep: %d skills for %d workers", len(s.Skills), n)
	}
	if len(s.Skills) == 0 && s.Jitter == 0 {
		return core.NewTeam(n, s.Seed)
	}
	out := make([]*processor.Processor, n)
	for i := range out {
		p := processor.DefaultProfile(fmt.Sprintf("P%d", i+1))
		if len(s.Skills) > 0 {
			p.Skill = s.Skills[i]
		}
		p.JitterSigma = s.Jitter
		pr, err := processor.New(p, rng.New(s.Seed).SplitLabeled(p.Name))
		if err != nil {
			return nil, err
		}
		out[i] = pr
	}
	return out, nil
}

// RunOnce materializes and executes the spec directly — no pool, no
// cache — with the given probes installed on the engine. It is the
// cache-bypassing entry point for traced runs: install a fresh
// sim.SpanCollector and the run's spans come back through it even when
// an identical spec is already memoized in some Sweeper.
func (s Spec) RunOnce(ctx context.Context, probes ...sim.Probe) (*sim.Result, error) {
	return s.run(ctx, probes)
}

// run materializes and executes the spec. Everything stateful is built
// here, inside the worker, so runs are independent of pool placement. A
// non-nil ctx installs engine cancellation checkpoints; a canceled run
// fails with an error wrapping sim.ErrCanceled. probes are installed on
// the engine for this run.
func (s Spec) run(ctx context.Context, probes []sim.Probe) (*sim.Result, error) {
	f, err := flagspec.Lookup(s.Flag)
	if err != nil {
		return nil, err
	}
	return s.runOn(ctx, probes, f, nil, nil)
}

// runOn is run with the spec's flag already resolved to f and, when geo
// is non-nil, f's geometry at the spec's size already built. A non-nil
// arena runs the spec through it in owned mode, so the Result aliases
// the arena until its next run; nil returns an independent Result.
func (s Spec) runOn(ctx context.Context, probes []sim.Probe, f *flagspec.Flag, geo *workplan.Geometry, arena *sim.Arena) (*sim.Result, error) {
	per := s.PerColor
	if per < 1 {
		per = 1
	}
	set := implement.NewSetN(s.Kind, f.Colors(), per)
	// Compile the fault plan once per run; a nil or Zero plan leaves the
	// engine's fault hook off. The assignment through a concrete nil
	// check avoids a non-nil interface wrapping a nil *fault.Injector.
	var faults sim.FaultInjector
	if inj, err := fault.New(s.Faults); err != nil {
		return nil, err
	} else if inj != nil {
		faults = inj
	}
	switch s.Exec {
	case ExecStatic, ExecSteal:
		scen, err := core.ScenarioByID(s.Scenario)
		if err != nil {
			return nil, err
		}
		if s.Workers > 0 {
			scen.Workers = s.Workers
		}
		team, err := s.team(scen.Workers)
		if err != nil {
			return nil, err
		}
		spec := core.RunSpec{
			Flag: f, W: s.W, H: s.H, Scenario: scen, Team: team,
			Set: set, Setup: s.Setup, Hold: s.Hold, Probes: probes,
			Faults: faults, Geometry: geo, Arena: arena,
		}
		if s.Exec == ExecSteal {
			return core.RunStealingCtx(ctx, spec)
		}
		return core.RunCtx(ctx, spec)
	case ExecDynamic:
		n := s.Workers
		if n < 1 {
			n = 1
		}
		team, err := s.team(n)
		if err != nil {
			return nil, err
		}
		return sim.RunDynamicCtx(ctx, sim.DynamicConfig{
			Flag: f, W: s.W, H: s.H, Procs: team, Set: set,
			Policy: s.Policy, Setup: s.Setup, Probes: probes,
			Faults: faults, Geometry: geo, Arena: arena,
		})
	default:
		return nil, fmt.Errorf("sweep: unknown executor class %d", s.Exec)
	}
}
