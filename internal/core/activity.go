// Package core implements the paper's primary contribution as a library:
// the unplugged flag-coloring activity. It defines the four core scenarios
// of Fig. 1, the Webster variation (§III-D: France vs. Canada, load
// balancing), the Knox follow-up (dependency graphs for layered flags),
// and the lesson analyzers of §III-C that turn a timing board into the
// concepts the activity teaches.
package core

import (
	"context"
	"fmt"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/processor"
	"flagsim/internal/rng"
	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// ScenarioID identifies one of the activity's scenarios.
type ScenarioID uint8

// The scenarios of Fig. 1, plus the pipelined variant of scenario 4 used
// by the §III-C pipelining discussion and the E5 ablation.
const (
	// S1 is scenario 1: one student colors the entire flag.
	S1 ScenarioID = iota
	// S2 is scenario 2: two students, each coloring a pair of stripes.
	S2
	// S3 is scenario 3: four students, one stripe each.
	S3
	// S4 is scenario 4: four students, one vertical slice each, sharing
	// one implement per color in naive top-down order.
	S4
	// S4Pipelined is scenario 4 with the rotated start described in
	// §III-C: "pass the drawing implements around so that each processor
	// gets the right one at any given moment".
	S4Pipelined
)

// String names the scenario.
func (s ScenarioID) String() string {
	switch s {
	case S1:
		return "scenario-1"
	case S2:
		return "scenario-2"
	case S3:
		return "scenario-3"
	case S4:
		return "scenario-4"
	case S4Pipelined:
		return "scenario-4-pipelined"
	default:
		return fmt.Sprintf("scenario(%d)", uint8(s))
	}
}

// Scenario describes one scenario: its worker count and how it decomposes
// a flag into a workplan.
type Scenario struct {
	ID ScenarioID
	// Workers is the number of coloring students (the timing student is
	// not simulated; the kernel is the stopwatch).
	Workers int
	// Description is the instruction given to the class.
	Description string
}

// CoreScenarios returns the four scenarios of Fig. 1 in activity order.
func CoreScenarios() []Scenario {
	return []Scenario{
		{ID: S1, Workers: 1, Description: "One student colors the entire flag while a second student times them."},
		{ID: S2, Workers: 2, Description: "Two students color the flag: one the red and blue stripes, the other the yellow and green; a third times them."},
		{ID: S3, Workers: 4, Description: "Four students color the flag, one stripe each; a fifth times them."},
		{ID: S4, Workers: 4, Description: "Four students color the flag, one vertical slice each, handing off the markers; everyone starts at the top."},
	}
}

// ScenarioByID returns the scenario definition for id.
func ScenarioByID(id ScenarioID) (Scenario, error) {
	switch id {
	case S4Pipelined:
		return Scenario{ID: S4Pipelined, Workers: 4,
			Description: "Scenario 4 with staggered starting stripes so the implements circulate without collisions."}, nil
	default:
		for _, s := range CoreScenarios() {
			if s.ID == id {
				return s, nil
			}
		}
	}
	return Scenario{}, fmt.Errorf("core: unknown scenario %d", id)
}

// Plan builds the scenario's decomposition of flag f at size w×h.
func (s Scenario) Plan(f *flagspec.Flag, w, h int) (*workplan.Plan, error) {
	return s.PlanFrom(workplan.NewGeometry(f, w, h))
}

// PlanFrom is Plan over a precomputed geometry of the flag and size.
func (s Scenario) PlanFrom(g *workplan.Geometry) (*workplan.Plan, error) {
	switch s.ID {
	case S1:
		return g.Sequential()
	case S2:
		return g.LayerBlocks(2)
	case S3:
		return g.LayerBlocks(min(s.Workers, len(g.Flag().Layers)))
	case S4:
		return g.VerticalSlices(s.Workers, false)
	case S4Pipelined:
		return g.VerticalSlices(s.Workers, true)
	default:
		return nil, fmt.Errorf("core: scenario %v has no plan", s.ID)
	}
}

// RunSpec configures one scenario run.
type RunSpec struct {
	Flag *flagspec.Flag
	// W, H override the flag's handout size when positive.
	W, H     int
	Scenario Scenario
	// Team are the coloring students; len must equal Scenario.Workers.
	// Warmup state persists across runs, so reusing a team across
	// scenarios models the same students staying at the table.
	Team []*processor.Processor
	// Set is the team's implements. Nil gets one thick marker per color.
	Set *implement.Set
	// Setup is the serial organization time before coloring starts.
	Setup time.Duration
	// Hold is the implement retention policy.
	Hold sim.HoldPolicy
	// Trace enables span capture.
	Trace bool
	// Probes observe engine events (see sim.Probe); a probe shared across
	// concurrent runs must be goroutine-safe.
	Probes []sim.Probe
	// Faults, when non-nil, injects deterministic faults into the run
	// (see sim.FaultInjector). Safe fault classes leave the final grid
	// correct, so Run's verification still passes under faults.
	Faults sim.FaultInjector
	// Geometry, when non-nil, is Flag's precomputed raster at the run's
	// size; the run plans and verifies from it instead of rasterizing
	// the flag. A geometry of another flag or size is an error.
	Geometry *workplan.Geometry
	// Arena, when non-nil, runs through the caller's arena (see
	// sim.Config.Arena): the Result aliases arena memory, valid only
	// until the arena's next run. nil returns an independent Result.
	Arena *sim.Arena
}

// simConfig translates a RunSpec into the simulator's plan-driven config,
// and returns the geometry the plan was built from for the final check.
func simConfig(spec RunSpec) (sim.Config, *workplan.Geometry, error) {
	if spec.Flag == nil {
		return sim.Config{}, nil, fmt.Errorf("core: nil flag")
	}
	w, h := spec.W, spec.H
	if w <= 0 {
		w = spec.Flag.DefaultW
	}
	if h <= 0 {
		h = spec.Flag.DefaultH
	}
	geo := spec.Geometry
	if geo == nil {
		geo = workplan.NewGeometry(spec.Flag, w, h)
	} else if err := geo.Match(spec.Flag, w, h); err != nil {
		return sim.Config{}, nil, err
	}
	plan, err := spec.Scenario.PlanFrom(geo)
	if err != nil {
		return sim.Config{}, nil, err
	}
	// A team larger than the plan needs is fine: the extra students sit
	// out (scenario 3 on a three-stripe flag uses only three colorers).
	if len(spec.Team) < plan.NumProcs() {
		return sim.Config{}, nil, fmt.Errorf("core: %v wants %d workers, team has %d",
			spec.Scenario.ID, plan.NumProcs(), len(spec.Team))
	}
	set := spec.Set
	if set == nil {
		set = implement.NewSet(implement.ThickMarker, spec.Flag.Colors())
	}
	return sim.Config{
		Plan:   plan,
		Procs:  spec.Team[:plan.NumProcs()],
		Set:    set,
		Hold:   spec.Hold,
		Setup:  spec.Setup,
		Trace:  spec.Trace,
		Probes: spec.Probes,
		Faults: spec.Faults,
		Arena:  spec.Arena,
	}, geo, nil
}

// Run executes the scenario and verifies the flag was colored correctly.
func Run(spec RunSpec) (*sim.Result, error) { return RunCtx(nil, spec) }

// RunCtx is Run with a cancellation context: a canceled ctx aborts the
// simulation at the next engine checkpoint with sim.ErrCanceled. A nil
// ctx runs unchecked.
func RunCtx(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	cfg, geo, err := simConfig(spec)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := res.VerifyGeometry(geo); err != nil {
		return nil, err
	}
	return res, nil
}

// RunStealing executes the scenario under the work-stealing executor —
// the scenario's static split is the starting assignment, and idle
// students take work off the most-loaded teammate's pile — then verifies
// the flag.
func RunStealing(spec RunSpec) (*sim.Result, error) { return RunStealingCtx(nil, spec) }

// RunStealingCtx is RunStealing with a cancellation context (see RunCtx).
func RunStealingCtx(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	cfg, geo, err := simConfig(spec)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunStealCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := res.VerifyGeometry(geo); err != nil {
		return nil, err
	}
	return res, nil
}

// NewTeam builds n default students sharing a seed.
func NewTeam(n int, seed uint64) ([]*processor.Processor, error) {
	return processor.Team(n, processor.DefaultProfile("P"), rng.New(seed))
}

// DefaultSetup is the serial scenario-organization time used when the
// caller doesn't specify one: the instructor explains, the team assigns
// roles. It is the activity's Amdahl serial fraction.
const DefaultSetup = 20 * time.Second

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
