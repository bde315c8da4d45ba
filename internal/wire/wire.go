// Package wire holds the JSON request/response DTOs shared by every
// network surface that speaks "one simulation run" over HTTP: the
// flagsimd service (internal/server), the flagdispd dispatcher and its
// flagworkd workers (internal/dist), and the CLI submit path. Requests
// use human-readable enums ("steal", "crayon", "pull-color-affinity")
// and resolve onto sweep.Spec — the declarative, content-addressed unit
// of work the library batches — so every surface inherits the same
// validation, the same defaulting, and the same determinism contract:
// a result section is a pure function of the spec, byte-identical no
// matter which process computed it.
//
// The DTOs started life inside internal/server; they are extracted here
// so the dispatcher can journal jobs, key them by Spec().Key(), and
// hand them to workers without importing the HTTP service.
package wire

import (
	"fmt"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
)

// RunRequest describes one simulation run over the wire.
type RunRequest struct {
	// Exec is the executor class: "static" (default), "steal", "dynamic".
	Exec string `json:"exec,omitempty"`
	// Flag names a built-in flag; default "mauritius".
	Flag string `json:"flag,omitempty"`
	// W, H override the flag's handout raster size when positive.
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
	// Scenario is the Fig. 1 scenario number 1-4; default 1. Pipelined
	// selects the rotated variant of scenario 4.
	Scenario  int  `json:"scenario,omitempty"`
	Pipelined bool `json:"pipelined,omitempty"`
	// Workers overrides the scenario's worker count (team size for
	// "dynamic").
	Workers int `json:"workers,omitempty"`
	// Kind is the implement class: "dauber", "thick-marker" (default),
	// "thin-marker", "crayon".
	Kind string `json:"kind,omitempty"`
	// PerColor is the number of implements per color; default 1.
	PerColor int `json:"per_color,omitempty"`
	// Seed derives the team's random streams.
	Seed uint64 `json:"seed,omitempty"`
	// Setup is the serial organization phase as a Go duration ("20s").
	Setup string `json:"setup,omitempty"`
	// Hold is the retention policy: "greedy-hold" (default),
	// "eager-release".
	Hold string `json:"hold,omitempty"`
	// Policy is the dynamic pull rule: "pull-ordered" (default),
	// "pull-color-affinity".
	Policy string `json:"policy,omitempty"`
	// Skills optionally fixes per-worker skill multipliers.
	Skills []float64 `json:"skills,omitempty"`
	// Jitter is the lognormal service-noise sigma.
	Jitter float64 `json:"jitter,omitempty"`
	// Faults optionally injects a deterministic fault plan into the run.
	Faults *FaultRequest `json:"faults,omitempty"`
}

// FaultStallRequest is one stall window over the wire.
type FaultStallRequest struct {
	// Proc is the 0-based processor index; -1 stalls every processor.
	Proc int `json:"proc"`
	// At and For are Go durations ("30s", "1m30s").
	At  string `json:"at"`
	For string `json:"for"`
}

// FaultRequest describes a fault plan over the wire: either a named
// preset ("none", "light", "heavy") or an explicit plan, never both.
// The unsound lost-update injector is deliberately not reachable from
// the wire — it exists only so the test suite can prove the oracle
// fires.
type FaultRequest struct {
	// Preset names a built-in plan; mutually exclusive with the explicit
	// fields below.
	Preset string `json:"preset,omitempty"`
	// Seed derives every per-cell fault decision. Zero is a valid seed;
	// the plan's identity (and the spec's cache key) includes it.
	Seed uint64 `json:"seed,omitempty"`
	// Stalls are processor freeze windows.
	Stalls []FaultStallRequest `json:"stalls,omitempty"`
	// DegradeProb marks cells whose paint takes DegradeFactor times as
	// long (factor must be >= 1).
	DegradeProb   float64 `json:"degrade_prob,omitempty"`
	DegradeFactor float64 `json:"degrade_factor,omitempty"`
	// BreakProb forces implement breakage on marked cells.
	BreakProb float64 `json:"break_prob,omitempty"`
	// RepaintProb makes the first paint attempt of marked cells fail,
	// forcing a repaint.
	RepaintProb float64 `json:"repaint_prob,omitempty"`
	// HandoffDelayProb delays implement handoffs by HandoffDelay.
	HandoffDelayProb float64 `json:"handoff_delay_prob,omitempty"`
	HandoffDelay     string  `json:"handoff_delay,omitempty"`
}

// Plan resolves the wire form into a validated fault plan; nil means no
// injection.
func (f *FaultRequest) Plan() (*fault.Plan, error) {
	if f == nil {
		return nil, nil
	}
	explicit := len(f.Stalls) > 0 || f.DegradeProb != 0 || f.DegradeFactor != 0 ||
		f.BreakProb != 0 || f.RepaintProb != 0 ||
		f.HandoffDelayProb != 0 || f.HandoffDelay != ""
	if f.Preset != "" {
		if explicit {
			return nil, fmt.Errorf("faults: preset %q excludes explicit plan fields", f.Preset)
		}
		return fault.Preset(f.Preset, f.Seed)
	}
	p := &fault.Plan{
		Seed:             f.Seed,
		DegradeProb:      f.DegradeProb,
		DegradeFactor:    f.DegradeFactor,
		BreakProb:        f.BreakProb,
		RepaintProb:      f.RepaintProb,
		HandoffDelayProb: f.HandoffDelayProb,
	}
	for i, st := range f.Stalls {
		at, err := time.ParseDuration(st.At)
		if err != nil {
			return nil, fmt.Errorf("faults: stall %d: bad at: %v", i, err)
		}
		dur, err := time.ParseDuration(st.For)
		if err != nil {
			return nil, fmt.Errorf("faults: stall %d: bad for: %v", i, err)
		}
		p.Stalls = append(p.Stalls, fault.Stall{Proc: st.Proc, At: at, For: dur})
	}
	if f.HandoffDelay != "" {
		d, err := time.ParseDuration(f.HandoffDelay)
		if err != nil {
			return nil, fmt.Errorf("faults: bad handoff_delay: %v", err)
		}
		p.HandoffDelay = d
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Zero() {
		return nil, nil
	}
	return p, nil
}

// Limits on what one request may make a run allocate: a run's memory
// grows with w×h, its team with workers and its implement set with
// per_color. The HTTP front end refuses a request over them with 400,
// for both daemons. Spec does not check them, so a job journaled before
// they existed still resolves.
const (
	MaxSide     = 1024
	MaxWorkers  = 1024
	MaxPerColor = 1024
)

// CheckLimits reports the first of w, h, workers and per_color that is
// over its limit.
func (r RunRequest) CheckLimits() error {
	if err := overLimit("w", r.W, MaxSide); err != nil {
		return err
	}
	if err := overLimit("h", r.H, MaxSide); err != nil {
		return err
	}
	if err := overLimit("workers", r.Workers, MaxWorkers); err != nil {
		return err
	}
	return overLimit("per_color", r.PerColor, MaxPerColor)
}

func overLimit(field string, v, limit int) error {
	if v > limit {
		return fmt.Errorf("%s %d is over the limit %d", field, v, limit)
	}
	return nil
}

// Spec resolves the request into the library's declarative run spec.
func (r RunRequest) Spec() (sweep.Spec, error) {
	sp := sweep.Spec{
		W: r.W, H: r.H, Workers: r.Workers, PerColor: r.PerColor,
		Seed: r.Seed, Skills: r.Skills, Jitter: r.Jitter,
	}
	switch r.Exec {
	case "", "static":
		sp.Exec = sweep.ExecStatic
	case "steal":
		sp.Exec = sweep.ExecSteal
	case "dynamic":
		sp.Exec = sweep.ExecDynamic
	default:
		return sp, fmt.Errorf("unknown exec %q (static, steal, dynamic)", r.Exec)
	}
	sp.Flag = r.Flag
	if sp.Flag == "" {
		sp.Flag = "mauritius"
	}
	if _, err := flagspec.Lookup(sp.Flag); err != nil {
		return sp, err
	}
	switch {
	case r.Scenario == 0 || r.Scenario == 1:
		sp.Scenario = core.S1
	case r.Scenario >= 2 && r.Scenario <= 3:
		sp.Scenario = core.ScenarioID(r.Scenario - 1)
	case r.Scenario == 4 && r.Pipelined:
		sp.Scenario = core.S4Pipelined
	case r.Scenario == 4:
		sp.Scenario = core.S4
	default:
		return sp, fmt.Errorf("scenario %d out of range 1-4", r.Scenario)
	}
	if r.Pipelined && r.Scenario != 4 && r.Scenario != 0 {
		return sp, fmt.Errorf("pipelined applies to scenario 4, not %d", r.Scenario)
	}
	kindName := r.Kind
	if kindName == "" {
		kindName = "thick-marker"
	}
	kind, err := implement.ParseKind(kindName)
	if err != nil {
		return sp, err
	}
	sp.Kind = kind
	if r.Setup != "" {
		d, err := time.ParseDuration(r.Setup)
		if err != nil {
			return sp, fmt.Errorf("bad setup duration: %v", err)
		}
		if d < 0 {
			return sp, fmt.Errorf("negative setup %v", d)
		}
		sp.Setup = d
	}
	switch r.Hold {
	case "", "greedy-hold":
		sp.Hold = sim.GreedyHold
	case "eager-release":
		sp.Hold = sim.EagerRelease
	default:
		return sp, fmt.Errorf("unknown hold %q (greedy-hold, eager-release)", r.Hold)
	}
	switch r.Policy {
	case "", "pull-ordered":
		sp.Policy = sim.PullOrdered
	case "pull-color-affinity":
		sp.Policy = sim.PullColorAffinity
	default:
		return sp, fmt.Errorf("unknown policy %q (pull-ordered, pull-color-affinity)", r.Policy)
	}
	plan, err := r.Faults.Plan()
	if err != nil {
		return sp, err
	}
	sp.Faults = plan
	if sp.Exec == sweep.ExecDynamic && sp.Workers == 0 {
		// The scenario's worker count is what a run request means even
		// under the bag executor; a solo dynamic run must be explicit.
		scen, err := core.ScenarioByID(sp.Scenario)
		if err != nil {
			return sp, err
		}
		sp.Workers = scen.Workers
	}
	return sp, nil
}
