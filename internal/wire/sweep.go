package wire

import (
	"math"

	"flagsim/internal/sweep"
)

// SweepRequest is a cartesian grid over a base run request. Empty axes
// inherit the base value.
type SweepRequest struct {
	Base      RunRequest `json:"base"`
	Execs     []string   `json:"execs,omitempty"`
	Flags     []string   `json:"flags,omitempty"`
	Scenarios []int      `json:"scenarios,omitempty"`
	Workers   []int      `json:"workers,omitempty"`
	Kinds     []string   `json:"kinds,omitempty"`
	PerColor  []int      `json:"per_color,omitempty"`
	Policies  []string   `json:"policies,omitempty"`
	Seeds     []uint64   `json:"seeds,omitempty"`
	Setups    []string   `json:"setups,omitempty"`
}

// Size is the number of cells the grid expands to: the product of the
// axis lengths, an empty axis counting 1. It saturates at math.MaxInt
// rather than overflowing, so a cap can be checked before anything is
// expanded.
func (r SweepRequest) Size() int {
	n := 1
	for _, axis := range []int{len(r.Execs), len(r.Flags), len(r.Scenarios), len(r.Workers),
		len(r.Kinds), len(r.PerColor), len(r.Policies), len(r.Seeds), len(r.Setups)} {
		if axis == 0 {
			continue
		}
		if n > math.MaxInt/axis {
			return math.MaxInt
		}
		n *= axis
	}
	return n
}

// CheckLimits is RunRequest.CheckLimits over the base and every value on
// the workers and per_color axes.
func (r SweepRequest) CheckLimits() error {
	if err := r.Base.CheckLimits(); err != nil {
		return err
	}
	for _, v := range r.Workers {
		if err := overLimit("workers", v, MaxWorkers); err != nil {
			return err
		}
	}
	for _, v := range r.PerColor {
		if err := overLimit("per_color", v, MaxPerColor); err != nil {
			return err
		}
	}
	return nil
}

// Resolve enumerates the grid into one validated RunRequest per cell by
// walking the wire-level axes, so every cell gets the same validation
// and defaulting as a single run, and returns each cell's resolved spec
// alongside. The wire-level form (rather than the resolved sweep.Spec)
// is what a dispatcher journals and hands to workers: it round-trips
// through JSON and re-resolves identically on any machine.
func (r SweepRequest) Resolve() ([]RunRequest, []sweep.Spec, error) {
	var reqs []RunRequest
	var specs []sweep.Spec
	for _, exec := range orBase(r.Execs, r.Base.Exec) {
		for _, fl := range orBase(r.Flags, r.Base.Flag) {
			for _, scen := range orBase(r.Scenarios, r.Base.Scenario) {
				for _, workers := range orBase(r.Workers, r.Base.Workers) {
					for _, kind := range orBase(r.Kinds, r.Base.Kind) {
						for _, pc := range orBase(r.PerColor, r.Base.PerColor) {
							for _, pol := range orBase(r.Policies, r.Base.Policy) {
								for _, seed := range orBase(r.Seeds, r.Base.Seed) {
									for _, setup := range orBase(r.Setups, r.Base.Setup) {
										req := r.Base
										req.Exec, req.Flag, req.Scenario, req.Workers = exec, fl, scen, workers
										req.Kind, req.PerColor, req.Policy = kind, pc, pol
										req.Seed, req.Setup = seed, setup
										spec, err := req.Spec()
										if err != nil {
											return nil, nil, err
										}
										reqs = append(reqs, req)
										specs = append(specs, spec)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return reqs, specs, nil
}

// orBase returns axis, or the base value alone when the axis is empty.
func orBase[T any](axis []T, base T) []T {
	if len(axis) > 0 {
		return axis
	}
	return []T{base}
}

// Expand is Resolve's request list.
func (r SweepRequest) Expand() ([]RunRequest, error) {
	reqs, _, err := r.Resolve()
	return reqs, err
}

// Specs is Resolve's spec list, in the same cell order as Expand.
func (r SweepRequest) Specs() ([]sweep.Spec, error) {
	_, specs, err := r.Resolve()
	return specs, err
}
