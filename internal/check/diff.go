package check

// The differential harness: the same workload pushed through all three
// executors under each fault plan, every run verified by a fresh Oracle,
// and the cross-run conserved quantities compared. The executors promise
// different schedules but identical semantics — same final grid, same
// work performed — and faults promise to add time without changing what
// gets painted. Diff machine-checks both promises.
//
// What Diff deliberately does NOT assert: makespan monotonicity under
// faults. Adding delay to one processor can shorten the overall schedule
// under dynamic or stealing execution (Graham's scheduling anomalies —
// a stalled processor stops grabbing the contended implement first), so
// a faulted run legitimately finishing earlier than its clean twin is
// physics, not a bug.

import (
	"context"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flagspec"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
)

// execs is the executor sweep order of the harness.
var execs = []sweep.Exec{sweep.ExecStatic, sweep.ExecSteal, sweep.ExecDynamic}

// DiffConfig describes one differential suite. The zero value of every
// field is a usable default: Mauritius at handout size, scenario 4
// pipelined with its four workers, thick markers, the default setup, and
// the three fault presets (none/light/heavy) seeded from Seed.
type DiffConfig struct {
	// Flag names the workload; default "mauritius".
	Flag string
	// W, H override the flag's default raster size when positive.
	W, H int
	// Scenario selects the static decomposition; default S4Pipelined
	// (the contention-heavy one, where executor divergence would show).
	Scenario core.ScenarioID
	// Workers overrides the scenario's worker count when positive.
	Workers int
	// Kind is the implement technology class; default thick marker.
	Kind implement.Kind
	// PerColor is the number of implements per color; 0 means 1.
	PerColor int
	// Seed derives team streams and default fault-plan seeds.
	Seed uint64
	// Setup is the serial organization phase; 0 uses core.DefaultSetup.
	Setup time.Duration
	// Plans are the fault plans to sweep (nil entries mean fault-free).
	// Empty defaults to [nil, light, heavy].
	Plans []*fault.Plan
	// Repeat re-runs every configuration a second time and requires the
	// repeat to be byte-identical (grid hash, makespan, events) — the
	// determinism contract checked end to end.
	Repeat bool
}

// DiffRow is one executed configuration of the suite.
type DiffRow struct {
	Exec     sweep.Exec
	Plan     string // fault plan label ("none" for nil)
	Spec     sweep.Spec
	Makespan time.Duration
	Events   uint64
	Cells    int
	GridSHA  string
	Faults   sim.FaultStats
}

// DiffResult is the outcome of a differential suite.
type DiffResult struct {
	Rows []DiffRow
	// Violations are the oracle findings across all runs, prefixed with
	// the offending run's label.
	Violations []string
	// Mismatches are cross-run conservation failures.
	Mismatches []string
}

// Err returns nil when the suite found nothing, or an error summarizing
// the findings.
func (r *DiffResult) Err() error {
	if len(r.Violations) == 0 && len(r.Mismatches) == 0 {
		return nil
	}
	var first string
	if len(r.Violations) > 0 {
		first = r.Violations[0]
	} else {
		first = r.Mismatches[0]
	}
	return fmt.Errorf("check: differential suite found %d invariant violation(s), %d conservation mismatch(es); first: %s",
		len(r.Violations), len(r.Mismatches), first)
}

// Report renders the suite as an aligned text table plus findings, for
// the flagcheck CLI.
func (r *DiffResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-28s %14s %8s %7s  %s\n",
		"EXEC", "FAULTS", "MAKESPAN", "EVENTS", "CELLS", "GRID")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-28s %14s %8d %7d  %s\n",
			row.Exec, row.Plan, row.Makespan, row.Events, row.Cells, shortSHA(row.GridSHA))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION %s\n", v)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "MISMATCH %s\n", m)
	}
	return b.String()
}

// withDefaults resolves the zero-value defaults and rejects
// configurations that could never run, so Diff can treat an individual
// run failure later as a finding rather than a configuration mistake.
func (c DiffConfig) withDefaults() (DiffConfig, error) {
	if c.Flag == "" {
		c.Flag = "mauritius"
	}
	if _, err := flagspec.Lookup(c.Flag); err != nil {
		return c, err
	}
	if c.Scenario == core.S1 && c.Workers == 0 {
		c.Scenario = core.S4Pipelined
	}
	if _, err := core.ScenarioByID(c.Scenario); err != nil {
		return c, err
	}
	if c.Setup == 0 {
		c.Setup = core.DefaultSetup
	}
	if len(c.Plans) == 0 {
		light, err := fault.Preset("light", c.Seed+1)
		if err != nil {
			return c, err
		}
		heavy, err := fault.Preset("heavy", c.Seed+2)
		if err != nil {
			return c, err
		}
		c.Plans = []*fault.Plan{nil, light, heavy}
	}
	for i, p := range c.Plans {
		if err := p.Validate(); err != nil {
			return c, fmt.Errorf("plan %d: %w", i, err)
		}
	}
	return c, nil
}

// spec builds the sweep.Spec for one (executor, plan) combination.
func (c DiffConfig) spec(exec sweep.Exec, plan *fault.Plan) sweep.Spec {
	return sweep.Spec{
		Exec:     exec,
		Flag:     c.Flag,
		W:        c.W,
		H:        c.H,
		Scenario: c.Scenario,
		Workers:  c.Workers,
		Kind:     c.Kind,
		PerColor: c.PerColor,
		Seed:     c.Seed,
		Setup:    c.Setup,
		Faults:   plan,
	}
}

// planLabel names a possibly-nil plan.
func planLabel(p *fault.Plan) string {
	if p == nil {
		return "none"
	}
	return p.Label()
}

// Diff runs the differential suite: every executor under every fault
// plan, each run oracle-verified, then the cross-run comparisons. A run
// that fails outright (for example the static entry point's own grid
// verification rejecting a corrupted result) is itself a differential
// finding — it is recorded and the suite continues, with the dead row
// excluded from the conservation comparisons. The returned error is
// reserved for configuration mistakes and context cancellation;
// correctness findings land in the DiffResult — check its Err.
func Diff(ctx context.Context, cfg DiffConfig) (*DiffResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	out := &DiffResult{}
	// rows[planIdx][execIdx], for the conservation comparisons below.
	// A row with an empty GridSHA marks a run that failed to finish.
	rows := make([][]DiffRow, len(cfg.Plans))
	for pi, plan := range cfg.Plans {
		for _, ex := range execs {
			spec := cfg.spec(ex, plan)
			label := fmt.Sprintf("%s/faults=%s", ex, planLabel(plan))
			row, violations, err := runVerified(ctx, spec, label)
			if err != nil {
				if ctx != nil && ctx.Err() != nil {
					return nil, fmt.Errorf("%s: %w", label, err)
				}
				out.Violations = append(out.Violations, fmt.Sprintf("%s: run failed: %v", label, err))
				row = DiffRow{Exec: ex, Spec: spec}
			}
			row.Plan = planLabel(plan)
			out.Violations = append(out.Violations, violations...)
			if cfg.Repeat && row.GridSHA != "" {
				again, violations2, err := runVerified(ctx, spec, label+" (repeat)")
				if err != nil {
					if ctx != nil && ctx.Err() != nil {
						return nil, fmt.Errorf("%s repeat: %w", label, err)
					}
					out.Violations = append(out.Violations,
						fmt.Sprintf("%s: repeat run failed after a clean first run: %v", label, err))
				} else {
					out.Violations = append(out.Violations, violations2...)
					if again.GridSHA != row.GridSHA || again.Makespan != row.Makespan ||
						again.Events != row.Events || again.Cells != row.Cells {
						out.Mismatches = append(out.Mismatches, fmt.Sprintf(
							"%s: repeat run diverged (makespan %v vs %v, events %d vs %d, grid %s vs %s)",
							label, again.Makespan, row.Makespan, again.Events, row.Events,
							shortSHA(again.GridSHA), shortSHA(row.GridSHA)))
					}
				}
			}
			rows[pi] = append(rows[pi], row)
			out.Rows = append(out.Rows, row)
		}
	}
	compare(cfg, rows, out)
	return out, nil
}

// shortSHA abbreviates a grid hash for messages; a failed run has none.
func shortSHA(s string) string {
	if len(s) < 12 {
		return "(failed)"
	}
	return s[:12]
}

// runVerified executes one spec with a fresh Oracle installed and
// returns its row plus the labeled oracle findings.
func runVerified(ctx context.Context, spec sweep.Spec, label string) (DiffRow, []string, error) {
	oracle := NewOracle()
	res, err := spec.RunOnce(ctx, oracle)
	if err != nil {
		return DiffRow{}, nil, err
	}
	cells := 0
	for _, p := range res.Procs {
		cells += p.Cells
	}
	sum := res.Grid.Digest()
	row := DiffRow{
		Exec:     spec.Exec,
		Spec:     spec,
		Makespan: res.Makespan,
		Events:   res.Events,
		Cells:    cells,
		GridSHA:  hex.EncodeToString(sum[:]),
		Faults:   res.Faults,
	}
	var findings []string
	for _, v := range oracle.Violations() {
		findings = append(findings, fmt.Sprintf("%s: %s", label, v))
	}
	return row, findings, nil
}

// compare checks the cross-run conserved quantities:
//
//   - every run's grid is identical (all executors, all fault plans
//     converge on the same final picture);
//   - per executor, the cell count is identical across fault plans
//     (faults add time, never work);
//   - static and steal complete the same cells under every plan (same
//     decomposition, different schedule);
//   - per plan, the cell-keyed fault markings (degraded cells, repaints)
//     are identical across executors — the executor-independence that
//     makes fault plans comparable at all.
func compare(cfg DiffConfig, rows [][]DiffRow, out *DiffResult) {
	mismatch := func(format string, args ...any) {
		out.Mismatches = append(out.Mismatches, fmt.Sprintf(format, args...))
	}
	ok := func(r DiffRow) bool { return r.GridSHA != "" }
	// Reference grid: the first row that actually finished. Failed rows
	// were already recorded as findings; they sit out every comparison.
	var ref DiffRow
	for pi := range rows {
		for _, row := range rows[pi] {
			if ok(row) {
				ref = row
				break
			}
		}
		if ok(ref) {
			break
		}
	}
	if !ok(ref) {
		return
	}
	for pi := range rows {
		for _, row := range rows[pi] {
			if ok(row) && row.GridSHA != ref.GridSHA {
				mismatch("%s under faults=%s: grid %s differs from %s/faults=%s grid %s",
					row.Exec, row.Plan, shortSHA(row.GridSHA), ref.Exec, ref.Plan, shortSHA(ref.GridSHA))
			}
		}
	}
	for ei, ex := range execs {
		base := DiffRow{}
		for pi := range rows {
			if ok(rows[pi][ei]) {
				base = rows[pi][ei]
				break
			}
		}
		if !ok(base) {
			continue
		}
		for pi := range rows {
			if got := rows[pi][ei]; ok(got) && got.Cells != base.Cells {
				mismatch("%s: %d cells under faults=%s, %d under faults=%s (faults must not change work)",
					ex, got.Cells, got.Plan, base.Cells, base.Plan)
			}
		}
	}
	for pi := range rows {
		static, steal := rows[pi][0], rows[pi][1]
		if ok(static) && ok(steal) && static.Cells != steal.Cells {
			mismatch("faults=%s: static painted %d cells, steal painted %d (same decomposition)",
				static.Plan, static.Cells, steal.Cells)
		}
		if !ok(static) {
			continue
		}
		// Cell-keyed fault markings must be executor-independent within
		// each plan (compared only between rows doing identical work).
		// Forced breaks are excluded: they yield to the implement's own
		// stochastic breakage, whose draw order differs per executor
		// when the implement class breaks natively.
		for _, row := range rows[pi][1:] {
			if !ok(row) || row.Cells != static.Cells {
				continue
			}
			if row.Faults.Repaints != static.Faults.Repaints {
				mismatch("faults=%s: %s repainted %d cells, %s repainted %d (cell marking must be executor-independent)",
					row.Plan, row.Exec, row.Faults.Repaints, static.Exec, static.Faults.Repaints)
			}
			if row.Faults.DegradedCells != static.Faults.DegradedCells {
				mismatch("faults=%s: %s degraded %d paints, %s degraded %d (cell marking must be executor-independent)",
					row.Plan, row.Exec, row.Faults.DegradedCells, static.Exec, static.Faults.DegradedCells)
			}
		}
	}
}
