// Package processor models the student-as-processor: per-cell service
// times, skill spread, movement cost, and the warmup effect.
//
// Warmup is the paper's "system warmup" lesson (§III-C): the first run of
// scenario 1 is slow because students are unfamiliar with the task, and a
// repeat run is markedly faster — the instructor analogizes to caching,
// power-state exit, and JIT compilation. We model it as a multiplicative
// penalty that decays exponentially with the number of cells a student has
// colored so far in the session. The counter persists across scenario runs
// within a session, so re-running scenario 1 is faster for the same reason
// the classroom's was.
//
// Every fresh team walks the same warmup curve, so DefaultProfile's curve
// is computed once, at package initialization, with the same expression
// WarmupFactor would evaluate, up to the first cell count where that
// expression gives exactly 1.0 (721 cells). WarmupFactor reads the table
// when the processor's penalty and decay are the default pair, returns 1
// past its end, and evaluates the expression for any other pair, so its
// answers are bit-identical to evaluating it every time.
package processor

import (
	"fmt"
	"math"
	"time"

	"flagsim/internal/geom"
	"flagsim/internal/implement"
	"flagsim/internal/rng"
)

// BaseCellTime is the virtual time to color one cell at skill 1.0 with a
// thick marker, fully warmed up. All other times scale from it.
const BaseCellTime = time.Second

// Profile is the static description of a student processor.
type Profile struct {
	// Name labels the processor in traces ("P1".."P4" in the paper's
	// Fig. 1).
	Name string
	// Skill divides service time; 1.0 is an average student. Must be
	// positive.
	Skill float64
	// WarmupPenalty is the extra service-time multiplier at zero
	// experience: the first cell costs (1+WarmupPenalty)× the warm rate.
	// Zero disables warmup.
	WarmupPenalty float64
	// WarmupDecayCells is the experience scale: after coloring this many
	// cells the penalty has decayed to 1/e of WarmupPenalty.
	WarmupDecayCells float64
	// MovePerCell is the time to reposition the implement per unit of
	// Manhattan distance between consecutive cells. Adjacent cells in
	// reading order cost one unit.
	MovePerCell time.Duration
	// JitterSigma is the lognormal sigma of per-cell service noise.
	// Zero makes the processor fully deterministic.
	JitterSigma float64
}

// DefaultProfile returns an average student with the calibrated warmup
// model: first cells ~50% slower, decaying over ~20 cells of practice.
func DefaultProfile(name string) Profile {
	return Profile{
		Name:             name,
		Skill:            1.0,
		WarmupPenalty:    0.5,
		WarmupDecayCells: 20,
		MovePerCell:      120 * time.Millisecond,
		JitterSigma:      0.0,
	}
}

// Validate reports structural errors in the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("processor: profile has no name")
	}
	if p.Skill <= 0 {
		return fmt.Errorf("processor: %s: non-positive skill %v", p.Name, p.Skill)
	}
	if p.WarmupPenalty < 0 {
		return fmt.Errorf("processor: %s: negative warmup penalty", p.Name)
	}
	if p.WarmupPenalty > 0 && p.WarmupDecayCells <= 0 {
		return fmt.Errorf("processor: %s: warmup penalty without positive decay scale", p.Name)
	}
	if p.MovePerCell < 0 {
		return fmt.Errorf("processor: %s: negative move cost", p.Name)
	}
	if p.JitterSigma < 0 {
		return fmt.Errorf("processor: %s: negative jitter", p.Name)
	}
	return nil
}

// Processor is the mutable per-session state of one student.
type Processor struct {
	Profile
	// cellsColored counts cells colored this session, across runs; it
	// drives warmup decay.
	cellsColored int
	// lastCell is the previous cell painted, for movement cost; nil-like
	// sentinel before the first cell of a run.
	lastCell    geom.Pt
	hasLastCell bool

	rng *rng.Stream
}

// New returns a processor with the given profile and a private random
// stream (used only when JitterSigma > 0).
func New(p Profile, stream *rng.Stream) (*Processor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if stream == nil {
		stream = rng.New(0)
	}
	return &Processor{Profile: p, rng: stream}, nil
}

// MustNew is New for static configuration; it panics on invalid profiles.
func MustNew(p Profile, stream *rng.Stream) *Processor {
	proc, err := New(p, stream)
	if err != nil {
		panic(err)
	}
	return proc
}

// CellsColored returns the session experience counter.
func (pr *Processor) CellsColored() int { return pr.cellsColored }

// ResetRun clears per-run state (movement anchor) but preserves session
// experience. Call between scenario runs.
func (pr *Processor) ResetRun() { pr.hasLastCell = false }

// ResetSession clears everything, as if a fresh student sat down.
func (pr *Processor) ResetSession() {
	pr.cellsColored = 0
	pr.hasLastCell = false
}

// WarmupFactor returns the current service-time multiplier (>= 1).
func (pr *Processor) WarmupFactor() float64 {
	if pr.WarmupPenalty == 0 {
		return 1
	}
	if pr.WarmupPenalty == warmup.penalty && pr.WarmupDecayCells == warmup.decay {
		if pr.cellsColored < len(warmup.factor) {
			return warmup.factor[pr.cellsColored]
		}
		return 1
	}
	return warmupFormula(pr.WarmupPenalty, pr.WarmupDecayCells, pr.cellsColored)
}

// warmupFormula is the warmup multiplier after n cells of practice.
func warmupFormula(penalty, decay float64, n int) float64 {
	return 1 + penalty*math.Exp(-float64(n)/decay)
}

// warmupTable is one (penalty, decay) pair's warmup curve: factor[n] is
// warmupFormula at n, up to the first n where the formula gives exactly
// 1.0. Past that n the formula stays 1.0, because the exponential only
// falls.
type warmupTable struct {
	penalty, decay float64
	factor         []float64
}

// warmup is DefaultProfile's curve (721 entries), which every fresh team
// walks from its first cell.
var warmup = func() warmupTable {
	p := DefaultProfile("")
	t := warmupTable{penalty: p.WarmupPenalty, decay: p.WarmupDecayCells}
	for n := 0; warmupFormula(t.penalty, t.decay, n) != 1; n++ {
		t.factor = append(t.factor, warmupFormula(t.penalty, t.decay, n))
	}
	return t
}()

// ServiceTime returns the time to color cell p with the given implement and
// advances the processor's experience and position state. The decomposition
// of the cost is:
//
//	move (Manhattan distance from previous cell) +
//	BaseCellTime × implement speed factor × warmup / skill × jitter
func (pr *Processor) ServiceTime(p geom.Pt, im *implement.Implement) time.Duration {
	var move time.Duration
	if pr.hasLastCell {
		move = time.Duration(pr.lastCell.ManhattanDist(p)) * pr.MovePerCell
	}
	base := float64(BaseCellTime) * im.Spec.SpeedFactor * pr.WarmupFactor() / pr.Skill
	if pr.JitterSigma > 0 {
		base *= pr.rng.LogNormal(0, pr.JitterSigma)
	}
	pr.cellsColored++
	pr.lastCell = p
	pr.hasLastCell = true
	return move + time.Duration(base)
}

// PeekServiceTime is ServiceTime without state advancement, for planners
// that want cost estimates.
func (pr *Processor) PeekServiceTime(p geom.Pt, im *implement.Implement) time.Duration {
	var move time.Duration
	if pr.hasLastCell {
		move = time.Duration(pr.lastCell.ManhattanDist(p)) * pr.MovePerCell
	}
	base := float64(BaseCellTime) * im.Spec.SpeedFactor * pr.WarmupFactor() / pr.Skill
	return move + time.Duration(base)
}

// Breaks reports whether the implement fails on this cell, consuming a
// draw from the processor's stream only when the implement can break.
func (pr *Processor) Breaks(im *implement.Implement) bool {
	if im.Spec.BreakProb <= 0 {
		return false
	}
	return pr.rng.Bernoulli(im.Spec.BreakProb)
}

// Team builds n processors named P1..Pn with the given profile template
// (names overridden) and per-processor split streams.
func Team(n int, template Profile, stream *rng.Stream) ([]*Processor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("processor: team of %d", n)
	}
	if stream == nil {
		stream = rng.New(0)
	}
	out := make([]*Processor, n)
	for i := range out {
		p := template
		p.Name = fmt.Sprintf("P%d", i+1)
		proc, err := New(p, stream.SplitLabeled(p.Name))
		if err != nil {
			return nil, err
		}
		out[i] = proc
	}
	return out, nil
}
