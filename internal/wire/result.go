package wire

// The deterministic result section of a run response. Every field is a
// pure function of the spec, so two processes that execute the same spec
// — a flagsimd instance, a flagworkd worker, a direct library call —
// marshal byte-identical JSON. That byte-identity is what makes results
// content-addressable by spec hash across a whole cluster: the
// dispatcher's result tier stores exactly these bytes and can verify a
// worker's report against any other worker's.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"flagsim/internal/sim"
	"flagsim/internal/sweep"
)

// ProcResult is one processor's statistics in a response.
type ProcResult struct {
	Name            string `json:"name"`
	Cells           int    `json:"cells"`
	FinishNS        int64  `json:"finish_ns"`
	FirstPaintNS    int64  `json:"first_paint_ns"`
	PaintNS         int64  `json:"paint_ns"`
	WaitImplementNS int64  `json:"wait_implement_ns"`
	WaitLayerNS     int64  `json:"wait_layer_ns"`
	OverheadNS      int64  `json:"overhead_ns"`
}

// ImplementResult is one implement's statistics in a response.
type ImplementResult struct {
	ID        int    `json:"id"`
	Color     string `json:"color"`
	Kind      string `json:"kind"`
	BusyNS    int64  `json:"busy_ns"`
	Handoffs  int    `json:"handoffs"`
	MaxQueue  int    `json:"max_queue"`
	Breakages int    `json:"breakages"`
}

// SimResult is the deterministic section of a run response: every field
// is a pure function of the spec, so two requests for the same spec —
// or a request and a direct library call — produce byte-identical JSON.
type SimResult struct {
	Strategy        string            `json:"strategy"`
	MakespanNS      int64             `json:"makespan_ns"`
	SetupNS         int64             `json:"setup_ns"`
	Events          uint64            `json:"events"`
	MaxEventQueue   int               `json:"max_event_queue"`
	Breaks          int               `json:"breaks"`
	Steals          int               `json:"steals"`
	Migrated        int               `json:"migrated"`
	WaitImplementNS int64             `json:"wait_implement_ns"`
	WaitLayerNS     int64             `json:"wait_layer_ns"`
	PipelineFillNS  int64             `json:"pipeline_fill_ns"`
	GridSHA256      string            `json:"grid_sha256"`
	Procs           []ProcResult      `json:"procs"`
	Implements      []ImplementResult `json:"implements"`
	// Faults is present only when an installed fault plan actually
	// injected something, so fault-free responses stay byte-identical to
	// what they were before the fault subsystem existed.
	Faults *FaultResult `json:"faults,omitempty"`
}

// FaultResult tallies what an injected fault plan actually did.
type FaultResult struct {
	Stalls         int   `json:"stalls"`
	StallNS        int64 `json:"stall_ns"`
	DegradedCells  int   `json:"degraded_cells"`
	ForcedBreaks   int   `json:"forced_breaks"`
	HandoffDelays  int   `json:"handoff_delays"`
	HandoffDelayNS int64 `json:"handoff_delay_ns"`
	Repaints       int   `json:"repaints"`
}

// NewSimResult flattens a library Result into the wire form.
func NewSimResult(res *sim.Result) SimResult { return newSimResult(res, res.Grid.Digest()) }

// newSimResult is NewSimResult with the grid's digest already taken, so
// it reads no grid.
func newSimResult(res *sim.Result, gridSHA256 [sha256.Size]byte) SimResult {
	out := SimResult{
		Strategy:        res.Plan.Strategy,
		MakespanNS:      int64(res.Makespan),
		SetupNS:         int64(res.SetupTime),
		Events:          res.Events,
		MaxEventQueue:   res.MaxEventQueue,
		Breaks:          res.Breaks,
		Steals:          res.Steals,
		Migrated:        res.Migrated,
		WaitImplementNS: int64(res.TotalWaitImplement()),
		WaitLayerNS:     int64(res.TotalWaitLayer()),
		PipelineFillNS:  int64(res.PipelineFill()),
		GridSHA256:      hex.EncodeToString(gridSHA256[:]),
	}
	if f := res.Faults; f.Any() {
		out.Faults = &FaultResult{
			Stalls:         f.Stalls,
			StallNS:        int64(f.StallTime),
			DegradedCells:  f.DegradedCells,
			ForcedBreaks:   f.ForcedBreaks,
			HandoffDelays:  f.HandoffDelays,
			HandoffDelayNS: int64(f.HandoffDelayTime),
			Repaints:       f.Repaints,
		}
	}
	for _, p := range res.Procs {
		out.Procs = append(out.Procs, ProcResult{
			Name: p.Name, Cells: p.Cells,
			FinishNS: int64(p.Finish), FirstPaintNS: int64(p.FirstPaint),
			PaintNS: int64(p.PaintTime), WaitImplementNS: int64(p.WaitImplement),
			WaitLayerNS: int64(p.WaitLayer), OverheadNS: int64(p.Overhead),
		})
	}
	for _, im := range res.Implements {
		out.Implements = append(out.Implements, ImplementResult{
			ID: im.ID, Color: im.Color.String(), Kind: im.Kind.String(),
			BusyNS: int64(im.BusyTime), Handoffs: im.Handoffs,
			MaxQueue: im.MaxQueue, Breakages: im.Breakages,
		})
	}
	return out
}

// MarshalResult renders a library Result as the canonical wire bytes —
// the exact bytes a worker reports, the dispatcher's result tier stores,
// and the cluster determinism contract compares. json.Marshal over a
// struct is deterministic (fields in declaration order, no map
// iteration), so equal Results always yield equal bytes.
func MarshalResult(res *sim.Result) ([]byte, error) {
	return json.Marshal(NewSimResult(res))
}

// EncodeRecord is the daemons' sweep.Encoder: MarshalResult's bytes for
// a record's slim Result, whose grid digest comes from the summary.
func EncodeRecord(res *sim.Result, sum sweep.Summary) ([]byte, error) {
	return json.Marshal(newSimResult(res, sum.GridSHA256))
}

// SweepRunRow is one run's compact row in a sweep response, shared by
// flagsimd's /v1/sweep and flagdispd's fleet-backed one.
type SweepRunRow struct {
	Spec       string `json:"spec"`
	CacheHit   bool   `json:"cache_hit"`
	MakespanNS int64  `json:"makespan_ns,omitempty"`
	Events     uint64 `json:"events,omitempty"`
	GridSHA256 string `json:"grid_sha256,omitempty"`
	Err        string `json:"err,omitempty"`
}
