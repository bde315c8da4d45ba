package main

// Response checking. Every response is parsed in the timed loop, where
// the regime guards are tallied; outside it, a seeded sample of runs and
// sweep rows is recomputed locally with Spec.RunOnce and compared.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"flagsim/internal/dist"
	"flagsim/internal/server"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// runResponse is the part of flagsimd's /v1/run reply the benchmark
// checks; Result stays raw so it can be compared byte for byte.
type runResponse struct {
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
}

// guardTally counts each workload's defining property over the timed
// phase, summed from every response.
type guardTally struct {
	hits, misses            int // flagsimd cache outcomes
	warm, computed, deduped int // flagdispd row outcomes
}

// exchange is one completed call kept for local verification.
type exchange struct {
	req    request
	status int
	body   []byte
}

// checker parses one round's responses. It is shared by the round's
// clients.
type checker struct {
	w *workload

	mu sync.Mutex
	// setupRows holds the rows fleet-warm's set-up pass returned (the
	// barrier workload), by request body; every timed re-submission must
	// return the same rows.
	setupRows map[string][]wire.SweepRunRow
	guard     guardTally
	// violations describes the first regime-guard breaches.
	violations []string
	// sweepWall sums flagsimd's own wall_ns over sweep responses.
	sweepWallNS, sweeps int64
}

func newChecker(w *workload) *checker {
	return &checker{w: w, setupRows: map[string][]wire.SweepRunRow{}}
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) < 8 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// check parses one response and returns how many of its runs failed: all
// of them for a non-200 or unparsable reply, else one per row with an
// error. timed marks the timed phase, where guards apply.
func (c *checker) check(req request, status int, body []byte, timed bool) int {
	if status != 200 {
		return req.runs
	}
	switch {
	case req.path == pathRun:
		var resp runResponse
		if json.Unmarshal(body, &resp) != nil || len(resp.Result) == 0 {
			return req.runs
		}
		if timed {
			c.tally(guardTally{hits: b2i(resp.CacheHit), misses: b2i(!resp.CacheHit)})
		}
		return 0
	case c.w.fleet:
		var resp dist.SweepFleetResponse
		if json.Unmarshal(body, &resp) != nil || resp.Count != req.runs || len(resp.Runs) != req.runs {
			return req.runs
		}
		failed := rowErrors(resp.Runs)
		if !timed {
			if c.w.barrier {
				c.mu.Lock()
				c.setupRows[string(req.body)] = resp.Runs
				c.mu.Unlock()
			}
			return failed
		}
		c.tally(guardTally{warm: resp.Warm, computed: resp.Computed, deduped: resp.Deduped})
		switch c.w.name {
		case "fleet-cold":
			if resp.Warm != 0 || resp.Deduped != 0 {
				c.violate("fleet-cold sweep had warm=%d deduped=%d", resp.Warm, resp.Deduped)
			}
		case "fleet-warm":
			if resp.Computed != 0 || resp.Warm != resp.Count {
				c.violate("fleet-warm sweep had computed=%d warm=%d of %d", resp.Computed, resp.Warm, resp.Count)
			}
			c.mu.Lock()
			want, ok := c.setupRows[string(req.body)]
			c.mu.Unlock()
			if !ok {
				return req.runs
			}
			failed = max(failed, rowsDiffer(want, resp.Runs))
		}
		return failed
	default:
		var resp server.SweepResponse
		if json.Unmarshal(body, &resp) != nil || resp.Count != req.runs || len(resp.Runs) != req.runs {
			return req.runs
		}
		if timed {
			c.tally(guardTally{hits: resp.Hits, misses: resp.Misses})
			c.mu.Lock()
			c.sweepWallNS += resp.WallNS
			c.sweeps++
			c.mu.Unlock()
		}
		return rowErrors(resp.Runs)
	}
}

func (c *checker) tally(g guardTally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.guard.hits += g.hits
	c.guard.misses += g.misses
	c.guard.warm += g.warm
	c.guard.computed += g.computed
	c.guard.deduped += g.deduped
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func rowErrors(rows []wire.SweepRunRow) int {
	n := 0
	for _, r := range rows {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// rowsDiffer counts rows whose spec or result fields differ; the
// cache_hit flag is expected to differ between set-up and re-submission.
func rowsDiffer(want, got []wire.SweepRunRow) int {
	if len(want) != len(got) {
		return len(got)
	}
	n := 0
	for i := range want {
		w, g := want[i], got[i]
		w.CacheHit, g.CacheHit = false, false
		if w != g {
			n++
		}
	}
	return n
}

// rowsPerSample bounds how many rows of one sampled sweep are recomputed.
const rowsPerSample = 3

// verify recomputes a sampled exchange locally. A /v1/run result must
// match wire.MarshalResult byte for byte; sampled sweep rows must match
// in spec label, grid_sha256, makespan_ns and events. It returns the
// number of runs checked and of runs that did not match.
func verify(ctx context.Context, ex exchange, rng *rand.Rand) (checked, mismatched int, err error) {
	if ex.status != 200 {
		return 0, 0, nil // already counted as failed in the loop
	}
	if ex.req.path == pathRun {
		var req wire.RunRequest
		if err := strictJSON(ex.req.body, &req); err != nil {
			return 0, 0, err
		}
		sp, err := req.Spec()
		if err != nil {
			return 0, 0, err
		}
		var resp runResponse
		if err := json.Unmarshal(ex.body, &resp); err != nil {
			return 1, 1, nil
		}
		res, err := sp.RunOnce(ctx)
		if err != nil {
			return 0, 0, err
		}
		want, err := wire.MarshalResult(res)
		if err != nil {
			return 0, 0, err
		}
		return 1, b2i(!bytes.Equal(want, resp.Result)), nil
	}
	var req wire.SweepRequest
	if err := strictJSON(ex.req.body, &req); err != nil {
		return 0, 0, err
	}
	specs, err := req.Specs()
	if err != nil {
		return 0, 0, err
	}
	var resp struct {
		Runs []wire.SweepRunRow `json:"runs"`
	}
	if err := json.Unmarshal(ex.body, &resp); err != nil || len(resp.Runs) != len(specs) {
		return len(specs), len(specs), nil
	}
	for _, i := range rng.Perm(len(specs))[:min(rowsPerSample, len(specs))] {
		res, err := specs[i].RunOnce(ctx)
		if err != nil {
			return checked, mismatched, err
		}
		got := resp.Runs[i]
		got.CacheHit = false
		checked++
		mismatched += b2i(got != expectedRow(specs[i], res))
	}
	return checked, mismatched, nil
}

// expectedRow is the row a correct server returns for spec, with the
// cache_hit flag cleared.
func expectedRow(sp sweep.Spec, res *sim.Result) wire.SweepRunRow {
	return wire.SweepRunRow{
		Spec: sp.Label(), MakespanNS: int64(res.Makespan),
		Events: res.Events, GridSHA256: gridSHA(res.Grid.String()),
	}
}

func strictJSON(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func gridSHA(grid string) string {
	sum := sha256.Sum256([]byte(grid))
	return hex.EncodeToString(sum[:])
}
