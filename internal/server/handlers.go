package server

// flagsimd's response bodies and its own endpoints. The wire DTOs live
// in internal/wire (shared with the dispatcher fabric); the aliases below
// name the ones flagsimd's bodies and callers use.
// Requests map onto sweep.Spec — the same declarative, content-addressed
// unit of work the library batches, so the service inherits the
// determinism contract for free: a response's result section is a pure
// function of the spec, byte-identical to what a library call computes.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/sim"
	"flagsim/internal/wire"
)

// Wire DTO aliases: the canonical definitions are in internal/wire, so
// the HTTP service and the dispatcher fabric speak the same language.
type (
	// RunRequest describes one simulation run over the wire.
	RunRequest = wire.RunRequest
	// SimResult is the deterministic section of a run response.
	SimResult = wire.SimResult
	// SweepRunRow is one run's compact row in a sweep response.
	SweepRunRow = wire.SweepRunRow
)

// NewSimResult flattens a library Result into the wire form.
func NewSimResult(res *sim.Result) SimResult { return wire.NewSimResult(res) }

// RunResponse is the /v1/run reply. Result is deterministic; the
// serving fields around it (run_id, cache_hit, elapsed_ns) are not.
type RunResponse struct {
	RunID     string    `json:"run_id"`
	Spec      string    `json:"spec"`
	CacheHit  bool      `json:"cache_hit"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Result    SimResult `json:"result"`
}

// SweepResponse is the /v1/sweep reply.
type SweepResponse struct {
	Count   int           `json:"count"`
	Workers int           `json:"workers"`
	WallNS  int64         `json:"wall_ns"`
	Hits    int           `json:"cache_hits"`
	Misses  int           `json:"cache_misses"`
	Failed  int           `json:"failed"`
	Runs    []SweepRunRow `json:"runs"`
}

// FlagInfo is one catalog entry in the /v1/flags reply.
type FlagInfo struct {
	Name     string   `json:"name"`
	DefaultW int      `json:"default_w"`
	DefaultH int      `json:"default_h"`
	Layers   int      `json:"layers"`
	Colors   []string `json:"colors"`
}

// Health is the /healthz reply.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
	CacheEntries  int     `json:"cache_entries"`
}

func (s *Server) handleFlags(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("gen"); q != "" {
		s.handleFlagsGen(w, q, r.URL.Query().Get("count"))
		return
	}
	var out []FlagInfo
	for _, f := range flagspec.All() {
		out = append(out, newFlagInfo(f))
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleFlagsGen previews procedurally generated flags. ?gen= accepts
// either a canonical name ("gen:v1:42:7") for a single preview, or a
// decimal seed, in which case ?count= (default 8, max 64) consecutive
// variants of that seed's family are listed. Malformed refs are client
// errors — 400, never 500.
func (s *Server) handleFlagsGen(w http.ResponseWriter, q, countStr string) {
	var refs []flaggen.Ref
	if flaggen.IsName(q) {
		ref, err := flaggen.ParseName(q)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		refs = []flaggen.Ref{ref}
	} else {
		seed, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("gen: want a canonical name (gen:v1:<seed>:<variant>) or a decimal seed: %q", q))
			return
		}
		count := 8
		if countStr != "" {
			count, err = strconv.Atoi(countStr)
			if err != nil || count < 1 || count > 64 {
				WriteError(w, http.StatusBadRequest, fmt.Errorf("gen: count must be 1..64, got %q", countStr))
				return
			}
		}
		for v := 0; v < count; v++ {
			refs = append(refs, flaggen.Ref{Seed: seed, Variant: uint64(v)})
		}
	}
	out := make([]FlagInfo, 0, len(refs))
	for _, ref := range refs {
		f, err := flaggen.Resolve(ref.Name())
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		out = append(out, newFlagInfo(f))
	}
	WriteJSON(w, http.StatusOK, out)
}

func newFlagInfo(f *flagspec.Flag) FlagInfo {
	info := FlagInfo{
		Name: f.Name, DefaultW: f.DefaultW, DefaultH: f.DefaultH,
		Layers: len(f.Layers),
	}
	for _, c := range f.Colors() {
		info.Colors = append(info.Colors, c.String())
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight, queued := s.gate.depth()
	stats := s.sweeper.Stats()
	WriteJSON(w, http.StatusOK, Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		InFlight:      inFlight,
		Queued:        queued,
		CacheHits:     stats.Hits,
		CacheMisses:   stats.Misses,
		CacheEntries:  stats.Entries,
	})
}
