package main

// The four workloads and the inputs each one generates from --seed. The
// program under test sees only these request bodies; nothing else about
// the seed reaches it.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

const (
	pathRun   = "/v1/run"
	pathSweep = "/v1/sweep"
)

// execs is every executor class; each sweep spans all three.
var execs = []string{"static", "steal", "dynamic"}

// request is one pre-built HTTP call of a workload.
type request struct {
	path string
	body []byte
	// runs is the number of simulation results the call delivers: 1 for
	// a /v1/run, one per grid cell for a /v1/sweep.
	runs int
}

// roundInputs is everything one round sends: the closed-loop warm-up,
// then the timed requests, plus the specs builtin-warm pre-fills
// directly into the memo.
type roundInputs struct {
	prefill []sweep.Spec
	warm    []request
	timed   []request
}

// size fixes one workload's work per round. Every count is of requests.
type size struct {
	warm, timed int
	// distinct is fleet-warm's number of distinct sweeps: its set-up
	// computes them, its timed phase re-submits them.
	distinct int
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// fleet selects the dispatcher and two workers instead of flagsimd.
	fleet bool
	// barrier makes the timed phase wait until every warm-up request has
	// completed. fleet-warm needs it, or a re-submission could overlap
	// its own set-up compute; the others hand over without a pause, so
	// the fleet's workers never see an empty queue and sleep through
	// their 200 ms idle poll.
	barrier bool
	// timedClients is the number of client connections that send the
	// timed phase (a barrier workload's set-up uses all of them). One
	// wherever the workload allows it, so the reference calls between
	// its calls never overlap program work; fleet-cold needs two, or its
	// queue drains between sweeps and the workers sleep through their
	// idle poll.
	timedClients int
	// oneProc runs the timed phase on one P (GOMAXPROCS 1). At
	// sub-millisecond service times a client and a server on two vCPUs
	// mostly measure the VM's cross-CPU wake-ups: builtin-warm delivered
	// 7k runs/s that way against 11k on one P. On one P the reference
	// calls also run as the program does, one thing at a time:
	// generated-cold's calibrated CPU per run spread 0.16 over five
	// seeds on two Ps (with the small reference), 0.03 on one P.
	oneProc bool
	// ref sizes the reference calls to resemble the workload's own:
	// small where HTTP dominates its calls, large where JSON and engine
	// work do.
	ref  refSize
	size size
	// inputs builds round r's requests. Cold workloads use fresh flag
	// names or seeds in every round, so no round repeats another's work.
	inputs func(seed uint64, r int, n size) roundInputs
	// pipeline lists the replayed layers that run on this workload's
	// request path; the ledger subtracts their self time from
	// cpu_us_per_run. Other replayed layers are printed but not
	// subtracted.
	pipeline []string
}

var workloads = []*workload{
	{
		name:         "builtin-warm",
		why:          "front end only: every key is pre-warmed, so HTTP, wire, Spec.Key and the memo do all the work and the engine none",
		timedClients: 1,
		oneProc:      true,
		ref:          refSize{scale: 1, nominal: 200 * time.Microsecond},
		size:         size{warm: 40, timed: 16000},
		inputs: func(seed uint64, _ int, n size) roundInputs {
			plain, faulted := builtinSpace()
			in := roundInputs{
				warm:  builtinRequests(rand.New(rand.NewPCG(seed, 1)), plain, faulted, n.warm),
				timed: builtinRequests(rand.New(rand.NewPCG(seed, 2)), plain, faulted, n.timed),
			}
			for _, req := range append(plain, faulted...) {
				sp, err := req.Spec()
				if err != nil {
					panic(fmt.Sprintf("builtin key space: %v", err))
				}
				in.prefill = append(in.prefill, sp)
			}
			return in
		},
		pipeline: []string{"wire.decode_us", "sweep.key_us", "sweep.memo_hit_us", "wire.encode_us", "wire.sweep_row_us"},
	},
	{
		name:         "generated-cold",
		why:          "engine and memo growth: sweeps of never-seen generated flags, so flag generation, the engine and pool fan-out dominate",
		timedClients: 1,
		oneProc:      true,
		ref:          refSize{scale: 16, nominal: 1600 * time.Microsecond},
		size:         size{warm: 16, timed: 360},
		inputs: func(seed uint64, r int, n size) roundInputs {
			rng := rand.New(rand.NewPCG(seed, uint64(r)<<8|3))
			return roundInputs{
				warm:  generatedSweeps(rng, seed, uint64(r), 0, n.warm),
				timed: generatedSweeps(rng, seed, uint64(r), n.warm, n.timed),
			}
		},
		pipeline: []string{"wire.decode_us", "flaggen.generate_us", "sweep.key_us", "sim.engine_us", "wire.sweep_row_us"},
	},
	{
		name:         "fleet-cold",
		why:          "durable fleet path: every job pays enqueue fsync, lease, compute, a traced report and three more fsyncs",
		fleet:        true,
		timedClients: 2,
		ref:          refSize{scale: 16, nominal: 1600 * time.Microsecond},
		size:         size{warm: 4, timed: 36},
		inputs: func(seed uint64, r int, n size) roundInputs {
			rng := rand.New(rand.NewPCG(seed, uint64(r)<<8|4))
			next := freshSeeds(seed, uint64(r))
			return roundInputs{
				warm:  fleetSweeps(rng, next, n.warm),
				timed: fleetSweeps(rng, next, n.timed),
			}
		},
		pipeline: []string{"wire.decode_us", "sweep.key_us", "dist.enqueue_us", "sim.engine_us", "wire.encode_us",
			"dist.store_put_us", "dist.journal_complete_us", "dist.store_get_us", "dist.row_decode_us"},
	},
	{
		name:         "fleet-warm",
		why:          "fleet path: set-up runs each sweep cold through the fleet, then re-submissions are read from the result store; stands in for fleet-cold (dropped: fsync drift, spread 0.25-0.26)",
		fleet:        true,
		barrier:      true,
		timedClients: 1,
		oneProc:      true,
		ref:          refSize{scale: 16, nominal: 1600 * time.Microsecond},
		size:         size{timed: 1800, distinct: 9},
		inputs: func(seed uint64, _ int, n size) roundInputs {
			rng := rand.New(rand.NewPCG(seed, 5))
			distinct := fleetSweeps(rng, freshSeeds(seed, 0), n.distinct)
			in := roundInputs{warm: distinct}
			// Re-submit the set-up's sweeps in seeded shuffles of the
			// whole set, so each is re-submitted equally often.
			var order []int
			for i := 0; i < n.timed; i++ {
				if i%len(distinct) == 0 {
					order = rng.Perm(len(distinct))
				}
				in.timed = append(in.timed, distinct[order[i%len(distinct)]])
			}
			return in
		},
		pipeline: []string{"wire.decode_us", "sweep.key_us", "dist.store_get_us", "dist.row_decode_us"},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// builtinSpace is builtin-warm's whole key space: every builtin flag
// under every executor and scenario 1-4 for run seeds 0-3, plus the
// light-faulted twins for run seeds 0-1.
func builtinSpace() (plain, faulted []wire.RunRequest) {
	for _, flag := range flagspec.Names() {
		for _, exec := range execs {
			for scen := 1; scen <= 4; scen++ {
				for s := uint64(0); s < 4; s++ {
					req := wire.RunRequest{Exec: exec, Flag: flag, Scenario: scen, Seed: s}
					plain = append(plain, req)
					if s < 2 {
						req.Faults = &wire.FaultRequest{Preset: "light", Seed: s}
						faulted = append(faulted, req)
					}
				}
			}
		}
	}
	return plain, faulted
}

// builtinRequests draws n builtin-warm requests: ~85% plain /v1/run,
// ~10% six-cell /v1/sweep grids over the same key space, ~5% faulted
// /v1/run. None asks for ?trace=chrome, which would bypass the memo.
func builtinRequests(rng *rand.Rand, plain, faulted []wire.RunRequest, n int) []request {
	flags := flagspec.Names()
	out := make([]request, 0, n)
	for len(out) < n {
		switch u := rng.Float64(); {
		case u < 0.85:
			out = append(out, request{path: pathRun, body: mustJSON(plain[rng.IntN(len(plain))]), runs: 1})
		case u < 0.95:
			a := 1 + rng.IntN(4)
			b := 1 + (a+rng.IntN(3))%4 // a different scenario
			sreq := wire.SweepRequest{
				Base:      wire.RunRequest{Flag: flags[rng.IntN(len(flags))], Seed: uint64(rng.IntN(4))},
				Execs:     execs,
				Scenarios: []int{a, b},
			}
			out = append(out, request{path: pathSweep, body: mustJSON(sreq), runs: len(execs) * 2})
		default:
			out = append(out, request{path: pathRun, body: mustJSON(faulted[rng.IntN(len(faulted))]), runs: 1})
		}
	}
	return out
}

// genFlagsPerSweep is generated-cold's flag axis; with three executors
// a sweep is 24 specs.
const genFlagsPerSweep = 8

// replayRound is the round index replays draw generated names and
// fleet seeds from: far above any round a run reaches, so a replay
// never meets a name or spec the timed phase already resolved.
const replayRound = 1 << 20

// generatedSweeps builds n generated-cold sweeps. Flag names are
// gen:v1:<seed>:<variant> with variant = round<<32 | index, index
// counting from first*8, so no name repeats within a run and warm-up
// (first = 0) never shares one with the timed phase (first = warm).
func generatedSweeps(rng *rand.Rand, seed, round uint64, first, n int) []request {
	out := make([]request, n)
	for i := range out {
		flags := make([]string, genFlagsPerSweep)
		for j := range flags {
			flags[j] = flaggen.Name(seed, round<<32|uint64((first+i)*genFlagsPerSweep+j))
		}
		sreq := wire.SweepRequest{
			Base:  wire.RunRequest{Scenario: 1 + rng.IntN(4), Seed: uint64(rng.IntN(4))},
			Execs: execs,
			Flags: flags,
		}
		out[i] = request{path: pathSweep, body: mustJSON(sreq), runs: len(execs) * genFlagsPerSweep}
	}
	return out
}

// fleetSeedsPerSweep is the fleet sweeps' seed axis; with three
// executors and four scenarios a sweep is 24 jobs.
const fleetSeedsPerSweep = 2

// freshSeeds returns a generator of run seeds no other round of the run
// uses: a seed-derived base plus round<<32 plus a counter.
func freshSeeds(seed, round uint64) func() uint64 {
	base := rand.New(rand.NewPCG(seed, 0x5eed)).Uint64() &^ (1<<52 - 1)
	var n uint64
	return func() uint64 {
		n++
		return base + round<<32 + n
	}
}

// fleetSweeps builds n sweeps of never-seen builtin specs: each covers
// one flag under every executor and scenario 1-4 with two fresh seeds.
// The flags follow seeded shuffles of all nine, one after another, so
// every nine consecutive sweeps run the same mix of work whatever the
// seed.
func fleetSweeps(rng *rand.Rand, next func() uint64, n int) []request {
	flags := flagspec.Names()
	out := make([]request, n)
	var order []int
	for i := range out {
		if i%len(flags) == 0 {
			order = rng.Perm(len(flags))
		}
		seeds := make([]uint64, fleetSeedsPerSweep)
		for j := range seeds {
			seeds[j] = next()
		}
		sreq := wire.SweepRequest{
			Base:      wire.RunRequest{Flag: flags[order[i%len(flags)]]},
			Execs:     execs,
			Scenarios: []int{1, 2, 3, 4},
			Seeds:     seeds,
		}
		out[i] = request{path: pathSweep, body: mustJSON(sreq), runs: len(execs) * 4 * fleetSeedsPerSweep}
	}
	return out
}
