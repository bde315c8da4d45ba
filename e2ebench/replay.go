package main

// Layer replays: outside any timed phase, a seeded sample of the
// workload's own inputs is pushed through each layer's public function
// in pipeline order, one call at a time, each call a span whose parent
// is the replayed request's span.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/flagspec"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

const (
	// replayRequests is how many of the workload's requests are replayed.
	replayRequests = 12
	// replaySpecsPerRequest bounds the per-spec layers replayed for one
	// request; per-request layers (decode, enqueue) always see it whole.
	replaySpecsPerRequest = 6
)

// perSpecLayers are the layers the request path calls once per run;
// wire.encode_us and wire.sweep_row_us depend on the route and are
// counted apart.
var perSpecLayers = []string{
	"sweep.key_us", "sim.engine_us", "sweep.memo_hit_us",
	"dist.store_put_us", "dist.journal_complete_us", "dist.store_get_us", "dist.row_decode_us",
}

// replayLedger is what a replay measured: each layer's self time per
// call, how many times the workload's path calls each layer over the
// replayed requests (whole requests, not just the replayed part), how
// many runs those requests deliver, and the replayed runs' events.
type replayLedger struct {
	self   map[string]*acc
	calls  map[string]float64
	runs   float64
	events acc
}

func (l *replayLedger) add(layer string, d time.Duration) {
	a := l.self[layer]
	if a == nil {
		a = &acc{}
		l.self[layer] = a
	}
	a.add(float64(d) / 1e3)
}

// perRun is the layer's self time per run on the workload's path, in µs.
func (l *replayLedger) perRun(layer string) float64 {
	a := l.self[layer]
	if a == nil || a.n == 0 || l.runs == 0 {
		return 0
	}
	return a.mean() * l.calls[layer] / l.runs
}

// replayer records one replayed request's layer calls as child spans.
type replayer struct {
	tr     *tracer
	led    *replayLedger
	parent uint64
}

func (r *replayer) span(name string, t0 time.Time, d time.Duration) {
	start := r.tr.since(t0)
	r.tr.add(span{id: r.tr.newID(), parent: r.parent, name: name,
		start: start, end: start + d, lane: laneReplay})
}

// time runs f as one call of layer.
func (r *replayer) time(layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.span(layer, t0, d)
	r.led.add(layer, d)
	return err
}

// replay runs the layer replays for cfg's workload, recording spans into
// tr. Fleet workloads also replay the queue and result store on a
// scratch data directory.
func replay(cfg *runConfig, tr *tracer) (*replayLedger, error) {
	ctx := context.Background()
	led := &replayLedger{self: map[string]*acc{}, calls: map[string]float64{}}
	in := cfg.w.inputs(cfg.seed, replayRound, cfg.size)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7e))
	picks := rng.Perm(len(in.timed))[:min(replayRequests, len(in.timed))]

	var (
		store *dist.ResultStore
		queue *dist.Queue
	)
	if cfg.w.fleet {
		dir := filepath.Join(cfg.dataDir, "replay")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var err error
		if store, err = dist.OpenResultStore(dir); err != nil {
			return nil, err
		}
		if queue, err = dist.OpenQueue(dir, store, nil); err != nil {
			return nil, err
		}
		defer queue.Close()
	}
	memo := sweep.New(sweep.Options{Workers: 1})

	for _, p := range picks {
		req := in.timed[p]
		rs := span{id: tr.newID(), name: "replay " + req.path, lane: laneReplay, tid: 1,
			start: tr.since(time.Now())}
		r := &replayer{tr: tr, led: led, parent: rs.id}
		specs, err := r.decode(req)
		if err != nil {
			return nil, err
		}
		led.runs += float64(len(specs))
		led.calls["wire.decode_us"]++
		led.calls["flaggen.generate_us"] += float64(len(distinctFlags(specs)))
		for _, layer := range perSpecLayers {
			led.calls[layer] += float64(len(specs))
		}
		if req.path == pathRun || cfg.w.fleet {
			led.calls["wire.encode_us"] += float64(len(specs))
		} else {
			led.calls["wire.sweep_row_us"] += float64(len(specs))
		}
		if queue != nil {
			jobs, err := dispatcherJobs(req)
			if err != nil {
				return nil, err
			}
			led.calls["dist.enqueue_us"]++
			if err := r.time("dist.enqueue_us", func() error {
				_, _, err := queue.Enqueue(jobs)
				return err
			}); err != nil {
				return nil, err
			}
		}
		for _, sp := range specs[:min(replaySpecsPerRequest, len(specs))] {
			if err := r.spec(ctx, sp, memo, store, queue); err != nil {
				return nil, err
			}
		}
		rs.end = tr.since(time.Now())
		tr.add(rs)
	}
	return led, nil
}

// decode times the front end's decode of one request body: the strict
// JSON decode plus spec resolution make one wire.decode_us call. Each
// flag's first resolution is timed on its own in between
// (flaggen.generate_us), because spec resolution would otherwise absorb
// a generated flag's cost.
func (r *replayer) decode(req request) ([]sweep.Spec, error) {
	var (
		run   wire.RunRequest
		sreq  wire.SweepRequest
		flags []string
		err   error
	)
	t0 := time.Now()
	if req.path == pathRun {
		err = strictJSON(req.body, &run)
		flags = []string{run.Flag}
	} else {
		err = strictJSON(req.body, &sreq)
		flags = append([]string{sreq.Base.Flag}, sreq.Flags...)
	}
	jsonTime := time.Since(t0)
	r.span("wire.decode json", t0, jsonTime)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{"": true}
	for _, name := range flags {
		if seen[name] {
			continue
		}
		seen[name] = true
		if err := r.time("flaggen.generate_us", func() error {
			_, err := flagspec.Lookup(name)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var specs []sweep.Spec
	t1 := time.Now()
	if req.path == pathRun {
		var sp sweep.Spec
		sp, err = run.Spec()
		specs = []sweep.Spec{sp}
	} else {
		specs, err = sreq.Specs()
	}
	specTime := time.Since(t1)
	r.span("wire.decode spec", t1, specTime)
	r.led.add("wire.decode_us", jsonTime+specTime)
	return specs, err
}

// dispatcherJobs builds the jobs flagdispd's /v1/sweep handler enqueues
// for a sweep request.
func dispatcherJobs(req request) ([]dist.Job, error) {
	var sreq wire.SweepRequest
	if err := strictJSON(req.body, &sreq); err != nil {
		return nil, err
	}
	reqs, err := sreq.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]dist.Job, len(reqs))
	for i, rr := range reqs {
		if jobs[i], err = dist.NewJob(rr); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// spec times one spec through the per-spec layers in pipeline order:
// key, engine, memo hit, encode and row hash, and for a fleet the store
// put, journal completion, store get and row decode.
func (r *replayer) spec(ctx context.Context, sp sweep.Spec, memo *sweep.Sweeper,
	store *dist.ResultStore, queue *dist.Queue) error {
	var key [sha256.Size]byte
	r.time("sweep.key_us", func() error { key = sp.Key(); return nil })
	var res *sim.Result
	if err := r.time("sim.engine_us", func() error {
		var err error
		res, err = sp.RunOnce(ctx)
		return err
	}); err != nil {
		return err
	}
	r.led.events.add(float64(res.Events))
	if err := memo.Run(ctx, []sweep.Spec{sp}).Err(); err != nil {
		return err
	}
	if err := r.time("sweep.memo_hit_us", func() error {
		b := memo.Run(ctx, []sweep.Spec{sp})
		if b.Cache.Hits != 1 {
			return fmt.Errorf("replay: memo did not hit for %s", sp.Label())
		}
		return b.Err()
	}); err != nil {
		return err
	}
	var payload []byte
	if err := r.time("wire.encode_us", func() error {
		var err error
		payload, err = json.Marshal(wire.NewSimResult(res))
		return err
	}); err != nil {
		return err
	}
	r.time("wire.sweep_row_us", func() error { gridSHA(res.Grid.String()); return nil })
	if store == nil {
		return nil
	}
	if err := r.time("dist.store_put_us", func() error { return store.Put(key, payload) }); err != nil {
		return err
	}
	if err := r.time("dist.journal_complete_us", func() error {
		leaseID, job, ok := queue.Lease("replay", time.Minute)
		if !ok {
			return fmt.Errorf("replay: nothing to lease for %s", sp.Label())
		}
		return queue.Complete(leaseID, job.Key(), true, "")
	}); err != nil {
		return err
	}
	var raw []byte
	if err := r.time("dist.store_get_us", func() error {
		var ok bool
		if raw, ok = store.Get(key); !ok {
			return fmt.Errorf("replay: stored result missing for %s", sp.Label())
		}
		return nil
	}); err != nil {
		return err
	}
	return r.time("dist.row_decode_us", func() error {
		var row wire.SimResult
		return json.Unmarshal(raw, &row)
	})
}

// distinctFlags returns the flag names specs use, once each.
func distinctFlags(specs []sweep.Spec) []string {
	seen := map[string]bool{}
	var out []string
	for _, sp := range specs {
		if !seen[sp.Flag] {
			seen[sp.Flag] = true
			out = append(out, sp.Flag)
		}
	}
	return out
}
