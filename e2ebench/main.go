// Command e2ebench is flagsim's end-to-end benchmark. It drives four
// named workloads in-process against the real flagsimd core
// (server.New) and the real fleet core (dist.NewDispatcher plus two
// dist.NewWorkers), over two closed-loop client connections.
//
// Usage, from the repository root (e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload builtin-warm --seed 1 --seconds 40 --trace 0
//
// A run repeats fixed-work rounds until --seconds have passed, at least
// three: each round builds a fresh system, runs its untimed set-up, then
// a timed phase of a fixed number of requests. Every response is
// checked, the workload's regime guard is asserted, and a seeded sample
// of runs and rows is recomputed locally. The end-to-end metrics are
// printed one per line, then one JSON result line.
//
// --trace 1 alternates untraced and traced rounds. Traced rounds time
// the client, the server's or dispatcher's Handler() and the workers'
// RoundTripper; afterwards a sample of the inputs is replayed through
// each layer's public functions. The per-layer metrics are printed and
// the spans written as a Chrome trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runLimit is the longest a run may take before it gives up.
const runLimit = 170 * time.Second

// runConfig is one invocation.
type runConfig struct {
	w        *workload
	seed     uint64
	seconds  int
	trace    bool
	dataDir  string
	traceOut string
	size     size
	// ref is the run's reference service (ref.go).
	ref *reference
	// minRounds is the fewest rounds a run makes, whatever --seconds says.
	minRounds int
}

func parseArgs(args []string) (*runConfig, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: builtin-warm, generated-cold, fleet-cold or fleet-warm")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 40, "measure rounds for about this long")
	trace := fs.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	dataDir := fs.String("data-dir", filepath.Join(".bench_build", "e2ebench-data"), "scratch directory for fleet data and the trace")
	traceOut := fs.String("trace-out", "", "Chrome trace path (default <data-dir>/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return nil, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dataDir: *dataDir, traceOut: *traceOut, size: w.size, minRounds: 3}
	if cfg.trace {
		cfg.minRounds = 4
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.dataDir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	os.Exit(execute(cfg, os.Stdout))
}

// execute runs cfg and prints its report. It returns the exit code: 0
// only when every response was correct and every guard held.
func execute(cfg *runConfig, out io.Writer) int {
	// Fleet data of this run lives under its own directory, removed on
	// every exit path, the watchdog's included.
	cfg.dataDir = filepath.Join(cfg.dataDir, "run-"+strconv.Itoa(os.Getpid()))
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v, giving up\n", runLimit)
		os.RemoveAll(cfg.dataDir)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dataDir)
	code, err := measure(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return code
}

func measure(cfg *runConfig, out io.Writer) (int, error) {
	w := cfg.w
	procs := runtime.GOMAXPROCS(0)
	if w.oneProc {
		procs = 1
	}
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%d trace=%v; timed phase: %d client(s), gomaxprocs=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.timedClients, procs)
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	var host hostDiag
	host.refBefore, host.stealBefore = hostProbe()
	fmt.Fprintf(out, "host before: ref_ms=%.4f steal_frac=%.4f\n", host.refBefore, host.stealBefore)

	var (
		untraced, traced []*roundResult
		tr               *tracer
		names            = nameGuard{seen: map[string]bool{}, warmOnly: map[string]bool{}}
	)
	if cfg.trace {
		tr = newTracer()
	}
	cfg.ref = newReference(w.ref)
	defer cfg.ref.close()
	begin := time.Now()
	for r := 0; ; r++ {
		roundStart := time.Now()
		var rt *tracer
		if cfg.trace && r%2 == 1 {
			rt = tr
		}
		if w.name == "generated-cold" {
			names.check(w.inputs(cfg.seed, r, cfg.size))
		}
		res, err := runRound(cfg, r, rt)
		if err != nil {
			return 1, fmt.Errorf("round %d: %w", r, err)
		}
		if rt != nil {
			traced = append(traced, res)
		} else {
			untraced = append(untraced, res)
		}
		kind := ""
		if rt != nil {
			kind = " (traced)"
		}
		p50, p90 := res.latencies()
		fmt.Fprintf(out, "round %d%s: setup %.4f s, %d requests / %d runs, %.6g runs/s, p50 %.4g ms, p90 %.4g ms, cpu %.4g us/run (%.0f%% sys); %d reference calls, %.4g us each, host factor %.4f; failed %d\n",
			r, kind, res.setup.Seconds(), res.requests, res.runs, pooledRate([]*roundResult{res}, false), p50, p90,
			pooledCPU([]*roundResult{res}, false), 100*float64(res.c1.sys-res.c0.sys)/float64(res.c1.cpu-res.c0.cpu),
			res.refCalls, float64(res.refTime)/1e3/float64(res.refCalls), res.hostFactor(), res.failed)
		done := len(untraced) + len(traced)
		if done >= cfg.minRounds && time.Since(begin)+time.Since(roundStart) > time.Duration(cfg.seconds)*time.Second {
			break
		}
	}
	all := append(append([]*roundResult(nil), untraced...), traced...)

	// Regime guards and verification.
	correct := true
	attempted, failed := 0, 0
	var transportErrs int64
	for _, r := range all {
		attempted += r.runs
		failed += r.failed
		transportErrs += r.transportErrs
	}
	for _, line := range guardLines(w, all, names) {
		fmt.Fprintln(out, line.text)
		correct = correct && line.ok
	}
	checked, mismatched, err := verifySamples(cfg, all)
	if err != nil {
		return 1, err
	}
	failed += mismatched
	fmt.Fprintf(out, "verify: %d sampled runs recomputed with Spec.RunOnce, %d mismatched; %d calls failed in transport\n",
		checked, mismatched, transportErrs)
	correct = correct && failed == 0
	fmt.Fprintf(out, "metric failed_frac = %s ratio (failed %d of %d runs attempted)\n",
		fmtValue(float64(failed)/float64(attempted)), failed, attempted)

	host.refAfter, host.stealAfter = hostProbe()
	fmt.Fprintf(out, "host after: ref_ms=%.4f steal_frac=%.4f; over the timed phases steal_frac=%.4f\n",
		host.refAfter, host.stealAfter, timedSteal(all))

	var metrics map[string]metricValue
	if cfg.trace {
		led, err := replay(cfg, tr)
		if err != nil {
			return 1, fmt.Errorf("replay: %w", err)
		}
		metrics = perLayer(w, untraced, traced, led, host).write(out, "layer")
		spans := append(traced[len(traced)-1].spans, tr.take()...)
		if err := writeChromeTrace(cfg.traceOut, spans); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), cfg.traceOut)
	} else {
		declared, observed := endToEnd(untraced)
		observed.write(out, "metric")
		metrics = declared.write(out, "metric")
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// verifySamples recomputes every round's sampled exchanges.
func verifySamples(cfg *runConfig, rounds []*roundResult) (checked, mismatched int, err error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7a))
	for _, r := range rounds {
		for _, ex := range r.samples {
			c, m, err := verify(context.Background(), ex, rng)
			if err != nil {
				return checked, mismatched, fmt.Errorf("verify: %w", err)
			}
			checked += c
			mismatched += m
		}
	}
	return checked, mismatched, nil
}

// nameGuard checks generated-cold's inputs: no generated flag name may
// repeat within a run or be shared between warm-up and timed phase.
type nameGuard struct {
	seen             map[string]bool
	warmOnly         map[string]bool
	repeated, shared int
}

func (g *nameGuard) check(in roundInputs) {
	visit := func(reqs []request, warm bool) {
		for _, req := range reqs {
			var sreq struct {
				Flags []string `json:"flags"`
			}
			_ = json.Unmarshal(req.body, &sreq) // bodies are the benchmark's own
			for _, name := range sreq.Flags {
				switch {
				case !g.seen[name]:
					g.seen[name] = true
					if warm {
						g.warmOnly[name] = true
					}
				case !warm && g.warmOnly[name]:
					g.shared++
				default:
					g.repeated++
				}
			}
		}
	}
	visit(in.warm, true)
	visit(in.timed, false)
}

type guardLine struct {
	text string
	ok   bool
}

// guardLines asserts the workload's defining property over every round
// and describes it as counts.
func guardLines(w *workload, rounds []*roundResult, names nameGuard) []guardLine {
	var g guardTally
	var memoHits, memoMisses, sweeps int
	var lines []guardLine
	ok := true
	for _, r := range rounds {
		g.hits += r.guard.hits
		g.misses += r.guard.misses
		g.warm += r.guard.warm
		g.computed += r.guard.computed
		g.deduped += r.guard.deduped
		memoHits += r.memo1.Hits - r.memo0.Hits
		memoMisses += r.memo1.Misses - r.memo0.Misses
		sweeps += r.requests
		for _, v := range r.violations {
			lines = append(lines, guardLine{"guard violation: " + v, false})
			ok = false
		}
	}
	var text string
	switch w.name {
	case "builtin-warm":
		ok = ok && memoMisses == 0 && g.misses == 0
		text = fmt.Sprintf("guard builtin-warm: memo misses in timed phases = %d (memo hits %d; responses: hits %d, misses %d)",
			memoMisses, memoHits, g.hits, g.misses)
	case "generated-cold":
		ok = ok && memoHits == 0 && g.hits == 0 && names.repeated == 0 && names.shared == 0
		text = fmt.Sprintf("guard generated-cold: memo hits in timed phases = %d (memo misses %d; responses: hits %d); generated names %d distinct, %d repeated, %d shared with warm-up",
			memoHits, memoMisses, g.hits, len(names.seen), names.repeated, names.shared)
	case "fleet-cold":
		ok = ok && g.warm == 0 && g.deduped == 0
		text = fmt.Sprintf("guard fleet-cold: warm = %d, deduped = %d over %d timed sweeps (computed %d)",
			g.warm, g.deduped, sweeps, g.computed)
	case "fleet-warm":
		ok = ok && g.computed == 0
		text = fmt.Sprintf("guard fleet-warm: computed = %d over %d timed sweeps (warm rows %d, deduped %d)",
			g.computed, sweeps, g.warm, g.deduped)
	}
	status := "holds"
	if !ok {
		status = "VIOLATED"
	}
	return append(lines, guardLine{text + ": " + status, ok})
}
