// Command benchguard is the CI regression gate for the engine and sweep
// benchmarks: it runs `go test -bench` over the guarded set, compares
// per-benchmark medians against the checked-in BENCH_baseline.json, and
// fails when
//
//   - the geometric mean of the current/baseline ns/op ratios exceeds
//     the threshold (default 1.20, i.e. a >20% geomean slowdown), or
//   - an allocation-flat benchmark (baseline 0 allocs/op) reports any
//     allocations — the zero-alloc engine core is a hard invariant, not
//     a statistical one, so a single alloc/op regression fails CI even
//     when ns/op is within noise, or
//   - an allocation-flat benchmark's B/op grows past a small absolute
//     slack (512 B), which catches byte churn that rounds to 0 allocs/op
//     under amortization.
//
// Usage:
//
//	benchguard                      # guard against BENCH_baseline.json
//	benchguard -update              # rewrite the baseline from this machine
//	benchguard -threshold 1.5       # loosen the ns/op gate (noisy runners)
//	benchguard -input bench.txt     # judge pre-recorded `go test -bench` output
//
// The ns/op geomean (benchstat's summary statistic) tolerates one noisy
// benchmark: a single outlier must be large enough to move the mean of
// the whole set. Absolute ns/op baselines are machine-specific — each CI
// runner class wants its own baseline file, regenerated with -update.
// Allocation counts are machine-independent, so their gates are exact.
//
// When $GITHUB_STEP_SUMMARY is set (i.e. under GitHub Actions),
// benchguard appends a markdown table of ns/op, B/op, and allocs/op
// deltas to it, so the gate's numbers land on the workflow summary page
// without log spelunking.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// guarded is the default benchmark set: the three engine policies (bare,
// nil-hook, published to the metrics probe, fault-injected, and
// oracle-verified for the static one), the sweep pool, the two warm
// serving paths of the HTTP service, its in-process warm /v1/run (the
// memo record's stored bytes, with its allocations) and its cold
// generated sweep (every run computed and published), the dispatcher's
// report path (which carries the tracing plane's per-job bookkeeping)
// and its warm sweep (rows read from stored results), the procedural
// flag generator (per-flag generation, whose allocation envelope is
// pinned, plus the generated sweep cold/warm pair guarding the
// content-addressed memo path, and the generated sweep over all three
// executors, whose runs share one geometry per flag), and the content
// key of a builtin and of a generated spec and the grid digest, whose
// allocation-flat baselines keep them at 0 allocs/op.
const guarded = "^(BenchmarkEngineStatic|BenchmarkEngineStaticNilHooks|BenchmarkEngineStaticProbed|BenchmarkEngineStaticFaults|BenchmarkEngineStaticOracle|BenchmarkEngineDynamic|BenchmarkEngineSteal|BenchmarkSweepParallel|BenchmarkServerRun|BenchmarkServerRunWarm|BenchmarkServerSweepWarm|BenchmarkServerSweepCold|BenchmarkDispatcherReport|BenchmarkDispatcherSweepWarm|BenchmarkGenFlag|BenchmarkSweepGeneratedCold|BenchmarkSweepGeneratedExecs|BenchmarkSweepGeneratedWarm|BenchmarkSpecKey|BenchmarkSpecKeyGenerated|BenchmarkGridDigest)$"

// flatBytesSlack is the absolute B/op growth allowed on an
// allocation-flat benchmark before the gate fails. A genuinely
// zero-alloc run can still report a few dozen amortized bytes/op of
// runtime bookkeeping; a real buffer re-introduced into the hot path
// costs kilobytes per run.
const flatBytesSlack = 512

// entry is one benchmark's record. BytesOp/AllocsOp are -1 when the
// benchmark does not report allocation data (no ReportAllocs call).
type entry struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// UnmarshalJSON also accepts the v1 baseline schema, where each
// benchmark mapped to a bare ns/op number, so a stale baseline degrades
// to "no allocation data" instead of a parse error.
func (e *entry) UnmarshalJSON(raw []byte) error {
	var ns float64
	if err := json.Unmarshal(raw, &ns); err == nil {
		*e = entry{NsOp: ns, BytesOp: -1, AllocsOp: -1}
		return nil
	}
	type alias entry
	var a alias
	if err := json.Unmarshal(raw, &a); err != nil {
		return err
	}
	*e = entry(a)
	return nil
}

// baseline is the BENCH_baseline.json schema (v2).
type baseline struct {
	Note       string           `json:"note"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkEngineStatic-8   253  471711 ns/op  914.0 events/run  0 B/op  0 allocs/op
//
// The B/op and allocs/op columns appear only for benchmarks that call
// ReportAllocs (or under -benchmem); custom ReportMetric columns may sit
// between ns/op and the allocation pair.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func main() {
	var (
		benchPat  = flag.String("bench", guarded, "benchmark pattern passed to go test")
		count     = flag.Int("count", 5, "runs per benchmark (median is compared)")
		threshold = flag.Float64("threshold", 1.20, "max allowed geomean of current/baseline ns/op ratios")
		basePath  = flag.String("baseline", "BENCH_baseline.json", "baseline file")
		input     = flag.String("input", "", "parse this `go test -bench` output file instead of running benchmarks")
		update    = flag.Bool("update", false, "rewrite the baseline from the current run and exit")
	)
	flag.Parse()

	current, err := measure(*benchPat, *count, *input)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q", *benchPat))
	}

	if *update {
		if err := writeBaseline(*basePath, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", *basePath, len(current))
		return
	}

	base, err := readBaseline(*basePath)
	if err != nil {
		fatal(fmt.Errorf("%w (run `benchguard -update` to create it)", err))
	}
	rep, err := compare(current, base.Benchmarks)
	if err != nil {
		fatal(err)
	}
	for _, r := range rep.rows {
		fmt.Println(r)
	}
	for _, name := range rep.unguarded {
		fmt.Printf("benchguard: NOTE: %s has no baseline — reported, not guarded (run `benchguard -update` to start guarding it)\n", name)
	}
	fmt.Printf("geomean ratio: %.3f (threshold %.2f)\n", rep.geomean, *threshold)
	if err := writeStepSummary(rep, *threshold); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: NOTE: step summary not written: %v\n", err)
	}

	failed := false
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL: %s\n", v)
		failed = true
	}
	if rep.geomean > *threshold {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL: geomean slowdown %.1f%% exceeds %.0f%%\n",
			(rep.geomean-1)*100, (*threshold-1)*100)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: ok")
}

// measure returns name -> per-metric medians, either by running the
// benchmarks or by parsing a pre-recorded output file. Each metric's
// median is taken independently across the -count runs; ns/op needs
// that (shared runners are noisy) and the allocation metrics don't care
// (they are deterministic run to run).
func measure(pattern string, count int, input string) (map[string]entry, error) {
	var r io.Reader
	if input != "" {
		fh, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		r = fh
	} else {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", pattern, "-count", strconv.Itoa(count), "-benchtime", "1x", ".")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench: %w", err)
		}
		// Warmed up; the timed pass.
		cmd = exec.Command("go", "test", "-run", "^$",
			"-bench", pattern, "-count", strconv.Itoa(count), ".")
		cmd.Stderr = os.Stderr
		out, err = cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench: %w", err)
		}
		r = strings.NewReader(string(out))
	}
	type sample struct{ ns, bytes, allocs []float64 }
	samples := make(map[string]*sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := samples[m[1]]
		if s == nil {
			s = &sample{}
			samples[m[1]] = s
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		s.ns = append(s.ns, ns)
		if m[3] != "" {
			bv, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			av, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			s.bytes = append(s.bytes, bv)
			s.allocs = append(s.allocs, av)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]entry, len(samples))
	for name, s := range samples {
		e := entry{NsOp: median(s.ns), BytesOp: -1, AllocsOp: -1}
		if len(s.bytes) > 0 {
			e.BytesOp = median(s.bytes)
			e.AllocsOp = median(s.allocs)
		}
		out[name] = e
	}
	return out, nil
}

func median(s []float64) float64 {
	sort.Float64s(s)
	return s[len(s)/2]
}

// report is compare's result: the ns/op geomean, human-readable rows,
// markdown rows for the step summary, hard-gate violations, and current
// benchmarks with no baseline entry.
type report struct {
	geomean    float64
	rows       []string
	mdRows     []string
	violations []string
	unguarded  []string
}

// compare judges current against base. The coverage asymmetry is
// deliberate: a baseline benchmark that did not run is an error (the
// guard must never silently shrink its coverage), but a new benchmark
// not yet in the baseline is only reported — a PR adding a benchmark
// should not fail CI until someone regenerates the baseline on the
// runner class.
func compare(current, base map[string]entry) (*report, error) {
	rep := &report{}
	var names []string
	for name := range current {
		if _, ok := base[name]; !ok {
			rep.unguarded = append(rep.unguarded, name)
			continue
		}
		names = append(names, name)
	}
	for name := range base {
		if _, ok := current[name]; !ok {
			return nil, fmt.Errorf("baseline benchmark %s did not run", name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no current benchmark has a baseline entry")
	}
	sort.Strings(names)
	sort.Strings(rep.unguarded)
	logSum := 0.0
	for _, name := range names {
		cur, b := current[name], base[name]
		ratio := cur.NsOp / b.NsOp
		logSum += math.Log(ratio)
		rep.rows = append(rep.rows, fmt.Sprintf("%-32s %12.0f ns/op  baseline %12.0f  ratio %.3f  %s",
			name, cur.NsOp, b.NsOp, ratio, allocCol(cur, b)))
		rep.mdRows = append(rep.mdRows, fmt.Sprintf("| %s | %.0f | %.0f | %.3f | %s | %s |",
			name, cur.NsOp, b.NsOp, ratio, memCell(cur.BytesOp, b.BytesOp), memCell(cur.AllocsOp, b.AllocsOp)))

		// The allocation gates are exact, not statistical, and only
		// apply where the baseline is allocation-flat: there, any
		// regression means the zero-alloc invariant broke.
		if b.AllocsOp == 0 && cur.AllocsOp > 0 {
			rep.violations = append(rep.violations,
				fmt.Sprintf("%s allocates %.0f allocs/op (baseline 0): the warm-run zero-alloc invariant broke", name, cur.AllocsOp))
		}
		if b.AllocsOp == 0 && cur.BytesOp > b.BytesOp+flatBytesSlack {
			rep.violations = append(rep.violations,
				fmt.Sprintf("%s B/op grew %.0f -> %.0f (flat-benchmark slack %d B)", name, b.BytesOp, cur.BytesOp, flatBytesSlack))
		}
	}
	rep.geomean = math.Exp(logSum / float64(len(names)))
	return rep, nil
}

// allocCol renders the allocation columns of a console row.
func allocCol(cur, b entry) string {
	if cur.AllocsOp < 0 && b.AllocsOp < 0 {
		return "(no alloc data)"
	}
	return fmt.Sprintf("%s B/op (base %s)  %s allocs/op (base %s)",
		memStr(cur.BytesOp), memStr(b.BytesOp), memStr(cur.AllocsOp), memStr(b.AllocsOp))
}

// memStr renders an allocation metric; -1 (no data) shows as a dash.
func memStr(v float64) string {
	if v < 0 {
		return "—"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// memCell renders one markdown delta cell: "cur (base b, Δd)".
func memCell(cur, base float64) string {
	if cur < 0 && base < 0 {
		return "—"
	}
	if base < 0 || cur < 0 {
		return memStr(cur)
	}
	return fmt.Sprintf("%s (base %s, Δ%+.0f)", memStr(cur), memStr(base), cur-base)
}

// writeStepSummary appends the delta table to $GITHUB_STEP_SUMMARY when
// the variable is set; otherwise it is a no-op.
func writeStepSummary(rep *report, threshold float64) error {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return nil
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	fmt.Fprintf(fh, "### benchguard\n\n")
	fmt.Fprintf(fh, "geomean ns/op ratio: **%.3f** (threshold %.2f)\n\n", rep.geomean, threshold)
	fmt.Fprintln(fh, "| benchmark | ns/op | baseline ns/op | ratio | B/op | allocs/op |")
	fmt.Fprintln(fh, "|---|---|---|---|---|---|")
	for _, r := range rep.mdRows {
		fmt.Fprintln(fh, r)
	}
	if len(rep.violations) > 0 {
		fmt.Fprintf(fh, "\n**violations:**\n\n")
		for _, v := range rep.violations {
			fmt.Fprintf(fh, "- %s\n", v)
		}
	}
	fmt.Fprintln(fh)
	return nil
}

func readBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &b, nil
}

func writeBaseline(path string, medians map[string]entry) error {
	b := baseline{
		Note:       "per-benchmark medians: ns_op (machine-specific), b_op and allocs_op (exact; -1 = benchmark reports no allocation data); regenerate with `go run ./cmd/benchguard -update` on the CI runner class",
		Benchmarks: medians,
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
