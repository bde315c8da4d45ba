package flagsim

import (
	"context"
	"io"
	"log/slog"
	"time"

	"flagsim/internal/check"
	"flagsim/internal/classroom"
	"flagsim/internal/core"
	"flagsim/internal/depgraph"
	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/grid"
	"flagsim/internal/implement"
	"flagsim/internal/metrics"
	"flagsim/internal/obs"
	"flagsim/internal/processor"
	"flagsim/internal/quiz"
	"flagsim/internal/rng"
	"flagsim/internal/server"
	"flagsim/internal/sim"
	"flagsim/internal/submission"
	"flagsim/internal/survey"
	"flagsim/internal/sweep"
	"flagsim/internal/workload"
	"flagsim/internal/workplan"
)

// ---- Flags and grids ----

// Flag is a named layered paint program (see internal/flagspec).
type Flag = flagspec.Flag

// Grid is a cell canvas (see internal/grid).
type Grid = grid.Grid

// The built-in flags of the activity.
var (
	// Mauritius is the core-activity flag: four equal independent stripes.
	Mauritius = flagspec.Mauritius
	// France is the simple flag of the Webster variation.
	France = flagspec.France
	// Canada is the intricate flag of the Webster variation (Fig. 2).
	Canada = flagspec.Canada
	// GreatBritain is the layered flag of the Knox follow-up (Fig. 3).
	GreatBritain = flagspec.GreatBritain
	// Jordan is the dependency-graph exercise flag (Fig. 4).
	Jordan = flagspec.Jordan
)

// LookupFlag returns a built-in flag by name ("mauritius", "france",
// "canada", "greatbritain", "jordan", "germany", "japan", "sweden",
// "poland") or a procedurally generated one by canonical name
// ("gen:v1:<seed>:<variant>", see GenerateFlag).
func LookupFlag(name string) (*Flag, error) { return flagspec.Lookup(name) }

// FlagNames lists the built-in flags.
func FlagNames() []string { return flagspec.Names() }

// ValidateFlag checks a flag against a concrete w×h raster: structural
// invariants, at least one covered cell per layer, and — with
// fullCoverage — no unpainted cell. Non-positive sizes use the flag's
// defaults.
func ValidateFlag(f *Flag, w, h int, fullCoverage bool) error {
	return flagspec.Validate(f, w, h, fullCoverage)
}

// ---- Procedural flag generation ----

// GenSpec parameterizes a family of procedurally generated flags: grid
// ranges, layer budget, weighted shape grammar, palette pool.
type GenSpec = flaggen.GenSpec

// FlagGenerator is a compiled GenSpec; its Flag(seed, variant) method
// deterministically generates valid flags.
type FlagGenerator = flaggen.Generator

// DefaultGenSpec is the grammar behind the canonical "gen:v1" names.
func DefaultGenSpec() GenSpec { return flaggen.DefaultSpec() }

// NewFlagGenerator compiles and validates a GenSpec.
func NewFlagGenerator(spec GenSpec) (*FlagGenerator, error) { return flaggen.New(spec) }

// GenerateFlag returns the variant-th flag of the seed's family under
// the default grammar — the flag that "gen:v1:<seed>:<variant>" names.
func GenerateFlag(seed, variant uint64) (*Flag, error) { return flaggen.Generate(seed, variant) }

// GenFlagName returns the canonical versioned name of a generated flag,
// resolvable anywhere a builtin name is accepted (LookupFlag, sweep
// specs, the HTTP API, the dispatcher fleet).
func GenFlagName(seed, variant uint64) string { return flaggen.Name(seed, variant) }

// Rasterize paints a flag onto a fresh grid at the given size — the
// reference image simulation runs are verified against.
func Rasterize(f *Flag, w, h int) (*Grid, error) { return grid.Rasterize(f, w, h) }

// ---- Scenarios and simulation ----

// ScenarioID identifies one of the activity's scenarios.
type ScenarioID = core.ScenarioID

// The scenarios of Fig. 1 plus the pipelined scenario-4 variant.
const (
	S1          = core.S1
	S2          = core.S2
	S3          = core.S3
	S4          = core.S4
	S4Pipelined = core.S4Pipelined
)

// Scenario describes a scenario's worker count and decomposition.
type Scenario = core.Scenario

// RunSpec configures one scenario run.
type RunSpec = core.RunSpec

// DefaultSetup is the serial organization time the paper's scenarios
// charge before painting starts.
const DefaultSetup = core.DefaultSetup

// Result is a completed simulation run.
type Result = sim.Result

// Processor is one simulated student.
type Processor = processor.Processor

// ImplementSet is a team's drawing implements.
type ImplementSet = implement.Set

// ImplementKind is an implement technology class.
type ImplementKind = implement.Kind

// Implement technology classes, fastest to slowest.
const (
	Dauber      = implement.Dauber
	ThickMarker = implement.ThickMarker
	ThinMarker  = implement.ThinMarker
	Crayon      = implement.Crayon
)

// CoreScenarios returns the four scenarios of Fig. 1.
func CoreScenarios() []Scenario { return core.CoreScenarios() }

// ScenarioByID resolves a scenario definition.
func ScenarioByID(id ScenarioID) (Scenario, error) { return core.ScenarioByID(id) }

// RunScenario executes a scenario and verifies the colored flag.
func RunScenario(spec RunSpec) (*Result, error) { return core.Run(spec) }

// NewTeam builds n default students seeded deterministically.
func NewTeam(n int, seed uint64) ([]*Processor, error) { return core.NewTeam(n, seed) }

// NewImplementSet hands a team one implement of the given kind per color.
func NewImplementSet(kind ImplementKind, f *Flag) *ImplementSet {
	return implement.NewSet(kind, f.Colors())
}

// NewImplementSetN hands a team n implements of the given kind per color
// (the extra-implements contention ablation).
func NewImplementSetN(kind ImplementKind, f *Flag, n int) *ImplementSet {
	return implement.NewSetN(kind, f.Colors(), n)
}

// ---- Decompositions ----

// Plan is a per-processor decomposition of a flag.
type Plan = workplan.Plan

// Sequential decomposes for a single processor (scenario 1).
func Sequential(f *Flag, w, h int) (*Plan, error) { return workplan.Sequential(f, w, h) }

// LayerBlocks assigns contiguous layer groups to p processors
// (scenarios 2 and 3).
func LayerBlocks(f *Flag, w, h, p int) (*Plan, error) { return workplan.LayerBlocks(f, w, h, p) }

// VerticalSlices assigns vertical slices to p processors (scenario 4);
// rotate staggers starting layers (the pipelined variant).
func VerticalSlices(f *Flag, w, h, p int, rotate bool) (*Plan, error) {
	return workplan.VerticalSlices(f, w, h, p, rotate)
}

// Blocks tiles the canvas into gx×gy blocks dealt round-robin to p
// processors.
func Blocks(f *Flag, w, h, p, gx, gy int) (*Plan, error) {
	return workplan.Blocks(f, w, h, p, gx, gy)
}

// Cyclic deals cells round-robin to p processors.
func Cyclic(f *Flag, w, h, p int) (*Plan, error) { return workplan.Cyclic(f, w, h, p) }

// ---- Metrics ----

// SpeedupOf returns T1/Tp.
func SpeedupOf(t1, tp time.Duration) (float64, error) { return metrics.Speedup(t1, tp) }

// EfficiencyOf returns speedup divided by processor count.
func EfficiencyOf(t1, tp time.Duration, p int) (float64, error) {
	return metrics.Efficiency(t1, tp, p)
}

// AmdahlSpeedup predicts speedup from a serial fraction.
func AmdahlSpeedup(serialFraction float64, p int) (float64, error) {
	return metrics.AmdahlSpeedup(serialFraction, p)
}

// KarpFlatt returns the experimentally determined serial fraction.
func KarpFlatt(speedup float64, p int) (float64, error) { return metrics.KarpFlatt(speedup, p) }

// ---- Dependency graphs (Knox follow-up) ----

// Graph is a task dependency graph.
type Graph = depgraph.Graph

// GraphNode is one task vertex.
type GraphNode = depgraph.Node

// GraphSchedule is a list-scheduled placement of a graph on processors.
type GraphSchedule = depgraph.Schedule

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph { return depgraph.New() }

// FlagGraph builds a flag's layer dependency graph at raster size w×h.
func FlagGraph(f *Flag, w, h int) (*Graph, error) { return depgraph.FromFlag(f, w, h) }

// JordanReferenceGraph is the paper's intended Fig. 9 solution.
func JordanReferenceGraph(omitWhiteStripe bool) *Graph {
	return depgraph.JordanReference(omitWhiteStripe)
}

// ListSchedule schedules a graph onto p processors with the critical-path
// heuristic.
func ListSchedule(g *Graph, p int) (*GraphSchedule, error) { return depgraph.ListSchedule(g, p) }

// ---- Classroom sessions ----

// ClassroomConfig configures a full class session.
type ClassroomConfig = classroom.Config

// ClassroomSession is a completed session: teams, timing board, lessons.
type ClassroomSession = classroom.Session

// Lesson is a quantified §III-C discussion point.
type Lesson = core.Lesson

// RunClassroom simulates a whole class session.
func RunClassroom(cfg ClassroomConfig) (*ClassroomSession, error) { return classroom.Run(cfg) }

// ---- Assessment ----

// SurveyInstitution is one of the six pilot sites.
type SurveyInstitution = survey.Institution

// SurveyTable is a questions × institutions median table.
type SurveyTable = survey.Table

// GenerateSurveyStudy generates all six institutions' cohorts calibrated
// to the paper's Tables I–III.
func GenerateSurveyStudy(seed uint64) (map[SurveyInstitution]*survey.Cohort, error) {
	return survey.GenerateStudy(survey.PaperTargets(), rng.New(seed))
}

// BuildSurveyTables measures Tables I–III from generated cohorts.
func BuildSurveyTables(cohorts map[SurveyInstitution]*survey.Cohort) (t1, t2, t3 *SurveyTable, err error) {
	return survey.BuildPaperTables(cohorts)
}

// QuizSite is one of the three pre/post quiz sites.
type QuizSite = quiz.Site

// GenerateQuizStudy materializes the three quiz cohorts calibrated to
// Fig. 8.
func GenerateQuizStudy(seed uint64) (map[QuizSite]*quiz.Cohort, error) {
	return quiz.GenerateStudy(quiz.PaperMatrices(), rng.New(seed))
}

// BuildFig8 measures the Fig. 8 transition rows from quiz cohorts.
func BuildFig8(cohorts map[QuizSite]*quiz.Cohort) ([]quiz.Fig8Row, error) {
	return quiz.BuildFig8(cohorts)
}

// Submission is one student dependency-graph submission.
type Submission = submission.Submission

// SubmissionCategory is a §V-C grading outcome.
type SubmissionCategory = submission.Category

// GradeSubmission grades one submission under the §V-C rubric.
func GradeSubmission(s Submission) SubmissionCategory { return submission.Grade(s) }

// GenerateSubmissionClass materializes a class matching the paper's
// observed distribution (29 submissions).
func GenerateSubmissionClass(seed uint64) []Submission {
	return submission.GenerateClass(submission.PaperCounts(), rng.New(seed))
}

// GradeSubmissionClass grades a class and tallies categories.
func GradeSubmissionClass(subs []Submission) submission.Counts {
	return submission.GradeClass(subs)
}

// ---- Extensions beyond the paper's evaluation ----

// DecodeFlagJSON reads a custom flag specification (see
// internal/flagspec's JSON schema) so instructors can define new flags
// without recompiling.
func DecodeFlagJSON(r io.Reader) (*Flag, error) { return flagspec.DecodeJSON(r) }

// AmdahlFit is a whole-curve least-squares fit of Amdahl's law.
type AmdahlFit = metrics.AmdahlFit

// FitAmdahlCurve fits the serial fraction to measured completion times
// (times[i] = time on i+1 processors).
func FitAmdahlCurve(times []time.Duration) (AmdahlFit, error) {
	return metrics.FitAmdahl(times)
}

// QuizSignificanceRow is one McNemar result per (concept, site).
type QuizSignificanceRow = quiz.SignificanceRow

// AnalyzeQuizSignificance runs McNemar's test over reproduced quiz
// cohorts — the statistical analysis the paper's future work plans.
func AnalyzeQuizSignificance(cohorts map[QuizSite]*quiz.Cohort) ([]QuizSignificanceRow, error) {
	return quiz.AnalyzeSignificance(cohorts)
}

// SurveyComparison is a Mann–Whitney comparison of one question between
// two institutions.
type SurveyComparison = survey.Comparison

// CompareSurveyQuestion tests one question across every institution pair
// that asked it.
func CompareSurveyQuestion(cohorts map[SurveyInstitution]*survey.Cohort, question string) ([]SurveyComparison, error) {
	return survey.CompareAllPairs(cohorts, question)
}

// DynamicConfig configures a self-scheduled (shared work bag) run.
type DynamicConfig = sim.DynamicConfig

// PullPolicy selects how an idle processor chooses its next cell.
type PullPolicy = sim.PullPolicy

// Pull policies for dynamic runs.
const (
	PullOrdered       = sim.PullOrdered
	PullColorAffinity = sim.PullColorAffinity
)

// RunDynamic executes a self-scheduled run: idle processors pull the next
// cell from a shared bag at run time, adapting to skill differences.
func RunDynamic(cfg DynamicConfig) (*Result, error) { return sim.RunDynamic(cfg) }

// SimConfig configures a plan-driven run directly (RunPlan and
// RunSteal); the scenario helpers build one internally.
type SimConfig = sim.Config

// RunPlan executes a static plan-driven run directly. The scenario
// helpers (RunScenario) build the SimConfig internally; use RunPlan
// when you hold a Plan and want the full config surface — probes,
// faults, tracing, or a reusable Arena.
func RunPlan(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// RunSteal executes a static plan under work stealing: a processor that
// empties its own queue takes the trailing half of the most-loaded
// teammate's queue instead of retiring — the load-imbalance fix that
// keeps a good static split's locality. Result.Steals counts migrations.
func RunSteal(cfg SimConfig) (*Result, error) { return sim.RunSteal(cfg) }

// RunStealing executes a scenario under the work-stealing executor and
// verifies the colored flag.
func RunStealing(spec RunSpec) (*Result, error) { return core.RunStealing(spec) }

// Arena is a caller-owned reusable run context: every piece of per-run
// engine state (kernel, grid, queues, stats, result buffers) lives in it
// and is recycled across runs. Set SimConfig.Arena (or
// DynamicConfig.Arena) to run through one; after a warm-up run that
// grows the buffers to the workload's size, further runs on the same
// arena are allocation-free. The returned Result then aliases arena
// memory and is valid only until the arena's next run — callers that
// keep results across runs must copy what they need. A nil Arena in the
// config draws scratch from an internal pool and returns an independent
// Result.
type Arena = sim.Arena

// NewArena returns an empty arena ready for its first run. An arena is
// not safe for concurrent runs; use one per goroutine (the internal pool
// behind nil-Arena configs already does this for pooled runs).
func NewArena() *Arena { return sim.NewArena() }

// ---- Engine observation ----

// Probe observes engine execution: grants, releases, blocks, completed
// cells, retirements, and every materialized span.
type Probe = sim.Probe

// BaseProbe is a no-op Probe for embedding.
type BaseProbe = sim.BaseProbe

// CountingProbe tallies engine events — the cheapest metrics hook.
type CountingProbe = sim.CountingProbe

// SpanCollector accumulates every span the engine emits, reconstructing a
// traced run's timeline from an untraced run.
type SpanCollector = sim.SpanCollector

// ResultProbe is the optional Probe extension executors call once per
// completed run with the assembled Result — run-level totals (steals,
// migrations, event counts, queue high-water) that per-event callbacks
// cannot see.
type ResultProbe = sim.ResultProbe

// RunScopedProbe is the optional Probe extension for probes shared
// across concurrent runs (sweep pools, servers): the engine asks
// BeginRun for a fresh per-run child, so per-run state never races.
type RunScopedProbe = sim.RunScopedProbe

// ---- Observability ----

// MetricsRegistry is a dependency-free, ordered Prometheus text registry
// (exposition format 0.0.4): counters, gauges, histograms, and
// scrape-time function families.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// EngineMetricsProbe publishes completed runs onto a MetricsRegistry:
// cells painted, implement traffic, blocks by kind/color, spans by
// kind, instrumented runs and run-level totals, all read from each
// Result. It is a ResultProbe, not a Probe to install: hand it results
// with ObserveResult, or set it as SweepOptions.Observer to publish
// every run a sweep pool computes while the engine stays on its fast
// path. Goroutine-safe; one serves a whole process.
type EngineMetricsProbe = obs.MetricsProbe

// NewEngineMetricsProbe registers the engine families on reg and
// returns the publisher that feeds them.
func NewEngineMetricsProbe(reg *MetricsRegistry) *EngineMetricsProbe {
	return obs.NewMetricsProbe(reg)
}

// RegisterGoRuntimeMetrics adds the conventional go_* runtime families
// (goroutines, heap, GC) to reg.
func RegisterGoRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterGoRuntime(reg) }

// NewStructuredLogger builds a log/slog logger writing to w with the
// given minimum level ("debug", "info", "warn", "error") and format
// ("text" or "json").
func NewStructuredLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// ---- Batch sweeps ----

// SweepSpec is a declarative, hashable description of one run: teams and
// implement sets are materialized fresh inside the pool worker from the
// spec's seed, so identical specs always produce bit-identical Results.
type SweepSpec = sweep.Spec

// SweepExec selects the executor class a SweepSpec runs under.
type SweepExec = sweep.Exec

// Executor classes for sweep specs.
const (
	SweepStatic  = sweep.ExecStatic
	SweepSteal   = sweep.ExecSteal
	SweepDynamic = sweep.ExecDynamic
)

// SweepOptions configures the sweep pool: the worker bound (default
// runtime.GOMAXPROCS), event probes installed on every compute, an
// Observer handed every computed Result (an EngineMetricsProbe, say),
// and record mode (an encoder; the memo then keeps each run's summary
// and canonical bytes, not its Result) with an optional second cache
// tier behind it.
type SweepOptions = sweep.Options

// SweepResult is a completed batch: per-run outcomes in input order plus
// wall time and cache hit/miss counters.
type SweepResult = sweep.Result

// SweepRun is one run's outcome inside a SweepResult: result or error,
// compute time, and whether it was served from the cache.
type SweepRun = sweep.RunResult

// SweepGrid enumerates a cartesian parameter grid (workers × implement
// class × pull policy × seed × ...) around a base spec.
type SweepGrid = sweep.Grid

// Sweeper is a reusable sweep pool whose content-addressed result cache
// persists across batches — rerunning a grid on the same Sweeper is
// served warm.
type Sweeper = sweep.Sweeper

// NewSweeper returns a sweep pool with an empty result cache.
func NewSweeper(opts SweepOptions) *Sweeper { return sweep.New(opts) }

// RunSweep executes the specs on a fresh bounded worker pool and returns
// per-run results in input order. Identical specs are computed once and
// shared; use NewSweeper to keep the cache warm across batches.
func RunSweep(specs []SweepSpec, opts SweepOptions) *SweepResult {
	return sweep.RunAll(specs, opts)
}

// SweepCacheStats is a snapshot of a Sweeper's memo cache: lifetime
// hits and misses plus resident entries.
type SweepCacheStats = sweep.CacheStats

// ---- Cancellation ----

// ErrCanceled reports that a run's context was canceled before the
// simulation finished; Result-level errors wrap it (test with
// errors.Is). The engine polls the context at a fixed event cadence,
// so cancellation lands promptly even mid-run.
var ErrCanceled = sim.ErrCanceled

// RunScenarioCtx is RunScenario bounded by ctx: the engine's event loop
// stops at the next checkpoint once ctx is done and returns an error
// wrapping ErrCanceled.
func RunScenarioCtx(ctx context.Context, spec RunSpec) (*Result, error) {
	return core.RunCtx(ctx, spec)
}

// RunStealingCtx is RunStealing bounded by ctx.
func RunStealingCtx(ctx context.Context, spec RunSpec) (*Result, error) {
	return core.RunStealingCtx(ctx, spec)
}

// RunPlanCtx is RunPlan bounded by ctx.
func RunPlanCtx(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunCtx(ctx, cfg)
}

// RunStealCtx is RunSteal bounded by ctx.
func RunStealCtx(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunStealCtx(ctx, cfg)
}

// RunDynamicCtx is RunDynamic bounded by ctx.
func RunDynamicCtx(ctx context.Context, cfg DynamicConfig) (*Result, error) {
	return sim.RunDynamicCtx(ctx, cfg)
}

// RunSweepCtx is RunSweep bounded by ctx: runs not yet started fail
// fast once ctx is done, runs in flight stop at the engine's next
// checkpoint, and canceled computes are never memoized.
func RunSweepCtx(ctx context.Context, specs []SweepSpec, opts SweepOptions) *SweepResult {
	return sweep.New(opts).Run(ctx, specs)
}

// ---- Fault injection and correctness verification ----

// FaultPlan is a seeded, hashable description of deterministic fault
// injection: processor stall windows, degraded cells, forced implement
// breakage, transient paint failures forcing repaints, and handoff
// delays. Every decision is a pure function of (plan seed, cell), so
// the same plan perturbs every executor identically and a fault-bearing
// run is exactly as reproducible as a fault-free one.
type FaultPlan = fault.Plan

// FaultStall is one processor freeze window inside a FaultPlan
// (Proc -1 stalls everyone).
type FaultStall = fault.Stall

// FaultInjector is the engine hook a compiled FaultPlan implements; a
// nil injector leaves the engine's hot path untouched.
type FaultInjector = sim.FaultInjector

// FaultStats tallies what an injected plan actually did during a run
// (Result.Faults).
type FaultStats = sim.FaultStats

// NewFaultInjector compiles a plan for installation in a RunSpec,
// SimConfig, or DynamicConfig. A nil or zero plan returns a nil
// injector (no injection); assign through a nil check.
func NewFaultInjector(p *FaultPlan) (*fault.Injector, error) { return fault.New(p) }

// FaultPreset returns a named built-in plan: "none", "light" (mild
// degradation and handoff delays), "heavy" (stalls, breakage, repaints,
// heavy contention delays).
func FaultPreset(name string, seed uint64) (*FaultPlan, error) { return fault.Preset(name, seed) }

// FaultPresetNames lists the built-in fault plans.
func FaultPresetNames() []string { return fault.PresetNames() }

// CheckOracle is an engine probe enforcing the simulator's invariants
// online and at result time: exactly-once painting, implement mutual
// exclusion, span well-formedness, the critical-path lower bound, task
// conservation under stealing, and final-grid fidelity. Install one
// per run (or share one across runs — it scopes itself) and ask Err.
type CheckOracle = check.Oracle

// NewCheckOracle returns an oracle ready to install as a probe.
func NewCheckOracle() *CheckOracle { return check.NewOracle() }

// CheckDiffConfig configures a differential verification suite.
type CheckDiffConfig = check.DiffConfig

// CheckDiffResult is a completed suite: per-run rows, oracle
// violations, and cross-run conservation mismatches.
type CheckDiffResult = check.DiffResult

// CheckDiff pushes one workload through all three executors under a
// set of fault plans, verifies every run with a fresh oracle, and
// compares the conserved quantities (final grid, work performed,
// cell-keyed fault markings). The zero config runs the default suite.
func CheckDiff(ctx context.Context, cfg CheckDiffConfig) (*CheckDiffResult, error) {
	return check.Diff(ctx, cfg)
}

// ---- HTTP service ----

// ServerConfig parameterizes the HTTP simulation service: listen
// address, admission bounds (max in-flight, max queued), per-request
// deadline, sweep pool size, and graceful drain budget. The zero value
// serves with sensible defaults.
type ServerConfig = server.Config

// SimServer is the HTTP simulation service: POST /v1/run and
// /v1/sweep execute under admission control with the sweep cache warm
// across requests; GET /healthz and /metrics expose serving, engine,
// and Go runtime state; GET /v1/runs and /v1/runs/{id}/trace replay
// recent runs, and POST /v1/run?trace=chrome streams a Chrome trace.
type SimServer = server.Server

// NewServer assembles an HTTP simulation service (for embedding its
// Handler in an existing mux, or driving Serve directly).
func NewServer(cfg ServerConfig) *SimServer { return server.New(cfg) }

// Serve runs the HTTP simulation service until ctx is canceled, then
// drains gracefully: in-flight requests get cfg.DrainTimeout to
// finish, and a clean drain returns nil.
func Serve(ctx context.Context, cfg ServerConfig) error {
	return server.New(cfg).ListenAndServe(ctx)
}

// ---- Workload generation ----

// TrafficShape is a deterministic arrival-intensity profile λ(t) in
// requests per second. Built-ins: PoissonShape (constant rate),
// BurstyShape (on/off square wave), DiurnalShape (clamped sum of
// sinusoids over a base rate).
type TrafficShape = workload.Shape

// PoissonShape is a constant-rate arrival process.
type PoissonShape = workload.Poisson

// BurstyShape is an on/off square wave: OnRate for the first Duty
// fraction of every Period, OffRate for the rest — the synchronized
// classroom-flood pattern a mean-rate process smooths away.
type BurstyShape = workload.Bursty

// DiurnalShape is a multi-period sinusoidal profile: Base plus one
// sine per Harmonic, clamped at zero.
type DiurnalShape = workload.Diurnal

// ParseTrafficShape parses the CLI shape grammar: "poisson:200",
// "bursty:500,10,2s,0.25", "diurnal:100,10s:80,3s:30".
func ParseTrafficShape(s string) (TrafficShape, error) { return workload.ParseShape(s) }

// WorkloadMix weights the four request kinds in the population
// (runs, sweeps, faulted runs, trace runs); the zero value means the
// default mostly-runs mix.
type WorkloadMix = workload.Mix

// WorkloadPopulation parameterizes the request space arrivals draw
// from: mix weights, flag/executor/scenario/seed spaces, raster size.
type WorkloadPopulation = workload.Population

// WorkloadSchedule is a precomputed, sorted open-loop arrival
// schedule — a pure function of (seed, shape, duration, population).
type WorkloadSchedule = workload.Schedule

// MakeWorkloadSchedule draws the schedule deterministically: arrival
// times and request draws come from independently labeled SplitMix64
// child streams of seed, so the i-th request's parameters do not
// depend on the arrival process (or vice versa).
func MakeWorkloadSchedule(seed uint64, shape TrafficShape, duration time.Duration, pop WorkloadPopulation) (*WorkloadSchedule, error) {
	return workload.MakeSchedule(seed, shape, duration, pop)
}

// WorkloadTrace is a recorded sequence of request/response exchanges
// with a canonical, versioned, seekable wire format ("FSWL"):
// decode→encode is byte-identical, malformed input fails with errors
// wrapping workload.ErrTraceFormat, and readers can skip records
// without parsing bodies.
type WorkloadTrace = workload.Trace

// WorkloadRunnerConfig configures open-loop firing: target URL,
// client, speed (0 = as fast as possible), metrics, and an optional
// per-response observer.
type WorkloadRunnerConfig = workload.RunnerConfig

// WorkloadReport summarizes one firing: offered vs goodput rates,
// status counts, latency percentiles, max in-flight, and fire-lag
// (how far the generator fell behind its own schedule).
type WorkloadReport = workload.Report

// FireWorkload fires a schedule open-loop at a running service:
// every request launches at its scheduled instant regardless of how
// many are still in flight, which is what makes queueing collapse
// observable. The returned trace records scheduled offsets, so it
// replays on the original timeline.
func FireWorkload(ctx context.Context, sched *WorkloadSchedule, cfg WorkloadRunnerConfig) (*WorkloadTrace, *WorkloadReport, error) {
	return workload.Fire(ctx, sched, cfg)
}

// ReplayWorkload re-fires a recorded trace on its recorded timeline
// (scaled by cfg.Speed) against a target service.
func ReplayWorkload(ctx context.Context, tr *WorkloadTrace, cfg WorkloadRunnerConfig) (*WorkloadTrace, *WorkloadReport, error) {
	return workload.Replay(ctx, tr, cfg)
}

// CompareWorkloadTraces diffs the deterministic sections of two
// traces of the same schedule: results behind 200/4xx statuses must
// match bit-for-bit after stripping the serving envelope (run id,
// cache flag, timing), while load-dependent statuses (429, 503,
// timeouts) are excluded. This is the capture/replay contract.
func CompareWorkloadTraces(recorded, replayed *WorkloadTrace) (*workload.CompareReport, error) {
	return workload.CompareTraces(recorded, replayed)
}

// SaturationSLO is the pass/fail criterion for one saturation trial:
// a p99 latency bound and a maximum error rate.
type SaturationSLO = workload.SLO

// SaturationConfig configures the capacity search: target, SLO,
// trial window, bracket bounds, and bisection depth.
type SaturationConfig = workload.SaturationConfig

// SaturationResult reports the highest offered rate that met the SLO
// (SustainableQPS), the lowest that failed (CollapseQPS), and every
// trial in between.
type SaturationResult = workload.SaturationResult

// FindSaturation binary-searches the maximum sustainable open-loop
// QPS under the SLO: bracket by doubling until a trial fails, then
// bisect. cmd/capacitygate wires this into CI as a capacity
// regression gate.
func FindSaturation(ctx context.Context, cfg SaturationConfig) (*SaturationResult, error) {
	return workload.FindSaturation(ctx, cfg)
}
