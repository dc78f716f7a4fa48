// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4). Each experiment is a function that runs the
// relevant simulations and prints the same rows/series the paper reports;
// the registry in registry.go maps paper artifact names ("fig7", "table5",
// ...) to these functions for the cmd/experiments binary and the root
// benchmark suite.
//
// Scale: the paper's runs span 4 hours and up to 360K requests. Experiments
// here accept a scale factor that shrinks trace durations proportionally
// (default 0.05 => ~12-minute traces) while preserving arrival rates, tier
// mixes, and therefore the qualitative shapes. Pass -scale=1 to
// cmd/experiments for paper-duration runs.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/htmlreport"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

// Env carries shared experiment state: the hardware configuration, trained
// latency predictors (one per model config), output sink, and scale.
type Env struct {
	Scale float64 // duration multiplier relative to the paper's runs
	Seed  int64
	Out   io.Writer
	// Plot renders sweep tables as terminal line charts too.
	Plot bool
	// CSVDir, when set, additionally writes each sweep table as a CSV
	// file named <experiment>_<table-slug>.csv for external plotting.
	CSVDir string
	// HTML, when non-nil, collects every sweep table as an SVG chart for
	// a single report document (cmd/experiments -html).
	HTML *htmlreport.Builder
	// Workers bounds the sweep-point worker pool (see pool.go); 0 means
	// GOMAXPROCS, 1 forces serial execution.
	Workers int

	current string // experiment currently running (for CSV naming)

	// mu guards the lazily-populated caches below, which sweep workers may
	// touch concurrently. The expensive computations run outside the lock;
	// a racing duplicate recomputes the same seeded, deterministic value,
	// so last-writer-wins is harmless.
	mu       sync.Mutex
	preds    map[string]predictor.SafePredictor // guarded by mu
	capCache map[string]float64                 // guarded by mu
}

// NewEnv builds an environment. scale <= 0 defaults to 0.05 (about 12
// simulated minutes per run).
func NewEnv(scale float64, out io.Writer) *Env {
	if scale <= 0 {
		scale = 0.05
	}
	return &Env{Scale: scale, Seed: 42, Out: out, preds: map[string]predictor.SafePredictor{}}
}

// Predictor returns the trained random-forest predictor for a model
// configuration, training it on first use (Section 3.6.1: one profile per
// model/hardware/parallelism configuration).
func (e *Env) Predictor(mc model.Config) predictor.SafePredictor {
	e.mu.Lock()
	p, ok := e.preds[mc.Name()]
	e.mu.Unlock()
	if ok {
		return p
	}
	samples, err := profile.Collect(mc, profile.Config{Seed: e.Seed})
	if err != nil {
		panic(fmt.Sprintf("experiments: profiling %s: %v", mc.Name(), err))
	}
	f, err := predictor.Train(samples, predictor.ForestConfig{Seed: e.Seed})
	if err != nil {
		panic(fmt.Sprintf("experiments: training predictor for %s: %v", mc.Name(), err))
	}
	e.mu.Lock()
	if prev, ok := e.preds[mc.Name()]; ok {
		f0 := prev // another worker trained it first; share theirs
		e.mu.Unlock()
		return f0
	}
	e.preds[mc.Name()] = f
	e.mu.Unlock()
	return f
}

// QoServe returns a scheduler factory with the paper's default options.
func (e *Env) QoServe(mc model.Config) cluster.SchedulerFactory {
	return e.QoServeOpts(mc, core.DefaultOptions())
}

// QoServeOpts returns a QoServe factory with explicit options (ablations).
func (e *Env) QoServeOpts(mc model.Config, opts core.Options) cluster.SchedulerFactory {
	pred := e.Predictor(mc)
	return func() sched.Scheduler { return core.New(pred, opts) }
}

// Sarathi returns a fixed-chunk baseline factory.
func (e *Env) Sarathi(policy sched.Policy, chunk int) cluster.SchedulerFactory {
	return func() sched.Scheduler { return sched.NewSarathi(policy, chunk) }
}

// Medha returns the adaptive-chunking comparison factory (§4.5.1).
func (e *Env) Medha(mc model.Config, tbt sim.Time) cluster.SchedulerFactory {
	pred := e.Predictor(mc)
	return func() sched.Scheduler { return sched.NewMedha(pred, tbt, 4096) }
}

// PaperDuration is the paper's standard experiment length (§4.1.2: 4-hour
// serving period).
const PaperDuration = 4 * sim.Hour

// Duration returns the scaled run length, floored at 2 simulated minutes so
// tiny scales still produce meaningful statistics.
func (e *Env) Duration() sim.Time {
	d := sim.Time(float64(PaperDuration) * e.Scale)
	if d < 2*sim.Minute {
		d = 2 * sim.Minute
	}
	return d
}

// Trace synthesizes a Poisson trace of the scaled duration at the given
// rate.
func (e *Env) Trace(ds workload.Dataset, tiers []workload.Tier, qps float64, seed int64) ([]*request.Request, error) {
	n := int(qps * e.Duration().Seconds())
	if n < 50 {
		n = 50
	}
	return workload.Generate(workload.Spec{
		Dataset:  ds,
		Tiers:    tiers,
		Arrivals: workload.Poisson{QPS: qps},
		Requests: n,
		Seed:     seed,
	})
}

// TraceGen adapts Trace to the capacity-search interface.
func (e *Env) TraceGen(ds workload.Dataset, tiers []workload.Tier, seed int64) cluster.TraceGen {
	return func(qps float64) ([]*request.Request, error) {
		return e.Trace(ds, tiers, qps, seed)
	}
}

// searchOpts are the default capacity-search options used throughout.
func (e *Env) searchOpts() cluster.SearchOptions {
	return cluster.SearchOptions{
		MaxViolations: 0.01,
		Tolerance:     0.1,
		MaxQPS:        64,
	}
}

// RunJudged simulates a shared cluster until the trace's judging horizon.
func RunJudged(mc model.Config, n int, factory cluster.SchedulerFactory, trace []*request.Request) (*metrics.Summary, error) {
	return cluster.RunShared(mc, n, factory, trace, cluster.Horizon(trace))
}

// printf writes a formatted line to the experiment output.
func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// header prints a section banner.
func (e *Env) header(title string) {
	e.printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}
