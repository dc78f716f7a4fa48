package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

// sim_mixed replays one seeded Azure-Conv Table 3 trace through the
// virtual-time simulator, repeatedly, for the measured seconds. Each
// repetition must reproduce the per-class tallies exactly.
const (
	simReplicas = 4
	simRequests = 32000
	simQPS      = 16  // virtual requests/s: bursts exceed the 4 replicas
	simCV       = 2.0 // inter-arrival coefficient of variation: bursty
	setupRounds = 9   // set-ups per run; setup_s is their median
)

// table3Tiers is the Table 3 mix in equal thirds with Q3 as the free
// (low-priority) tier.
func table3Tiers() []workload.Tier {
	tiers := workload.EqualTiers(qos.Table3())
	tiers[2].LowPriority = 1
	return tiers
}

// azureConv8K is Azure-Conv with prompts clamped to Llama-3-8B's 8192-token
// context (2.4% of draws) and outputs to the gateway's default 4096-token
// cap. Unclamped, the p99 TTFT of a run would be set by the few prompts of
// up to 16k tokens a seed happens to draw.
func azureConv8K() workload.Dataset {
	ds := workload.AzureConv
	ds.Prompt.Max = 8192
	ds.Decode.Max = 4096
	return ds
}

func simSpec(seed int64) workload.Spec {
	return workload.Spec{
		Dataset:  azureConv8K(),
		Tiers:    table3Tiers(),
		Arrivals: workload.Gamma{QPS: simQPS, CV: simCV},
		Requests: simRequests,
		Seed:     seed,
	}
}

// trainForest profiles the model and trains the latency predictor exactly
// as qoserved does at start-up.
func trainForest(mc model.Config) (*predictor.Forest, error) {
	samples, err := profile.Collect(mc, profile.Config{Seed: 1})
	if err != nil {
		return nil, err
	}
	return predictor.Train(samples, predictor.ForestConfig{Seed: 1})
}

// simHorizon lets every request reach its deadline, as qoserve-sim does.
func simHorizon(trace []*request.Request) sim.Time {
	return trace[len(trace)-1].Arrival + 1800*sim.Second + sim.Minute
}

// tallies renders per-class completed/violated/relegated counts, the
// virtual-time outcome of a simulation.
func tallies(sum *metrics.Summary) string {
	var b strings.Builder
	for _, c := range qos.Table3() {
		var done, viol, rel int
		for _, o := range sum.Outcomes {
			if o.Class != c.Name {
				continue
			}
			if o.Completed {
				done++
			}
			if o.Violated {
				viol++
			}
			if o.Relegated {
				rel++
			}
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d/%d/%d", c.Name, done, viol, rel)
	}
	return b.String()
}

//go:embed golden_sim.txt
var goldenSim []byte

// goldenTallies maps seed to the tallies recorded for it.
func goldenTallies() map[int64]string {
	out := map[int64]string{}
	sc := bufio.NewScanner(bytes.NewReader(goldenSim))
	for sc.Scan() {
		seed, rest, ok := strings.Cut(sc.Text(), " ")
		if n, err := strconv.ParseInt(seed, 10, 64); ok && err == nil {
			out[n] = rest
		}
	}
	return out
}

// simOnce runs the trace of seed through the simulator with schedulers
// from factory.
func simOnce(mc model.Config, seed int64, factory cluster.SchedulerFactory) (*metrics.Summary, []*request.Request, time.Duration, error) {
	trace, err := workload.Generate(simSpec(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	sum, err := cluster.RunShared(mc, simReplicas, factory, trace, simHorizon(trace))
	return sum, trace, time.Since(t0), err
}

func qoserveFactory(forest *predictor.Forest) cluster.SchedulerFactory {
	return func() sched.Scheduler { return core.New(forest, core.DefaultOptions()) }
}

// tracedFactory wraps every scheduler the factory builds, and the
// predictor each one is handed, in timing shims reporting to rec.
func tracedFactory(mc model.Config, pred predictor.SafePredictor, rec *recorder) (func() sched.Scheduler, error) {
	build := func() (sched.Scheduler, error) {
		open := &planCtx{}
		wp, err := wrapPredictor(pred, rec, open)
		if err != nil {
			return nil, err
		}
		return wrapSched(core.New(wp, core.DefaultOptions()), rec, mc, open)
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	return func() sched.Scheduler {
		s, _ := build() // checked above; the wrapping is deterministic
		return s
	}, nil
}

// gapSched records, for every decode of every batch, the virtual gap since
// the request's previous token: the simulator keeps only each request's
// largest gap.
type gapSched struct {
	sched.Scheduler
	prev []sim.Time
	gaps *[]float64
}

func (g *gapSched) PlanBatch(now sim.Time) sched.Batch {
	b := g.Scheduler.PlanBatch(now)
	g.prev = g.prev[:0]
	for _, d := range b.Decodes {
		g.prev = append(g.prev, d.LastTokenAt)
	}
	return b
}

func (g *gapSched) OnBatchComplete(b sched.Batch, now sim.Time) {
	for i := range b.Decodes {
		*g.gaps = append(*g.gaps, (now-g.prev[i]).Seconds()*1e3)
	}
	g.Scheduler.OnBatchComplete(b, now)
}

func runSimMixed(e *env) (*result, error) {
	res := newResult()
	mc := model.Llama3_8B_A100_TP1()

	var setups []float64
	var forest *predictor.Forest
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		f, err := trainForest(mc)
		if err != nil {
			return nil, err
		}
		if _, err := workload.Generate(simSpec(e.seed)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		forest = f
	}

	var rec *recorder
	traced := qoserveFactory(forest)
	if e.traced {
		rec = newRecorder()
		var err error
		if traced, err = tracedFactory(mc, forest, rec); err != nil {
			return nil, err
		}
	}

	// Timed repetitions. An untraced run spends all its time untraced; a
	// traced run alternates, so the two halves see the same machine. The
	// first repetition's tallies are the ones every later one, traced or
	// not, must reproduce.
	var ref *metrics.Summary
	var trace []*request.Request
	var want string
	var walls, tracedWalls []float64
	var cpu time.Duration
	var simVirtual, tracedWall float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < e.seconds || len(walls) < 3; i++ {
		factory, isTraced := qoserveFactory(forest), e.traced && i%2 == 1
		if isTraced {
			factory = traced
		}
		// Every repetition starts from a collected heap, so the peak
		// resident set does not depend on where the last GC fell.
		runtime.GC()
		c0 := cpuTime()
		sum, tr, wall, err := simOnce(mc, e.seed, factory)
		c1 := cpuTime()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref, trace, want = sum, tr, tallies(sum)
			if g, ok := goldenTallies()[e.seed]; ok {
				res.check(want == g, "seed %d tallies %q, recorded %q", e.seed, want, g)
			} else {
				res.note("seed %d has no recorded tallies; checking repetitions against each other only", e.seed)
			}
		}
		res.check(tallies(sum) == want, "repetition %d (traced=%v) tallies %q, first %q", i, isTraced, tallies(sum), want)
		if isTraced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			tracedWall += wall.Seconds()
			simVirtual += sum.End.Seconds()
			continue
		}
		walls = append(walls, wall.Seconds())
		cpu += c1 - c0
	}
	res.attempted = simRequests * (len(walls) + len(tracedWalls))

	decodeTokens, completed := 0, 0
	var lastDone sim.Time
	var ttft []float64
	met := 0
	for i, o := range ref.Outcomes { // in trace order
		slo := trace[i].Class.SLO
		if o.FirstToken && o.Kind == qos.Interactive {
			ttft = append(ttft, o.TTFT.Seconds()*1e3)
		}
		if o.Completed {
			completed++
			decodeTokens += o.DecodeTokens
			if done := o.Arrival + o.TTLT; done > lastDone {
				lastDone = done
			}
			if (o.Kind == qos.Interactive && o.TTFT <= slo.TTFT) || (o.Kind != qos.Interactive && o.TTLT <= slo.TTLT) {
				met++
			}
		}
	}
	wall := median(walls)
	if e.traced {
		setLayerDefaults(res)
		schedLayerMetrics(res, rec)
		res.set("replica.tokens_per_iter", rec.counter("sched.new_tokens")/rec.counter("sched.batches"), "count")
		res.set("sim.virtual_s_per_wall_s", simVirtual/tracedWall, "s/s")
		res.set("trace.overhead_share", median(tracedWalls)/wall-1, "share")
		res.set("sim.req_per_wall_s", simRequests/wall, "1/s")
		res.set("cpu_ms_per_req", float64(cpu)/float64(time.Millisecond)/float64(simRequests*len(walls)), "ms")
		res.note("%d untraced and %d traced repetitions", len(walls), len(tracedWalls))
		writeSpans(res, rec, e)
		return res, nil
	}
	// Read the peak before the gap recording below adds its own bookkeeping.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	// One more, untimed repetition records the token gaps; it too must
	// reproduce the tallies.
	var gaps []float64
	gapSum, _, _, err := simOnce(mc, e.seed, func() sched.Scheduler {
		return &gapSched{Scheduler: core.New(forest, core.DefaultOptions()), gaps: &gaps}
	})
	if err != nil {
		return nil, err
	}
	res.check(tallies(gapSum) == want, "gap-recording repetition tallies %q, first %q", tallies(gapSum), want)
	res.attempted += simRequests

	window := (trace[len(trace)-1].Arrival - trace[0].Arrival).Seconds()
	st := phaseStats{sent: simRequests, met: met, ttft: ttft, gaps: gaps}
	latencyMetrics(res, st, p99)
	res.set("setup_s", median(setups), "s")
	res.set("slo_attain_share", st.attainment(), "share")
	res.set("goodput_rps", float64(met)/window, "1/s")
	// Throughput on the simulator's own clock, from the first arrival to
	// the last completion. How fast it simulates is sim.req_per_wall_s.
	span := (lastDone - trace[0].Arrival).Seconds()
	res.set("req_per_s", float64(completed)/span, "1/s")
	res.set("tok_per_s", float64(decodeTokens)/span, "1/s")
	res.set("rss_peak_mb", rss, "MiB")
	res.note("tallies %s; %d timed repetitions, median %.3fs (%.0f simulated requests per wall second)", want, len(walls), wall, simRequests/wall)
	return res, nil
}

// recordGolden writes the tallies of seeds lo..hi ("lo-hi") to
// perfbench/golden_sim.txt, using every CPU.
func recordGolden(span string) error {
	a, b, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("-record-golden wants lo-hi, got %q", span)
	}
	mc := model.Llama3_8B_A100_TP1()
	forest, err := trainForest(mc)
	if err != nil {
		return err
	}
	n := int(hi - lo + 1)
	lines := make([]string, n)
	errs := make(chan error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(seed int64, i int) {
			defer func() { <-sem }()
			sum, _, _, err := simOnce(mc, seed, qoserveFactory(forest))
			if err == nil {
				lines[i] = fmt.Sprintf("%d %s", seed, tallies(sum))
			}
			errs <- err
		}(lo+int64(i), i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return os.WriteFile("perfbench/golden_sim.txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
