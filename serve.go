package qoserve

import (
	"fmt"
	"sort"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/fault"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/predictor/forests"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Outcome is the per-request result of a serving run.
type Outcome struct {
	ID        uint64
	Class     string
	Priority  Priority
	Completed bool
	Relegated bool
	// Violated reports whether the request missed its SLO: TTFT for
	// interactive classes, TTLT for batch classes.
	Violated bool
	// TTFT is the observed time to first token (zero if none produced).
	TTFT time.Duration
	// TTLT is the observed completion latency (zero if unfinished).
	TTLT time.Duration
	// MaxTBT is the worst inter-token gap observed.
	MaxTBT time.Duration
	// Retries counts how many times the request was re-enqueued after a
	// replica crash (each retry discarded its KV progress).
	Retries int
	// Failed reports that the cluster permanently gave up on the request;
	// FailReason says why. Failed requests count as violated.
	Failed     bool
	FailReason string
}

// Report aggregates a serving run.
type Report struct {
	Outcomes []Outcome
	// Duration is the virtual time the run covered.
	Duration time.Duration
	// Replicas is the number of serving replicas (GPUs = Replicas x TP).
	Replicas int
	// GPUs is the total GPU count.
	GPUs int
	// ViolationRate is the fraction of judged requests that missed their
	// SLO (requests truncated before their deadline are excluded).
	ViolationRate float64
	// RelegationRate is the fraction of requests eagerly relegated.
	RelegationRate float64
	// Goodput is requests served within SLO per second per replica.
	Goodput float64
	// Faults aggregates failure and recovery counters; nil when the run
	// injected no faults.
	Faults *FaultReport

	summary *metrics.Summary
}

// ViolationRateOf reports the violation rate of one class.
func (r *Report) ViolationRateOf(class string) float64 {
	return r.summary.ViolationRate(metrics.ByClass(class))
}

// TTFTPercentile reports the q-th quantile (0..1) of TTFT over a class
// (starved requests contribute their end-of-run age).
func (r *Report) TTFTPercentile(class string, q float64) time.Duration {
	return secondsToDuration(r.summary.TTFTQuantile(metrics.ByClass(class), q))
}

// TTLTPercentile reports the q-th quantile of completion latency over a
// class.
func (r *Report) TTLTPercentile(class string, q float64) time.Duration {
	return secondsToDuration(r.summary.TTLTQuantile(metrics.ByClass(class), q))
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// factoryFor builds the scheduler factory for the options. The predictive
// policies load the hardware preset's shipped forest.
func factoryFor(o Options, mc model.Config) (cluster.SchedulerFactory, error) {
	policy := string(o.Policy)
	if policy == "" {
		policy = cluster.PolicyQoServe
	}
	var forest *predictor.Forest
	if cluster.NeedsForest(policy) {
		var err error
		if forest, err = forests.Load(mc); err != nil {
			return nil, err
		}
	}
	factory, err := cluster.PolicyFactory(policy, forest, o.Chunk, o.QoServe.options())
	if err != nil {
		return nil, fmt.Errorf("qoserve: %w", err)
	}
	return factory, nil
}

// Serve simulates the configured deployment serving the requests and
// returns the aggregated report. Requests may be supplied in any order;
// they are served by arrival time.
func Serve(o Options, reqs []Request) (*Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("qoserve: no requests")
	}
	mc := o.Hardware.config()
	_, classMap, err := o.classes()
	if err != nil {
		return nil, err
	}

	// Register explicit IDs first so auto-assignment never collides with
	// an explicit ID appearing later in the slice.
	seen := make(map[uint64]bool, len(reqs))
	for _, r := range reqs {
		if r.ID == 0 {
			continue
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("qoserve: duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	trace := make([]*request.Request, 0, len(reqs))
	nextID := uint64(1)
	for _, r := range reqs {
		id := r.ID
		if id == 0 {
			for seen[nextID] {
				nextID++
			}
			id = nextID
			seen[id] = true
		}
		ir, err := r.toInternal(id, classMap)
		if err != nil {
			return nil, err
		}
		trace = append(trace, ir)
	}
	sort.Slice(trace, func(i, j int) bool {
		if trace[i].Arrival != trace[j].Arrival {
			return trace[i].Arrival < trace[j].Arrival
		}
		return trace[i].ID < trace[j].ID
	})

	horizon := cluster.Horizon(trace)
	if o.Horizon > 0 {
		horizon = sim.FromDuration(o.Horizon)
	}

	var (
		sum      *metrics.Summary
		replicas int
		faults   *FaultReport
	)
	if len(o.Silos) > 0 {
		if o.Faults.enabled() {
			return nil, fmt.Errorf("qoserve: fault injection requires a shared cluster, not silos")
		}
		replicas = 0
		for _, n := range o.Silos {
			replicas += n
		}
		strictest := strictestInteractive(classMap)
		plan := cluster.SiloPlan{
			Replicas: o.Silos,
			Factory: func(class string) sched.Scheduler {
				if class == strictest {
					return sched.NewSarathi(sched.FCFS, sched.DefaultChunk)
				}
				return sched.NewSarathi(sched.FCFS, sched.RelaxedChunk)
			},
		}
		sum, err = cluster.RunSiloed(mc, plan, trace, horizon)
	} else {
		replicas = o.Replicas
		if replicas == 0 {
			replicas = 1
		}
		var factory cluster.SchedulerFactory
		factory, err = factoryFor(o, mc)
		if err != nil {
			return nil, err
		}
		if o.Faults.enabled() {
			var schedule fault.Schedule
			schedule, err = o.Faults.schedule(replicas, horizon)
			if err != nil {
				return nil, err
			}
			rec := cluster.Recovery{
				MaxRetries:  o.Faults.MaxRetries,
				Backoff:     sim.FromDuration(o.Faults.RetryBackoff),
				ParkTimeout: sim.FromDuration(o.Faults.ParkTimeout),
			}
			var stats cluster.FaultStats
			sum, stats, err = cluster.RunFaulty(mc, replicas, factory, trace, horizon, schedule, rec)
			if err == nil {
				faults = &FaultReport{
					Crashes:        stats.Crashes,
					Restarts:       stats.Restarts,
					Retries:        stats.Retries,
					LostTokens:     stats.LostTokens,
					FailedRequests: stats.FailedRequests,
				}
			}
		} else {
			sum, err = cluster.RunShared(mc, replicas, factory, trace, horizon)
		}
	}
	if err != nil {
		return nil, err
	}
	rep := buildReport(sum, mc, replicas)
	rep.Faults = faults
	return rep, nil
}

// schedule materializes the plan's injection schedule for a cluster of the
// given size over the given horizon.
func (p FaultPlan) schedule(replicas int, horizon sim.Time) (fault.Schedule, error) {
	if p.Schedule != "" {
		s, err := fault.ParseSchedule(p.Schedule)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(replicas); err != nil {
			return nil, err
		}
		return s, nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return fault.Random(fault.RandomConfig{
		Seed:     seed,
		Replicas: replicas,
		Horizon:  horizon,
		MTBF:     sim.FromDuration(p.MTBF),
		MTTR:     sim.FromDuration(p.MTTR),
	})
}

func strictestInteractive(classes map[string]qos.Class) string {
	best := ""
	var bestTBT sim.Time
	for name, c := range classes {
		if c.Kind != qos.Interactive {
			continue
		}
		if best == "" || c.SLO.TBT < bestTBT {
			best, bestTBT = name, c.SLO.TBT
		}
	}
	return best
}

func buildReport(sum *metrics.Summary, mc model.Config, replicas int) *Report {
	rep := &Report{
		Duration:       sum.End.Duration(),
		Replicas:       replicas,
		GPUs:           replicas * mc.GPUs(),
		ViolationRate:  sum.ViolationRate(metrics.All),
		RelegationRate: sum.RelegationRate(metrics.All),
		Goodput:        sum.Goodput(),
		summary:        sum,
	}
	rep.Outcomes = make([]Outcome, 0, len(sum.Outcomes))
	for _, o := range sum.Outcomes {
		prio := High
		if o.Priority == qos.Low {
			prio = Low
		}
		out := Outcome{
			ID:         o.ID,
			Class:      o.Class,
			Priority:   prio,
			Completed:  o.Completed,
			Relegated:  o.Relegated,
			Violated:   o.Violated,
			MaxTBT:     o.MaxTBT.Duration(),
			Retries:    o.Retries,
			Failed:     o.FailedReason != "",
			FailReason: o.FailedReason,
		}
		if o.FirstToken {
			out.TTFT = o.TTFT.Duration()
		}
		if o.Completed {
			out.TTLT = o.TTLT.Duration()
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep
}
