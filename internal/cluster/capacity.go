package cluster

import (
	"fmt"

	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// TraceGen produces a trace for a target arrival rate. Capacity searches
// call it repeatedly with candidate rates.
type TraceGen func(qps float64) ([]*request.Request, error)

// Horizon returns the cutoff for judging a trace: every request has either
// completed or irrevocably missed its deadline by the last arrival plus the
// largest TTFT/TTLT target plus a minute's margin. Running longer cannot
// change a verdict; an unfinished request past its deadline counts as a
// violation. The capacity searches judge every probe at it, because an
// unbounded drain lets relaxed tiers finish inside their long deadlines no
// matter the backlog.
func Horizon(trace []*request.Request) sim.Time {
	var last, maxSLO sim.Time
	for _, r := range trace {
		if r.Arrival > last {
			last = r.Arrival
		}
		slo := r.Class.SLO.TTLT
		if r.Class.Kind == qos.Interactive {
			slo = r.Class.SLO.TTFT
		}
		if slo > maxSLO {
			maxSLO = slo
		}
	}
	return last + maxSLO + sim.Minute
}

// SearchOptions tunes the capacity searches.
type SearchOptions struct {
	// MaxViolations is the admissible violation fraction (paper: 1%).
	MaxViolations float64
	// Tolerance ends the QPS bisection when hi-lo < Tolerance (default 0.05).
	Tolerance float64
	// MaxQPS bounds the upward search (default 64).
	MaxQPS float64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.MaxViolations == 0 {
		o.MaxViolations = 0.01
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.05
	}
	if o.MaxQPS == 0 {
		o.MaxQPS = 64
	}
	return o
}

// MaxGoodput finds the highest per-replica arrival rate (QPS) a
// single-replica deployment sustains while keeping violations within
// opts.MaxViolations — the paper's goodput metric (§4.1.2). It returns the
// rate and the summary of the run at that rate.
func MaxGoodput(cfg model.Config, factory SchedulerFactory, gen TraceGen, opts SearchOptions) (float64, *metrics.Summary, error) {
	opts = opts.withDefaults()
	probe := func(qps float64) (*metrics.Summary, bool, error) {
		trace, err := gen(qps)
		if err != nil {
			return nil, false, err
		}
		sum, err := RunShared(cfg, 1, factory, trace, Horizon(trace))
		if err != nil {
			return nil, false, err
		}
		return sum, sum.ViolationRate(metrics.All) <= opts.MaxViolations, nil
	}

	// Exponential climb to bracket the capacity.
	lo := 0.0
	var loSum *metrics.Summary
	hi := 0.25
	for hi <= opts.MaxQPS {
		sum, ok, err := probe(hi)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			break
		}
		lo, loSum = hi, sum
		hi *= 2
	}
	if lo == 0 {
		// Even the smallest probe failed.
		if _, ok, err := probe(0.05); err != nil {
			return 0, nil, err
		} else if !ok {
			return 0, nil, fmt.Errorf("cluster: no feasible rate found")
		}
		lo = 0.05
	}
	if hi > opts.MaxQPS {
		hi = opts.MaxQPS
	}

	// Bisect.
	for hi-lo > opts.Tolerance {
		mid := (lo + hi) / 2
		sum, ok, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			lo, loSum = mid, sum
		} else {
			hi = mid
		}
	}
	return lo, loSum, nil
}

// MinReplicas finds the smallest shared-cluster size serving the fixed
// trace within the violation target (Table 4's QoServe-(10) result). The
// trace is regenerated per probe via gen(0) to avoid state reuse; maxN
// bounds the search.
func MinReplicas(cfg model.Config, factory SchedulerFactory, gen func() ([]*request.Request, error), maxN int, opts SearchOptions) (int, *metrics.Summary, error) {
	opts = opts.withDefaults()
	lo, hi := 1, maxN
	var best *metrics.Summary
	bestN := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		trace, err := gen()
		if err != nil {
			return 0, nil, err
		}
		sum, err := RunShared(cfg, mid, factory, trace, Horizon(trace))
		if err != nil {
			return 0, nil, err
		}
		if sum.ViolationRate(metrics.All) <= opts.MaxViolations {
			best, bestN = sum, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestN < 0 {
		return 0, nil, fmt.Errorf("cluster: %d replicas insufficient", maxN)
	}
	return bestN, best, nil
}
