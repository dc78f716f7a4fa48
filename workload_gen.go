package qoserve

import (
	"fmt"
	"io"
	"math"
	"time"

	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

// Dataset selects a workload shape, fit to the published percentiles of the
// paper's evaluation traces (Table 2).
type Dataset int

// Evaluation datasets.
const (
	// DatasetShareGPT: long prompts, long decodes (p50 1730/415).
	DatasetShareGPT Dataset = iota
	// DatasetAzureConv: conversation production trace (p50 928/41).
	DatasetAzureConv
	// DatasetAzureCode: code production trace — long prompts, tiny
	// decodes (p50 1930/8).
	DatasetAzureCode
)

func (d Dataset) internal() workload.Dataset {
	switch d {
	case DatasetShareGPT:
		return workload.ShareGPT
	case DatasetAzureConv:
		return workload.AzureConv
	default:
		return workload.AzureCode
	}
}

// String implements fmt.Stringer.
func (d Dataset) String() string { return d.internal().Name }

// WorkloadSpec describes a synthetic trace.
type WorkloadSpec struct {
	// Dataset picks the token-count distributions.
	Dataset Dataset
	// Classes are assigned round-robin by Weights; default DefaultClasses
	// with equal weights.
	Classes []Class
	// Weights gives each class's share of requests; default equal.
	Weights []float64
	// LowPriorityFraction tags this share of each class's requests as
	// free-tier (relegated first under overload).
	LowPriorityFraction float64
	// QPS is the mean arrival rate (requests/second).
	QPS float64
	// BurstinessCV is the coefficient of variation of inter-arrival
	// times: 0 or 1 gives Poisson arrivals; >1 gives burstier traffic
	// (gamma renewal process), <1 smoother. Ignored when BurstQPS is set.
	BurstinessCV float64
	// BurstQPS, when > 0, alternates the arrival rate between QPS and
	// BurstQPS every BurstPeriod (the paper's diurnal overload pattern).
	BurstQPS    float64
	BurstPeriod time.Duration
	// Duration is the trace length; the request count is QPS-derived.
	Duration time.Duration
	// Seed makes generation deterministic.
	Seed int64
}

// MaxTraceRequests bounds the request count a single GenerateWorkload call
// may synthesize. The count is QPS x duration, both caller-supplied floats;
// without a cap an absurd combination (or an overflowing float-to-int
// conversion) could attempt a multi-gigabyte allocation.
const MaxTraceRequests = 2_000_000

// MaxTraceDuration bounds a synthetic trace's length. Virtual time is
// nanosecond-resolution int64; a year-long trace keeps even generous
// exponential inter-arrival tails far from overflow.
const MaxTraceDuration = 365 * 24 * time.Hour

// GenerateWorkload synthesizes a request trace from the specification.
func GenerateWorkload(spec WorkloadSpec) ([]Request, error) {
	classes := spec.Classes
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	internalClasses := make([]qos.Class, len(classes))
	for i, c := range classes {
		ic, err := c.toInternal()
		if err != nil {
			return nil, err
		}
		internalClasses[i] = ic
	}
	var tiers []workload.Tier
	if len(spec.Weights) > 0 {
		var err error
		tiers, err = workload.WeightedTiers(internalClasses, spec.Weights)
		if err != nil {
			return nil, err
		}
	} else {
		tiers = workload.EqualTiers(internalClasses)
	}
	if spec.LowPriorityFraction > 0 {
		tiers = workload.WithLowPriority(tiers, spec.LowPriorityFraction)
	}

	// Rate checks are phrased to also reject NaN (every ordered comparison
	// on NaN is false) and infinities, which would otherwise slip through
	// and poison arrival times or the request-count computation.
	if !(spec.QPS > 0) || math.IsInf(spec.QPS, 0) {
		return nil, fmt.Errorf("qoserve: QPS must be positive and finite, got %v", spec.QPS)
	}
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("qoserve: duration must be positive")
	}
	if spec.Duration > MaxTraceDuration {
		return nil, fmt.Errorf("qoserve: duration %v above the %v cap", spec.Duration, MaxTraceDuration)
	}
	if cv := spec.BurstinessCV; cv != 0 && (!(cv > 0) || math.IsInf(cv, 0)) {
		return nil, fmt.Errorf("qoserve: burstiness CV must be positive and finite, got %v", cv)
	}
	if f := spec.LowPriorityFraction; !(f >= 0 && f <= 1) {
		return nil, fmt.Errorf("qoserve: low-priority fraction must be in [0,1], got %v", f)
	}
	var arrivals workload.ArrivalProcess = workload.Poisson{QPS: spec.QPS}
	if cv := spec.BurstinessCV; cv > 0 && cv != 1 {
		arrivals = workload.Gamma{QPS: spec.QPS, CV: cv}
	}
	avgQPS := spec.QPS
	if spec.BurstQPS != 0 {
		if !(spec.BurstQPS > 0) || math.IsInf(spec.BurstQPS, 0) {
			return nil, fmt.Errorf("qoserve: burst QPS must be positive and finite, got %v", spec.BurstQPS)
		}
		if spec.BurstPeriod <= 0 {
			return nil, fmt.Errorf("qoserve: burst period must be positive")
		}
		arrivals = workload.Diurnal{
			LowQPS:     spec.QPS,
			HighQPS:    spec.BurstQPS,
			HalfPeriod: sim.FromDuration(spec.BurstPeriod),
		}
		avgQPS = (spec.QPS + spec.BurstQPS) / 2
	}
	nf := avgQPS * spec.Duration.Seconds()
	if nf > MaxTraceRequests {
		return nil, fmt.Errorf("qoserve: %v QPS over %v yields %.0f requests, above the %d cap",
			avgQPS, spec.Duration, nf, MaxTraceRequests)
	}
	n := int(nf)
	if n < 1 {
		return nil, fmt.Errorf("qoserve: duration %v at %v QPS yields no requests", spec.Duration, spec.QPS)
	}

	trace, err := workload.Generate(workload.Spec{
		Dataset:  spec.Dataset.internal(),
		Tiers:    tiers,
		Arrivals: arrivals,
		Requests: n,
		Seed:     spec.Seed,
	})
	if err != nil {
		return nil, err
	}

	return fromInternal(trace), nil
}

// WriteTrace writes requests as JSON lines, one per request, recording each
// request's class, resolved by name against DefaultClasses(), with its SLOs.
// ReadTrace reads the file back.
func WriteTrace(w io.Writer, reqs []Request) error {
	_, classMap, err := Options{}.classes()
	if err != nil {
		return err
	}
	trace, err := toInternalTrace(reqs, classMap)
	if err != nil {
		return err
	}
	return workload.WriteTrace(w, trace)
}

// ReadTrace parses a JSON-lines trace written by WriteTrace. Requests keep
// their class names only: Serve resolves them against Options.Classes.
func ReadTrace(r io.Reader) ([]Request, error) {
	trace, err := workload.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return fromInternal(trace), nil
}

// toInternalTrace converts public requests that carry their own IDs,
// resolving each class against classes.
func toInternalTrace(reqs []Request, classes map[string]qos.Class) ([]*request.Request, error) {
	trace := make([]*request.Request, len(reqs))
	for i, r := range reqs {
		ir, err := r.toInternal(r.ID, classes)
		if err != nil {
			return nil, err
		}
		trace[i] = ir
	}
	return trace, nil
}

// fromInternal converts an internal trace to public requests.
func fromInternal(trace []*request.Request) []Request {
	out := make([]Request, len(trace))
	for i, r := range trace {
		prio := High
		if r.Priority == qos.Low {
			prio = Low
		}
		out[i] = Request{
			ID:           r.ID,
			App:          r.App,
			Class:        r.Class.Name,
			Priority:     prio,
			Arrival:      r.Arrival.Duration(),
			PromptTokens: r.PromptTokens,
			DecodeTokens: r.DecodeTokens,
		}
	}
	return out
}
