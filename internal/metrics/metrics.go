// Package metrics computes the evaluation quantities of the paper: TTFT /
// TBT / TTLT percentiles, deadline-violation rates sliced by QoS tier,
// request length, and priority, goodput, and rolling tail latencies for
// time-series plots.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// Outcome is the frozen result of one request at the end of a run.
type Outcome struct {
	ID            uint64
	Class         string
	Kind          qos.Kind
	Priority      qos.Priority
	Arrival       sim.Time
	PromptTokens  int
	DecodeTokens  int
	TTFT          sim.Time // valid if FirstToken true
	TTLT          sim.Time // valid if Completed
	MaxTBT        sim.Time
	TBTViolations int
	// Retries counts re-enqueues after replica failures; FailedReason is
	// non-empty when the serving layer permanently gave up (such requests
	// are always Violated).
	Retries      int
	FailedReason string
	// The flags sit together so they share one word: 128 bytes per
	// outcome instead of 152.
	Relegated  bool
	Completed  bool
	FirstToken bool
	Violated   bool // missed its SLO (TTFT or TTLT per class kind)
}

// OutcomeOf snapshots a request's result as of time end. A request that
// has neither finished nor passed its deadline is not violated (yet); the
// caller decides whether to include such truncated requests.
func OutcomeOf(r *request.Request, end sim.Time) Outcome {
	o := Outcome{
		ID:            r.ID,
		Class:         r.Class.Name,
		Kind:          r.Class.Kind,
		Priority:      r.Priority,
		Relegated:     r.Relegated,
		Arrival:       r.Arrival,
		PromptTokens:  r.PromptTokens,
		DecodeTokens:  r.DecodeTokens,
		MaxTBT:        r.MaxTBT,
		TBTViolations: r.TBTViolations,
		Violated:      r.ViolatedSLO(end),
		Retries:       r.Retries,
		FailedReason:  r.FailedReason,
	}
	if ttft, ok := r.TTFT(); ok {
		o.TTFT, o.FirstToken = ttft, true
	}
	if ttlt, ok := r.TTLT(); ok {
		o.TTLT, o.Completed = ttlt, true
	}
	return o
}

// Latency is the per-request headline latency used in Figures 2 and 13:
// observed completion latency if finished, else first-token latency if
// produced, else the age of the request at end-of-run (a lower bound that
// correctly dominates the tail when requests are starved). The asOf
// argument is the end-of-run time.
func (o Outcome) Latency(asOf sim.Time) sim.Time {
	switch {
	case o.Completed:
		return o.TTLT
	case o.FirstToken:
		return o.TTFT
	default:
		return asOf - o.Arrival
	}
}

// Summary aggregates outcomes from one run.
type Summary struct {
	Outcomes []Outcome
	End      sim.Time // end-of-run virtual time
	Replicas int      // replicas that served the run (for per-replica goodput)
}

// NewSummary snapshots all requests at time end.
func NewSummary(reqs []*request.Request, end sim.Time, replicas int) *Summary {
	s := &Summary{End: end, Replicas: replicas}
	s.Outcomes = make([]Outcome, 0, len(reqs))
	for _, r := range reqs {
		s.Outcomes = append(s.Outcomes, OutcomeOf(r, end))
	}
	return s
}

// Tally counts outcomes for request counts and violation rates without
// keeping them, so a long-running server can drop outcomes it no longer
// needs individually.
type Tally struct {
	Requests int
	// Judged counts completed or violated outcomes: the ViolationRate
	// denominator.
	Judged   int
	Violated int
}

// Add counts one outcome.
func (t *Tally) Add(o Outcome) {
	t.Requests++
	if o.Completed || o.Violated {
		t.Judged++
	}
	if o.Violated {
		t.Violated++
	}
}

// ViolationRate is the fraction of judged outcomes that missed their SLO,
// or 0 when none were judged.
func (t Tally) ViolationRate() float64 {
	if t.Judged == 0 {
		return 0
	}
	return float64(t.Violated) / float64(t.Judged)
}

// Filter is a predicate over outcomes.
type Filter func(Outcome) bool

// All matches every outcome.
func All(Outcome) bool { return true }

// ByClass matches one QoS tier.
func ByClass(name string) Filter {
	return func(o Outcome) bool { return o.Class == name }
}

// ByPriority matches one priority tier.
func ByPriority(p qos.Priority) Filter {
	return func(o Outcome) bool { return o.Priority == p }
}

// LongerThan matches requests with prompt length >= threshold (the paper's
// "long" bucket is the p90 of the dataset's prompt distribution).
func LongerThan(tokens int) Filter {
	return func(o Outcome) bool { return o.PromptTokens >= tokens }
}

// ShorterThan matches requests with prompt length < threshold.
func ShorterThan(tokens int) Filter {
	return func(o Outcome) bool { return o.PromptTokens < tokens }
}

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(o Outcome) bool {
		for _, f := range fs {
			if !f(o) {
				return false
			}
		}
		return true
	}
}

// Count returns the number of outcomes matching f.
func (s *Summary) Count(f Filter) int {
	n := 0
	for _, o := range s.Outcomes {
		if f(o) {
			n++
		}
	}
	return n
}

// Tally counts the outcomes matching f.
func (s *Summary) Tally(f Filter) Tally {
	var t Tally
	for _, o := range s.Outcomes {
		if f(o) {
			t.Add(o)
		}
	}
	return t
}

// ViolationRate is the fraction of matching requests that missed their SLO,
// counting unfinished requests whose deadline has passed. Requests that are
// merely truncated by end-of-run (deadline still in the future) are
// excluded from the denominator. Returns 0 for an empty selection.
func (s *Summary) ViolationRate(f Filter) float64 { return s.Tally(f).ViolationRate() }

// quantile returns the q-th quantile of a sorted slice using nearest-rank
// on the continuous index (linear interpolation).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// collect gathers a metric over matching outcomes, sorted ascending.
func (s *Summary) collect(f Filter, get func(Outcome) (float64, bool)) []float64 {
	var vals []float64
	for _, o := range s.Outcomes {
		if !f(o) {
			continue
		}
		if v, ok := get(o); ok {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	return vals
}

// TTFTQuantile returns the q-th quantile of observed TTFT (seconds) over
// matching requests. Requests that never produced a first token contribute
// their end-of-run age, so starvation shows up in the tail instead of
// silently vanishing.
func (s *Summary) TTFTQuantile(f Filter, q float64) float64 {
	vals := s.collect(f, func(o Outcome) (float64, bool) {
		if o.FirstToken {
			return o.TTFT.Seconds(), true
		}
		return (s.End - o.Arrival).Seconds(), true
	})
	return quantile(vals, q)
}

// TTLTQuantile is like TTFTQuantile for completion latency.
func (s *Summary) TTLTQuantile(f Filter, q float64) float64 {
	vals := s.collect(f, func(o Outcome) (float64, bool) {
		if o.Completed {
			return o.TTLT.Seconds(), true
		}
		return (s.End - o.Arrival).Seconds(), true
	})
	return quantile(vals, q)
}

// LatencyQuantile is the headline request-latency quantile (see
// Outcome.Latency).
func (s *Summary) LatencyQuantile(f Filter, q float64) float64 {
	vals := s.collect(f, func(o Outcome) (float64, bool) {
		return o.Latency(s.End).Seconds(), true
	})
	return quantile(vals, q)
}

// MaxTBTQuantile returns the q-th quantile of per-request worst
// inter-token gaps (seconds) over matching requests that decoded at least
// two tokens.
func (s *Summary) MaxTBTQuantile(f Filter, q float64) float64 {
	vals := s.collect(f, func(o Outcome) (float64, bool) {
		if o.MaxTBT > 0 {
			return o.MaxTBT.Seconds(), true
		}
		return 0, false
	})
	return quantile(vals, q)
}

// TBTViolationRate is the fraction of decoded tokens that missed their TBT
// gap over matching interactive requests.
func (s *Summary) TBTViolationRate(f Filter) float64 {
	tokens, violations := 0, 0
	for _, o := range s.Outcomes {
		if !f(o) || o.Kind != qos.Interactive {
			continue
		}
		if o.DecodeTokens > 1 {
			tokens += o.DecodeTokens - 1
			violations += o.TBTViolations
		}
	}
	if tokens == 0 {
		return 0
	}
	return float64(violations) / float64(tokens)
}

// CompletionRate is the fraction of matching requests that finished.
func (s *Summary) CompletionRate(f Filter) float64 {
	total, done := 0, 0
	for _, o := range s.Outcomes {
		if !f(o) {
			continue
		}
		total++
		if o.Completed {
			done++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// RelegationRate is the fraction of matching requests relegated.
func (s *Summary) RelegationRate(f Filter) float64 {
	total, rel := 0, 0
	for _, o := range s.Outcomes {
		if !f(o) {
			continue
		}
		total++
		if o.Relegated {
			rel++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(rel) / float64(total)
}

// RetriedCount is the number of matching requests re-enqueued at least once
// after a replica failure; TotalRetries sums every retry.
func (s *Summary) RetriedCount(f Filter) (requests, retries int) {
	for _, o := range s.Outcomes {
		if !f(o) || o.Retries == 0 {
			continue
		}
		requests++
		retries += o.Retries
	}
	return requests, retries
}

// FailedCount is the number of matching requests the serving layer
// permanently failed (each carries a reason; none are silently dropped).
func (s *Summary) FailedCount(f Filter) int {
	n := 0
	for _, o := range s.Outcomes {
		if f(o) && o.FailedReason != "" {
			n++
		}
	}
	return n
}

// Goodput is requests served within SLO per second per replica — the
// paper's §4.1.2 metric.
func (s *Summary) Goodput() float64 {
	if s.End <= 0 || s.Replicas <= 0 {
		return 0
	}
	good := 0
	for _, o := range s.Outcomes {
		if o.Completed && !o.Violated {
			good++
		}
	}
	return float64(good) / s.End.Seconds() / float64(s.Replicas)
}

// MeetsSLOTarget reports whether the run satisfies the paper's goodput
// criterion: at most maxViolations fraction of requests violating (the
// paper allows 1%).
func (s *Summary) MeetsSLOTarget(maxViolations float64) bool {
	return s.ViolationRate(All) <= maxViolations
}

// String renders a one-line digest.
func (s *Summary) String() string {
	return fmt.Sprintf("Summary{n: %d, end: %v, violations: %.2f%%, goodput: %.3f req/s/replica}",
		len(s.Outcomes), s.End, 100*s.ViolationRate(All), s.Goodput())
}

// JainFairness computes Jain's fairness index over the SLO-attainment rates
// of the given groups: 1.0 means every group meets its SLOs at the same
// rate; 1/n means one group absorbs all the service. Groups with no judged
// requests are skipped; fewer than two judged groups yields 1.
func (s *Summary) JainFairness(groups []Filter) float64 {
	var rates []float64
	for _, g := range groups {
		total := 0
		for _, o := range s.Outcomes {
			if !g(o) {
				continue
			}
			if o.Completed || o.Violated {
				total++
			}
		}
		if total == 0 {
			continue
		}
		rates = append(rates, 1-s.ViolationRate(g))
	}
	if len(rates) < 2 {
		return 1
	}
	var sum, sumSq float64
	for _, r := range rates {
		sum += r
		sumSq += r * r
	}
	if sumSq == 0 {
		return 1 // all groups fully violated: equally unfair is "fair"
	}
	return sum * sum / (float64(len(rates)) * sumSq)
}
