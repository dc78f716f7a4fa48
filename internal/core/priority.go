// Hybrid prioritization (Section 3.4, Eqs. 4-5): the alpha interpolation
// between EDF and SRPF, load-adaptive alpha switching, and the selective-
// preemption boost for at-risk partially-prefilled requests.
package core

import (
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Adaptive-α constants. alphaLow is the paper's low-load factor, which
// protects tail latency; alphaSwitchBacklog, a deviation from PAPER §1, is
// the load signal when eager relegation is off and so no deadline
// projection runs.
const (
	alphaLow           = 1 * sim.Millisecond
	alphaSwitchBacklog = 10 * sim.Second
)

// alpha returns the effective interpolation factor.
//
//qoserve:hotpath
func (s *Scheduler) alpha() sim.Time {
	if !s.opts.HybridPriority {
		return 0
	}
	if s.opts.AdaptiveAlpha && !s.highAlpha {
		return alphaLow
	}
	return s.opts.Alpha
}

// priorityKey implements Eqs. 4-5 in seconds: arrival + SLO + alpha*work.
//
//qoserve:hotpath
func (s *Scheduler) priorityKey(r *request.Request) float64 {
	a := s.alpha().Seconds()
	switch r.Class.Kind {
	case qos.Interactive:
		return (r.Arrival + r.Class.SLO.TTFT).Seconds() + a*float64(r.RemainingPrefill())
	default:
		work := float64(r.RemainingPrefill() + r.EstDecodeTokens)
		return (r.Arrival + r.Class.SLO.TTLT).Seconds() + a*work
	}
}

// atRiskPartial finds the highest-priority partially-prefilled main-queue
// request that would miss its first-token deadline if it sat out one more
// iteration. Candidates come from the partials side set (maintained at
// every main-queue insert/remove) rather than a full queue walk; the
// minimum (key, ID) member is by construction the first match a priority-
// order scan would return, so selection order is unchanged.
//
//qoserve:hotpath
func (s *Scheduler) atRiskPartial(now sim.Time) *request.Request {
	var best *request.Request
	var bestKey float64
	for _, r := range s.partials {
		if r.PrefilledTokens == 0 {
			continue
		}
		finishIfDeferred := now + sim.FromSeconds(s.iterTime) + s.bestPrefillTime(r.RemainingPrefill())
		if finishIfDeferred > r.FirstTokenDeadline() &&
			now+s.bestPrefillTime(r.RemainingPrefill()) <= r.FirstTokenDeadline() {
			key, ok := s.mainQ.Key(r)
			if !ok {
				continue
			}
			if best == nil || key < bestKey || (key == bestKey && r.ID < best.ID) {
				best, bestKey = r, key
			}
		}
	}
	return best
}

// partialAdd records r as a partially-prefilled main-queue member.
//
//qoserve:hotpath
func (s *Scheduler) partialAdd(r *request.Request) {
	if r.PrefilledTokens > 0 {
		s.partials = append(s.partials, r)
	}
}

// partialRemove forgets r when it leaves the main queue (no-op when r was
// never partially prefilled). Order within the set is irrelevant —
// atRiskPartial selects by (key, ID) — so removal swaps with the tail.
//
//qoserve:hotpath
func (s *Scheduler) partialRemove(r *request.Request) {
	for i, p := range s.partials {
		if p == r {
			last := len(s.partials) - 1
			s.partials[i] = s.partials[last]
			s.partials[last] = nil
			s.partials = s.partials[:last]
			return
		}
	}
}

// updateAlphaRegime switches between low and high alpha and re-keys the
// queues when the regime changes. With eager relegation active, the signal
// is deadline pressure from the queue projection; otherwise it falls back
// to raw backlog exceeding alphaSwitchBacklog.
//
//qoserve:hotpath
func (s *Scheduler) updateAlphaRegime(now sim.Time) {
	if !s.opts.AdaptiveAlpha || !s.opts.HybridPriority {
		return
	}
	var high bool
	if s.opts.EagerRelegation {
		high = s.deadlinePressure
	} else {
		work := 0
		for _, r := range s.mainQ.Items() {
			work += r.RemainingPrefill()
		}
		backlog := sim.FromSeconds(float64(work) / s.prefillRate)
		high = backlog > alphaSwitchBacklog
	}
	if high == s.highAlpha {
		return
	}
	s.highAlpha = high
	//lint:ignore hotpathalloc alpha-regime flips are rare (hysteresis-gated) and re-keying necessarily rebuilds the queue; steady-state plans never reach this line.
	s.rekey(&s.mainQ)
	//lint:ignore hotpathalloc see above: regime flips are rare and rebuild by design.
	s.rekey(&s.relQ)
}

// rekey rebuilds a queue with fresh priority keys.
func (s *Scheduler) rekey(q *sched.Queue) {
	items := append([]*request.Request(nil), q.Items()...)
	for _, r := range items {
		q.Remove(r)
	}
	for _, r := range items {
		q.Insert(r, s.priorityKey(r))
	}
}
