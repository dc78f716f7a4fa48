// Eager relegation (Section 3.4): self-calibrating service-rate estimates,
// deadline projections, the WILL_VIOLATE check of Algorithm 1, and the
// queue-wide protection pass that relegates free-tier requests first.
package core

import (
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// updateBestRate refreshes the dedicated-service prefill rate under the
// current decode load. Relies on decodeFeats being refreshed by PlanBatch.
//
//qoserve:hotpath
func (s *Scheduler) updateBestRate() {
	var t float64
	if fp, ok := s.pred.(predictor.FeaturePredictor); ok {
		x := s.decodeFeats
		x[profile.FeatChunkTokens] = float64(s.opts.MaxChunk)
		t = fp.PredictSafeFeats(x).Seconds()
	} else {
		shape := model.BatchShape{
			//lint:ignore hotpathalloc shape fallback for predictors without a feature path (the Oracle ablation); the production Forest always takes the allocation-free branch above.
			Prefill:   []model.ChunkShape{{Tokens: s.opts.MaxChunk}},
			DecodeCtx: s.decodeCtxs(),
		}
		t = s.pred.PredictSafe(shape).Seconds()
	}
	if t > 0 {
		s.bestRate = float64(s.opts.MaxChunk) / t
	}
}

// prefillTime estimates the time to process n prompt tokens at the
// sustained queue-wide rate.
//
//qoserve:hotpath
func (s *Scheduler) prefillTime(n int) sim.Time {
	return sim.FromSeconds(float64(n) / s.prefillRate)
}

// bestPrefillTime estimates the time to process n prompt tokens with the
// replica dedicated to the request.
//
//qoserve:hotpath
func (s *Scheduler) bestPrefillTime(n int) sim.Time {
	return sim.FromSeconds(float64(n) / s.bestRate)
}

// projectedFinish estimates when r would deliver its first token (and, for
// non-interactive requests, complete) if its prefill started at t.
//
//qoserve:hotpath
func (s *Scheduler) projectedFinish(r *request.Request, t sim.Time) (firstToken, completion sim.Time) {
	firstToken = t + s.prefillTime(r.RemainingPrefill())
	decodeIters := r.EstDecodeTokens - 1
	if decodeIters < 0 {
		decodeIters = 0
	}
	completion = firstToken + sim.FromSeconds(float64(decodeIters)*s.iterTime)
	return firstToken, completion
}

// willViolateAlone is WILL_VIOLATE from Algorithm 1: even starting right
// now with the replica to itself (best-case dedicated rate), the request
// cannot meet its deadline. Using the best-case rate keeps long-but-savable
// requests out of the relegated queue — backlog-induced risk is handled
// separately by the protection pass.
//
//qoserve:hotpath
func (s *Scheduler) willViolateAlone(r *request.Request, now sim.Time) bool {
	first := now + s.bestPrefillTime(r.RemainingPrefill())
	if r.Class.Kind == qos.Interactive {
		return first > r.FirstTokenDeadline()
	}
	decodeIters := r.EstDecodeTokens - 1
	if decodeIters < 0 {
		decodeIters = 0
	}
	completion := first + sim.FromSeconds(float64(decodeIters)*s.iterTime)
	return completion > r.Arrival+r.Class.SLO.TTLT
}

// relegate moves r from the main queue to the relegated queue, logging the
// decision (with the policy's reason) to an attached tracer.
//
//qoserve:hotpath
func (s *Scheduler) relegate(r *request.Request, now sim.Time, reason string) {
	if r.Relegated {
		return
	}
	s.mainQ.Remove(r)
	s.partialRemove(r)
	r.Relegated = true
	s.relegations++
	s.relQ.Insert(r, s.priorityKey(r))
	s.TraceEvent(trace.Event{At: now, Kind: trace.Relegation, Req: r.ID, Class: r.Class.Name, Reason: reason})
}

// relegationInterval throttles the queue-wide relegation projection. The
// throttle is a deviation from PAPER §1 that bounds planning cost: one pass
// walks the main queue once per victim it relegates.
const relegationInterval = 500 * sim.Millisecond

// relegationPass is the queue-wide projection (throttled): walk the main
// queue in priority order, accumulate backlog, and find requests that will
// miss deadlines given the traffic ahead of them. Low-priority requests are
// relegated first to protect important traffic; high-priority requests are
// relegated only when doomed even in isolation (Section 3.4).
//
//qoserve:hotpath
func (s *Scheduler) relegationPass(now sim.Time) {
	if now-s.lastRelegationPass < relegationInterval {
		return
	}
	s.lastRelegationPass = now
	s.relegationPasses++

	// Greedily relegate the largest low-priority request ahead of a
	// violating high-priority one until the projection clears. Each round
	// is one fused walk (scanQueue); the final, victim-free round also
	// yields the doomed set and violator count the separate walks of the
	// three-pass formulation would have produced, since the queue is
	// untouched between a victim-free walk and those passes.
	var doomed []*request.Request
	violators := 0
	for iter := 0; iter < s.mainQ.Len()+1; iter++ {
		victim, d, v := s.scanQueue(now)
		if victim == nil {
			doomed, violators = d, v
			break
		}
		s.relegate(victim, now, "protects high-priority backlog")
	}

	// Relegate requests that cannot make their deadline even alone.
	for _, r := range doomed {
		s.relegate(r, now, "doomed even at dedicated rate")
	}

	// Refresh the load signal for adaptive alpha, with hysteresis: a
	// single transiently-late request at light load must not flip the
	// system into SRPF-flavoured ordering (with alpha = 8 ms/token a
	// 14K-token prompt is penalized by ~2 minutes of queue priority — a
	// self-fulfilling starvation if triggered spuriously). High alpha
	// engages only when several requests, and a meaningful share of the
	// queue, are projected to miss; it releases when the projection is
	// clean. Relegating doomed requests changes the cumulative drain
	// projection, so the count is only reusable from a walk of the final
	// queue state.
	if len(doomed) > 0 {
		violators = s.countProjectedViolators(now)
		clear(doomed)
	}
	switch {
	case violators >= 2 && violators*20 >= s.mainQ.Len():
		s.deadlinePressure = true
	case violators == 0:
		s.deadlinePressure = false
	}
}

// countProjectedViolators walks the main queue in priority order at the
// sustained rate and counts requests projected to miss their deadline.
//
//qoserve:hotpath
func (s *Scheduler) countProjectedViolators(now sim.Time) int {
	t := now
	n := 0
	for _, r := range s.mainQ.Items() {
		first, completion := s.projectedFinish(r, t)
		if r.Class.Kind == qos.Interactive {
			if first > r.FirstTokenDeadline() {
				n++
			}
		} else if completion > r.Arrival+r.Class.SLO.TTLT {
			n++
		}
		t = first
	}
	return n
}

// scanQueue simulates queue drain in priority order — one fused walk doing
// the work of the former findProtectionVictim / willViolateAlone /
// countProjectedViolators passes. If a high-priority request is projected to
// violate because of backlog, it returns the largest low-priority request
// queued ahead of it immediately (doomed and violators are then meaningless
// and zero, exactly as the dedicated victim walk would have early-exited).
// When the projection produces no victim, the queue is untouched, so the
// doomed set and violator count gathered along the way equal what separate
// walks would compute. doomed aliases a scheduler-owned scratch buffer valid
// until the next scanQueue call.
//
//qoserve:hotpath
func (s *Scheduler) scanQueue(now sim.Time) (victim *request.Request, doomed []*request.Request, violators int) {
	t := now
	var biggestLow *request.Request
	biggestLowRem := 0
	doomed = s.doomedScratch[:0]
	for _, r := range s.mainQ.Items() {
		// Each request's fields are loaded once and shared between the
		// cumulative projection and the dedicated-rate (willViolateAlone)
		// check — the arithmetic is the same expressions the standalone
		// helpers evaluate, so results are bit-identical.
		rem := r.RemainingPrefill()
		first := t + s.prefillTime(rem)
		decodeIters := r.EstDecodeTokens - 1
		if decodeIters < 0 {
			decodeIters = 0
		}
		decodeTime := sim.FromSeconds(float64(decodeIters) * s.iterTime)
		interactive := r.Class.Kind == qos.Interactive
		var deadline sim.Time
		if interactive {
			deadline = r.FirstTokenDeadline()
		} else {
			deadline = r.Arrival + r.Class.SLO.TTLT
		}
		violates := false
		if interactive {
			violates = first > deadline
		} else {
			violates = first+decodeTime > deadline
		}
		if violates && r.Priority == qos.High && biggestLow != nil {
			return biggestLow, nil, 0
		}
		if r.Priority == qos.Low {
			if biggestLow == nil || rem > biggestLowRem {
				biggestLow, biggestLowRem = r, rem
			}
		}
		if violates {
			violators++
		}
		aloneFirst := now + s.bestPrefillTime(rem)
		if interactive {
			if aloneFirst > deadline {
				doomed = append(doomed, r)
			}
		} else if aloneFirst+decodeTime > deadline {
			doomed = append(doomed, r)
		}
		t = first // prefill service is serialized; decode piggybacks
	}
	s.doomedScratch = doomed
	return nil, doomed, violators
}
