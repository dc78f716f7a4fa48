// Dynamic chunking (Section 3.3 / Algorithm 1's GET_PREFILL_BUDGET): the
// per-iteration latency budget derived from decode slack, its inversion to
// a prefill token budget via the latency predictor, the TTFT-rush escape,
// and the post-assembly batch trim.
package core

import (
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// decodeCtxs lists the context length of each in-flight decode, reusing the
// plan-scoped scratch buffer (valid until the next PlanBatch).
//
//qoserve:hotpath
func (s *Scheduler) decodeCtxs() []int {
	ctx := s.ctxScratch[:0]
	for _, r := range s.decodes {
		ctx = append(ctx, r.ContextLen())
	}
	s.ctxScratch = ctx
	return ctx
}

// Dynamic-chunking constants. minChunk is the paper's; the other three
// deviate from PAPER §1 (DESIGN.md lists them with the tests that pin them).
const (
	// minChunk guarantees prefill progress when slack is exhausted.
	minChunk = 32
	// slackSafety is the share of measured decode slack the dynamic chunk
	// may spend. The predictor's margin covers its average error; this
	// shaves the tail where an outlier prediction would let a
	// slack-stretched iteration land a token past its Eq. 2 deadline.
	slackSafety = 0.9
	// latePacing floors the budget of a decode with no TBT target (a
	// non-interactive one) that is already past its deadline: it bounds
	// how far a late batch may be stretched further.
	latePacing = 100 * sim.Millisecond
	// ttftRush replaces the TBT floor as the iteration budget when the
	// front queued interactive request is projected to miss its first-token
	// deadline at the achieved prefill rate. A TTFT miss is a hard
	// request-level violation while a bounded spell of slower token pacing
	// is soft drift, so the scheduler briefly trades the latter for the
	// former.
	ttftRush = 200 * sim.Millisecond
)

// iterationBudget computes the latency budget for the next iteration
// (GET_MIN_SLACK feeding GET_PREFILL_BUDGET in Algorithm 1). Each in-flight
// decode contributes max(slackSafety * slack_i, TBT_i): a decode ahead of
// its Eq. 2 schedule donates its slack, while one that has fallen behind is
// paced at its own TBT rather than starving prefill forever (non-interactive
// decodes, which have no TBT, floor at latePacing). The batch budget is the
// minimum over decodes; with no decodes the budget is unbounded and the
// chunk cap applies.
//
//qoserve:hotpath
func (s *Scheduler) iterationBudget(now sim.Time) (budget sim.Time, floorBound bool) {
	budget = sim.Forever
	for _, r := range s.decodes {
		slack := r.NextTokenDeadline() - now
		if slack > 0 {
			slack = sim.Time(float64(slack) * slackSafety)
		}
		floor := r.Class.SLO.TBT
		if floor == 0 {
			floor = latePacing
		}
		bound := slack < floor
		if bound {
			slack = floor
		}
		if slack < budget {
			budget, floorBound = slack, bound
		}
	}
	return budget, floorBound
}

// prefillBudget is GET_PREFILL_BUDGET: the dynamic chunk size C. It also
// selects the predictor used to verify the plan: the margined predictor
// when the budget is genuine deadline slack, the raw one when the budget is
// merely a TBT pacing floor (the affected tokens are late either way, and
// conservatism there only starves prefill).
//
//qoserve:hotpath
func (s *Scheduler) prefillBudget(now sim.Time, frontCtx int) (int, sim.Time) {
	s.planPred = s.pred
	if !s.opts.DynamicChunking {
		c := sched.DefaultChunk - len(s.decodes)
		if c < 0 {
			c = 0
		}
		return c, 0
	}
	budget, floorBound := s.iterationBudget(now)
	if floorBound {
		s.planPred = s.rawPred
		if boost := s.ttftRushBudget(now); boost > budget {
			budget = boost
		}
	}
	var c int
	if fp, ok := s.planPred.(predictor.FeaturePredictor); ok {
		// Feature fast path: the decode-side vector was cached at the top of
		// PlanBatch, so the whole budget inversion runs allocation-free.
		c = predictor.ChunkBudgetFeats(fp, s.decodeFeats, frontCtx, budget, s.opts.MaxChunk)
	} else {
		c = predictor.ChunkBudget(s.planPred, s.decodeCtxs(), frontCtx, budget, s.opts.MaxChunk)
	}
	if c < minChunk {
		c = minChunk
	}
	return c, budget
}

// ttftRushBudget returns the boosted iteration budget when the front
// main-queue interactive request would miss its TTFT at the achieved
// prefill rate, and zero otherwise.
//
//qoserve:hotpath
func (s *Scheduler) ttftRushBudget(now sim.Time) sim.Time {
	f := s.mainQ.Front()
	if f == nil || f.Class.Kind != qos.Interactive {
		return 0
	}
	projected := now + s.prefillTime(f.RemainingPrefill()) + sim.FromSeconds(s.iterTime)
	if projected > f.FirstTokenDeadline() {
		return ttftRush
	}
	return 0
}

// trimToBudget verifies the assembled batch against the latency budget and
// shrinks prefill allocations from the back until it fits. The token budget
// C was priced assuming the front request's context; a packed
// partially-prefilled request with a deeper context can make the true batch
// costlier, and without this check a slack-stretched iteration could land
// decode tokens past their deadlines. A one-token floor on the first
// allocation guarantees forward progress.
//
//qoserve:hotpath
func (s *Scheduler) trimToBudget(b *sched.Batch, budget sim.Time) {
	for len(b.Prefill) > 0 {
		if s.planCost(b) <= budget {
			return
		}
		last := len(b.Prefill) - 1
		alloc := &b.Prefill[last]
		// Binary-search the largest size of the last allocation that fits.
		lo, hi := 0, alloc.Tokens // lo fits or is zero; hi doesn't
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			alloc.Tokens = mid
			if s.planCost(b) <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			alloc.Tokens = lo
			return
		}
		if last == 0 {
			// Even a minimal chunk exceeds budget (e.g. the decode side
			// alone is already over); keep minChunk for progress.
			alloc.Tokens = min(minChunk, alloc.Req.RemainingPrefill())
			return
		}
		b.Prefill = b.Prefill[:last]
	}
}
