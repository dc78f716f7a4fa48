// Package core implements the paper's contribution: the QoServe scheduler.
//
// QoServe co-schedules requests of multiple QoS classes on one replica using
// three techniques (Section 3):
//
//   - Dynamic chunking: each iteration's prefill token budget is the largest
//     chunk whose predicted latency fits the minimum deadline slack of the
//     in-flight decodes, so relaxed tiers' slack buys prefill throughput.
//   - Hybrid prioritization: prefill order follows
//     P = arrival + SLO + alpha * (remaining work), interpolating EDF
//     (alpha=0) and SRPF (alpha->inf) — Equations 4 and 5.
//   - Eager relegation: requests that have violated, or are projected to
//     violate, their TTFT/TTLT deadline move to a relegated queue served
//     only with spare budget; low-priority (free-tier) requests are
//     relegated first to protect important traffic (Section 3.4).
//
// Selective preemption falls out of the queue discipline: only prefill-phase
// requests can be displaced by higher-priority arrivals, never decodes, and
// a partially-prefilled request at risk of missing its deadline is boosted
// rather than displaced.
package core

import (
	"qoserve/internal/estimate"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// Options configures the QoServe scheduler: the paper's α and chunk cap,
// and one switch per technique for the Table 5 ablation. Start from
// DefaultOptions. The scheduler's other numbers are constants next to the
// code that reads them (DESIGN.md lists them).
type Options struct {
	// Alpha is the hybrid-prioritization interpolation factor, expressed
	// as time per remaining token (Eqs. 4-5). The paper's offline sweep
	// found 8 ms/token best for fixed-QPS runs.
	Alpha sim.Time
	// AdaptiveAlpha uses 1 ms/token instead of Alpha until the system is
	// loaded. With eager relegation the load signal is projected deadline
	// pressure from the queue-wide pass; without it, a prefill backlog
	// above 10 s.
	AdaptiveAlpha bool

	// MaxChunk caps the dynamic chunk size; the paper uses 2500, where
	// Figure 4's throughput curve saturates. Zero means 2500.
	MaxChunk int

	// Feature flags for the Table 5 ablation. Without DynamicChunking the
	// prefill budget is Sarathi's fixed sched.DefaultChunk.
	DynamicChunking bool
	EagerRelegation bool
	HybridPriority  bool // false forces alpha = 0, i.e. pure EDF ordering
	// SelectivePreemption boosts an in-flight prefill that would miss its
	// deadline if displaced by higher-priority arrivals.
	SelectivePreemption bool
}

// defaultMaxChunk is the paper's chunk cap, also applied by New to a zero
// MaxChunk.
const defaultMaxChunk = 2500

// DefaultOptions returns the paper's deployment configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:               8 * sim.Millisecond,
		AdaptiveAlpha:       true,
		MaxChunk:            defaultMaxChunk,
		DynamicChunking:     true,
		EagerRelegation:     true,
		HybridPriority:      true,
		SelectivePreemption: true,
	}
}

// Scheduler is the QoServe scheduler. It implements sched.Scheduler.
type Scheduler struct {
	opts Options
	pred predictor.SafePredictor
	// rawPred drops the safety margin; used in the TBT-floor regime,
	// where the budget is a pacing target rather than a deadline and
	// conservatism only wastes throughput.
	rawPred  predictor.SafePredictor
	planPred predictor.SafePredictor // predictor used for the current plan
	est      *estimate.Tracker

	mainQ   sched.Queue // non-relegated prefill-phase requests
	relQ    sched.Queue // relegated prefill-phase requests
	decodes []*request.Request

	pending int

	// Self-calibrating execution estimates, updated from observed
	// iterations (the scheduler never reads the ground-truth cost model).
	prefillRate float64 // sustained prefill tokens/s (EWMA, queue-wide)
	// bestRate is the prefill rate a single request would enjoy with the
	// replica to itself at max chunk, given the current decode load;
	// recomputed each plan. Doom checks use it so that only genuinely
	// unsalvageable requests are relegated.
	bestRate     float64
	iterTime     float64 // seconds per iteration (EWMA)
	lastPlanAt   sim.Time
	planOutstand bool

	lastRelegationPass sim.Time
	highAlpha          bool
	// deadlinePressure is set when the latest queue projection found
	// requests that will miss deadlines given the backlog — the
	// load-adaptive alpha signal (raw backlog seconds are a poor proxy:
	// a deep queue of relaxed-deadline work is not overload).
	deadlinePressure bool

	// Plan-scoped scratch state. The Scheduler contract guarantees at
	// most one outstanding batch, so these are safely reused across
	// PlanBatch calls instead of being allocated per iteration.
	//
	// decodeFeats caches the decode side of the predictor feature vector,
	// which is fixed across every predictor probe of one plan (budget
	// inversion, best-rate refresh, batch trim) — it is recomputed once
	// per PlanBatch from the decode set.
	decodeFeats [profile.FeatureCount]float64
	// prefill backs the planned batch's Prefill slice.
	prefill []sched.PrefillAlloc
	// ctxScratch backs decodeCtxs for predictors without a feature path.
	ctxScratch []int
	// shape is the batch-shape scratch for shape-based predictors.
	shape model.BatchShape
	// doomedScratch backs the doomed set gathered by scanQueue.
	doomedScratch []*request.Request
	// partials tracks the (few) partially-prefilled main-queue requests so
	// the selective-preemption check avoids a full queue walk per plan.
	// Invariant: exactly the main-queue members with PrefilledTokens > 0.
	partials []*request.Request

	// Stats observable by experiments.
	relegations      int
	chunkLog         []ChunkRecord
	logChunks        bool
	chunkLogged      bool // a record for the outstanding plan was retained
	relegationPasses int
	// Running chunk statistics covering every iteration, including those
	// past the chunkLog retention cap.
	chunkIters, chunkSum, chunkAtMax int

	// Live iteration tracing (sched.Traceable); disabled by default.
	sched.TraceState
}

// ChunkRecord captures one iteration's dynamic-chunking decision (Fig. 9).
type ChunkRecord struct {
	At       sim.Time
	Chunk    int
	Decodes  int
	Budget   sim.Time
	ExecTime sim.Time // filled at completion
}

var _ sched.Scheduler = (*Scheduler)(nil)

// New returns a QoServe scheduler using the given latency predictor.
func New(pred predictor.SafePredictor, opts Options) *Scheduler {
	s := &Scheduler{
		opts:    opts,
		pred:    pred,
		rawPred: predictor.NoMargin(pred),
		est:     estimate.NewTracker(),
	}
	s.planPred = s.pred
	if s.opts.MaxChunk <= 0 {
		s.opts.MaxChunk = defaultMaxChunk
	}
	// Seed the rate estimates from the predictor: a lone max-size chunk.
	t := pred.PredictSafe(model.BatchShape{
		Prefill: []model.ChunkShape{{Tokens: s.opts.MaxChunk}},
	}).Seconds()
	if t > 0 {
		s.prefillRate = float64(s.opts.MaxChunk) / t
	} else {
		s.prefillRate = 1
	}
	s.bestRate = s.prefillRate
	s.iterTime = 0.05
	return s
}

// Name identifies the scheduler in experiment output.
func (s *Scheduler) Name() string { return "QoServe" }

// maxChunkLog bounds the chunk-decision log: recording stops after this
// many iterations so a paper-duration (-scale 1) run cannot grow memory
// without bound, while the running aggregates (ChunkStats) keep covering
// every iteration. 1<<16 records (~2.6 MB) is more than an order of
// magnitude beyond what Figure 9's mid-run window needs.
const maxChunkLog = 1 << 16

// EnableChunkLog records per-iteration chunk decisions for Figure 9. Only
// the first maxChunkLog iterations are retained; ChunkStats aggregates are
// unaffected by the cap.
func (s *Scheduler) EnableChunkLog() { s.logChunks = true }

// ChunkLog returns the recorded chunk decisions (at most maxChunkLog).
func (s *Scheduler) ChunkLog() []ChunkRecord { return s.chunkLog }

// ChunkStats reports aggregate dynamic-chunking behaviour across every
// iteration since EnableChunkLog: iterations that scheduled prefill work,
// their total prefill tokens, and how many hit the MaxChunk cap. Unlike
// ChunkLog it is exact even past the retention cap.
func (s *Scheduler) ChunkStats() (iters, tokenSum, atMax int) {
	return s.chunkIters, s.chunkSum, s.chunkAtMax
}

// Relegations is the count of relegation events so far.
func (s *Scheduler) Relegations() int { return s.relegations }

// RelegationPasses is the count of queue-wide relegation projections run.
func (s *Scheduler) RelegationPasses() int { return s.relegationPasses }

// Add enqueues a new arrival. A pre-set EstDecodeTokens is respected
// (oracle-estimate ablations); otherwise the per-app history supplies the
// mean+2-sigma estimate.
func (s *Scheduler) Add(r *request.Request, now sim.Time) {
	if r.EstDecodeTokens == 0 {
		r.EstDecodeTokens = s.est.Estimate(r.App)
	}
	s.pending++
	s.mainQ.Insert(r, s.priorityKey(r))
	s.partialAdd(r) // resubmitted orphans may arrive mid-prefill
	s.TraceAdmission(r.ID, r.Class.Name, now)
}

// Pending is the number of unfinished requests.
func (s *Scheduler) Pending() int { return s.pending }

// QueueLen reports (main, relegated, decode) queue sizes.
func (s *Scheduler) QueueLen() (main, relegated, decode int) {
	return s.mainQ.Len(), s.relQ.Len(), len(s.decodes)
}

// PlanBatch builds the next iteration (Algorithm 1's CREATE_BATCH).
//
//qoserve:hotpath
func (s *Scheduler) PlanBatch(now sim.Time) sched.Batch {
	s.lastPlanAt = now
	s.planOutstand = true
	s.refreshDecodeFeats()
	s.updateBestRate()
	s.updateAlphaRegime(now)
	if s.opts.EagerRelegation {
		s.relegationPass(now)
	}

	b := sched.Batch{Decodes: s.decodes, Prefill: s.prefill[:0]}
	frontCtx := 0
	if f := s.mainQ.Front(); f != nil {
		frontCtx = f.PrefilledTokens
	}
	budgetTokens, budgetTime := s.prefillBudget(now, frontCtx)
	if s.mainQ.Len() == 0 && s.relQ.Len() == 0 {
		budgetTokens = 0 // decode-only batch
	}

	spare := s.fillFrom(&s.mainQ, &b, budgetTokens, now, true)
	// Spare budget serves relegated requests opportunistically.
	s.fillFrom(&s.relQ, &b, spare, now, false)

	if s.opts.DynamicChunking && budgetTime > 0 {
		s.trimToBudget(&b, budgetTime)
	}
	s.prefill = b.Prefill[:0]

	if s.logChunks {
		s.recordChunk(&b, now, budgetTime)
	}
	if s.Tracing() {
		//lint:ignore hotpathalloc record assembly (Name, Shape, extra predictor probe) runs only when a tracer is attached; the untraced hot path pays a single branch (TestPlanBatchSteadyStateAllocFree covers it).
		s.TracePlan(s.Name(), b, now, s.planPred.PredictSafe(b.Shape()), s.mainQ.Len(), s.relQ.Len())
	}
	return b
}

// refreshDecodeFeats recomputes the decode-side feature cache. Decode
// membership only changes in OnBatchComplete, so one refresh per plan keeps
// the cache valid for every probe of the plan.
//
//qoserve:hotpath
func (s *Scheduler) refreshDecodeFeats() {
	var x [profile.FeatureCount]float64
	x[profile.FeatNumDecodes] = float64(len(s.decodes))
	for _, r := range s.decodes {
		c := float64(r.ContextLen())
		x[profile.FeatSumDecodeCtx] += c
		if c > x[profile.FeatMaxDecodeCtx] {
			x[profile.FeatMaxDecodeCtx] = c
		}
	}
	s.decodeFeats = x
}

// batchFeats extends the cached decode features with the batch's prefill
// side, matching profile.Features(b.Shape()) without materializing a shape.
//
//qoserve:hotpath
func (s *Scheduler) batchFeats(b *sched.Batch) [profile.FeatureCount]float64 {
	x := s.decodeFeats
	for _, p := range b.Prefill {
		x[profile.FeatChunkTokens] += float64(p.Tokens)
		if c := float64(p.Req.PrefilledTokens); c > x[profile.FeatPrefillCtx] {
			x[profile.FeatPrefillCtx] = c
		}
	}
	return x
}

// planCost prices the assembled batch with the plan predictor, using the
// allocation-free feature path when available.
//
//qoserve:hotpath
func (s *Scheduler) planCost(b *sched.Batch) sim.Time {
	if fp, ok := s.planPred.(predictor.FeaturePredictor); ok {
		return fp.PredictSafeFeats(s.batchFeats(b))
	}
	b.ShapeInto(&s.shape)
	return s.planPred.PredictSafe(s.shape)
}

// recordChunk logs one iteration's chunk decision (bounded) and updates the
// exact running aggregates.
//
//qoserve:hotpath
func (s *Scheduler) recordChunk(b *sched.Batch, now sim.Time, budgetTime sim.Time) {
	chunk := b.PrefillTokens()
	if chunk > 0 {
		s.chunkIters++
		s.chunkSum += chunk
		if chunk >= s.opts.MaxChunk {
			s.chunkAtMax++
		}
	}
	s.chunkLogged = len(s.chunkLog) < maxChunkLog
	if s.chunkLogged {
		s.chunkLog = append(s.chunkLog, ChunkRecord{
			At:      now,
			Chunk:   chunk,
			Decodes: len(b.Decodes),
			Budget:  budgetTime,
		})
	}
}

// fillFrom packs prefill chunks from q into b, in priority order, applying
// the per-pop violation check (Algorithm 1 lines 12-15) when checkViolation
// is set. It returns the unused budget.
//
//qoserve:hotpath
func (s *Scheduler) fillFrom(q *sched.Queue, b *sched.Batch, budget int, now sim.Time, checkViolation bool) int {
	if budget <= 0 {
		return budget
	}
	// Selective preemption: an in-flight (partially prefilled) request
	// that would miss its deadline if displaced this iteration is served
	// first regardless of queue order.
	var boosted *request.Request
	if checkViolation && s.opts.SelectivePreemption {
		boosted = s.atRiskPartial(now)
	}

	var relegate []*request.Request
	take := func(r *request.Request) {
		n := r.RemainingPrefill()
		if n > budget {
			n = budget
		}
		if n <= 0 {
			return
		}
		b.Prefill = append(b.Prefill, sched.PrefillAlloc{Req: r, Tokens: n})
		budget -= n
	}

	if boosted != nil {
		s.TraceEvent(trace.Event{At: now, Kind: trace.Boost, Req: boosted.ID,
			Class: boosted.Class.Name, Reason: "in-flight prefill would miss deadline if displaced"})
		take(boosted)
	}
	for i := 0; i < q.Len() && budget > 0; i++ {
		r := q.At(i)
		if r == boosted {
			continue
		}
		if checkViolation && s.opts.EagerRelegation && s.willViolateAlone(r, now) {
			relegate = append(relegate, r)
			continue
		}
		take(r)
	}
	for _, r := range relegate {
		s.relegate(r, now, "will miss deadline even at dedicated rate")
	}
	return budget
}

// OnBatchComplete performs queue bookkeeping after the replica has
// accounted the iteration, and updates the self-calibrating rate estimates.
func (s *Scheduler) OnBatchComplete(b sched.Batch, now sim.Time) {
	s.TraceComplete(now)
	if s.planOutstand {
		dur := (now - s.lastPlanAt).Seconds()
		if dur > 0 {
			const w = 0.1
			s.iterTime = (1-w)*s.iterTime + w*dur
			if pt := b.PrefillTokens(); pt > 0 {
				rate := float64(pt) / dur
				s.prefillRate = (1-w)*s.prefillRate + w*rate
			}
		}
		s.planOutstand = false
		if s.chunkLogged {
			s.chunkLog[len(s.chunkLog)-1].ExecTime = now - s.lastPlanAt
			s.chunkLogged = false
		}
	}

	for _, p := range b.Prefill {
		q := &s.mainQ
		if p.Req.Relegated {
			q = &s.relQ
		}
		q.Remove(p.Req)
		if q == &s.mainQ {
			s.partialRemove(p.Req)
		}
		switch p.Req.Phase() {
		case request.Queued, request.Prefill:
			q.Insert(p.Req, s.priorityKey(p.Req))
			if q == &s.mainQ {
				s.partialAdd(p.Req)
			}
		case request.Decode:
			s.decodes = append(s.decodes, p.Req)
		case request.Done:
			s.finish(p.Req)
		}
	}
	live := s.decodes[:0]
	for _, r := range s.decodes {
		if r.Phase() == request.Done {
			s.finish(r)
		} else {
			live = append(live, r)
		}
	}
	s.decodes = live
}

func (s *Scheduler) finish(r *request.Request) {
	s.est.Observe(r.App, r.DecodeTokens)
	s.pending--
}
