package cluster

import (
	"qoserve/internal/predictor"
	"qoserve/internal/replica"
	"qoserve/internal/sim"
)

// SnapshotBalancer is the predicted-latency extension of GatewayBalancer:
// snap materializes target i's live queue state (replica.LoadSnapshot) so
// the balancer can score completion latency instead of merely comparing
// queue lengths. Gateways probe the snapshots from lock-free atomics;
// requests reach PickPredicted with their declared prompt/decode shape.
type SnapshotBalancer interface {
	GatewayBalancer
	// PickPredicted returns a target in [0, n) for a request of the given
	// shape, given each target's load and queue snapshot.
	PickPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, promptTokens, decodeTokens int) int
}

// PredictedLatency routes each request to the replica with the lowest
// forest-predicted completion latency — llm-d reports up to 3x better P90
// on long prefills from this over occupancy heuristics, because a queue
// of three 8K prompts and a queue of three 32-token prompts have the same
// length but very different futures. Scoring runs the trained batch-
// latency forest over each replica's LoadSnapshot (prefill backlog, chunk
// budget, decode batch statistics) via predictor.EstimateCompletion.
//
// Lowest predicted latency wins; load breaks score ties, then lowest
// index, keeping replayed runs deterministic. A nil Predictor degrades to
// the Fallback (LeastLoaded if nil), as does PickIndex for callers without
// snapshot access. Stateless apart from the fallback, so safe for
// concurrent pickers as long as the probes and the fallback are.
type PredictedLatency struct {
	// Predictor scores candidate (replica state, request shape) pairs;
	// usually the trained *predictor.Forest. Nil falls back to Fallback.
	Predictor predictor.FeaturePredictor
	// Fallback routes when no predictor is configured or the caller
	// cannot supply snapshots. Nil means LeastLoaded.
	Fallback GatewayBalancer
	// Transfer, when set and enabled, lets PickPrefixPredicted price
	// importing the cluster-best cached prefix over the interconnect
	// instead of recomputing it; nil scores local prefix credit only.
	Transfer *TransferModel
}

// PickIndex routes via the fallback balancer: without a snapshot there is
// nothing to score.
func (b *PredictedLatency) PickIndex(n int, load func(int) int) int {
	if b.Fallback != nil {
		return b.Fallback.PickIndex(n, load)
	}
	return LeastLoaded{}.PickIndex(n, load)
}

// PickPredicted returns the target with the lowest predicted completion
// latency for the request shape.
func (b *PredictedLatency) PickPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, promptTokens, decodeTokens int) int {
	if b.Predictor == nil {
		return b.PickIndex(n, load)
	}
	return b.pickScored(n, load, snap, promptTokens, decodeTokens)
}

// pickScored is the scoring loop, split out so the hot path is exactly the
// predictor-backed case (the nil-predictor fallback above routes through
// balancers outside the alloc-free contract).
//
//qoserve:hotpath
func (b *PredictedLatency) pickScored(n int, load func(int) int, snap func(int) replica.LoadSnapshot, promptTokens, decodeTokens int) int {
	best, bestLoad := 0, 0
	var bestScore sim.Time
	for i := 0; i < n; i++ {
		s := snap(i)
		score := predictor.EstimateCompletion(b.Predictor,
			s.PendingPrefillTokens, s.ActiveDecodes, s.SumDecodeCtx, s.MaxDecodeCtx,
			s.ChunkBudgetTokens, promptTokens, decodeTokens)
		switch {
		case i == 0:
			bestScore, bestLoad = score, load(i)
		case score < bestScore:
			best, bestScore, bestLoad = i, score, load(i)
		case score == bestScore:
			if l := load(i); l < bestLoad {
				best, bestLoad = i, l
			}
		}
	}
	return best
}
