package cluster

import (
	"qoserve/internal/predictor"
	"qoserve/internal/replica"
	"qoserve/internal/sim"
)

// TransferModel prices cross-replica KV migration for prefix-aware
// routing over a replica.Link of BytesPerToken and BandwidthBps. The
// balancer charges the link time against the prefill time the migration
// saves, so slow links naturally fall back to recompute.
type TransferModel struct {
	// BytesPerToken is the KV footprint of one token for the served model
	// (model.Config.KVBytesPerToken()).
	BytesPerToken float64
	// BandwidthBps is the replica-to-replica interconnect in bytes/s.
	// Zero or negative disables migration scoring.
	BandwidthBps float64
	// MinTokens is the smallest import worth the coordination overhead;
	// zero means DefaultMinMatchTokens, matching the affinity threshold.
	MinTokens int
}

// Enabled reports whether the model can price a migration at all.
//
//qoserve:hotpath
func (t TransferModel) Enabled() bool { return t.BandwidthBps > 0 && t.BytesPerToken > 0 }

// minTokens is the effective import floor.
//
//qoserve:hotpath
func (t TransferModel) minTokens() int {
	if t.MinTokens > 0 {
		return t.MinTokens
	}
	return DefaultMinMatchTokens
}

// Seconds prices moving tokens of cached KV across the interconnect.
//
//qoserve:hotpath
func (t TransferModel) Seconds(tokens int) float64 {
	l := replica.Link{BytesPerToken: t.BytesPerToken, Bandwidth: t.BandwidthBps}
	return l.Seconds(tokens)
}

// PrefixSnapshotBalancer combines prefix awareness with predicted-latency
// scoring: match reports target i's cached coverage of the request's chain
// (a lock-free global-index probe on the live gateway), and the balancer
// weighs cached-anywhere prefixes — importable via KV transfer — against
// every target's queue state.
type PrefixSnapshotBalancer interface {
	SnapshotBalancer
	// PickPrefixPredicted returns a target in [0, n) for a request of the
	// given shape whose cached prefix on target i is match(i) tokens.
	PickPrefixPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, match func(int) int, promptTokens, decodeTokens int) int
}

// PickPrefixPredicted scores each target twice: serving the request with
// only its locally cached prefix, and (when a Transfer model is
// configured) importing the cluster-best prefix from whichever replica
// holds it, paying modeled interconnect time instead of recompute. Each
// target is priced at the cheaper of the two, so the pick naturally lands
// where cached context plus queue state — not either alone — minimizes
// predicted completion. Ties break on load, then lowest index. A nil
// Predictor falls back to plain prefix affinity over the same match probe
// (predicted scoring needs the forest, but cached-prefix routing does
// not).
func (b *PredictedLatency) PickPrefixPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, match func(int) int, promptTokens, decodeTokens int) int {
	if b.Predictor == nil {
		aff := PrefixAffinity{Fallback: b.Fallback}
		return aff.PickPrefix(n, load, match)
	}
	return b.pickScoredPrefix(n, load, snap, match, promptTokens, decodeTokens)
}

// pickScoredPrefix is the scoring loop, split out (like pickScored) so the
// hot path is exactly the predictor-backed case.
//
//qoserve:hotpath
func (b *PredictedLatency) pickScoredPrefix(n int, load func(int) int, snap func(int) replica.LoadSnapshot, match func(int) int, promptTokens, decodeTokens int) int {
	bestHit := 0
	for i := 0; i < n; i++ {
		if m := match(i); m > bestHit {
			bestHit = m
		}
	}
	canImport := b.Transfer != nil && b.Transfer.Enabled()
	best, bestLoad := 0, 0
	var bestScore sim.Time
	for i := 0; i < n; i++ {
		s := snap(i)
		local := match(i)
		score := predictor.EstimateCompletionPrefix(b.Predictor,
			s.PendingPrefillTokens, s.ActiveDecodes, s.SumDecodeCtx, s.MaxDecodeCtx,
			s.ChunkBudgetTokens, promptTokens, decodeTokens, local, 0)
		if canImport && bestHit-local >= b.Transfer.minTokens() {
			imported := predictor.EstimateCompletionPrefix(b.Predictor,
				s.PendingPrefillTokens, s.ActiveDecodes, s.SumDecodeCtx, s.MaxDecodeCtx,
				s.ChunkBudgetTokens, promptTokens, decodeTokens, bestHit,
				sim.FromSeconds(b.Transfer.Seconds(bestHit-local)))
			if imported < score {
				score = imported
			}
		}
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
