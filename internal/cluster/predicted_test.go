package cluster

import (
	"testing"

	"qoserve/internal/profile"
	"qoserve/internal/replica"
	"qoserve/internal/sim"
)

// scoreStub is a transparent FeaturePredictor: latency proportional to the
// work the features describe, so tests can arrange exact outcomes.
type scoreStub struct{}

func (scoreStub) PredictFeats(x [profile.FeatureCount]float64) sim.Time {
	us := 50 + x[profile.FeatChunkTokens] + 0.1*x[profile.FeatPrefillCtx] +
		20*x[profile.FeatNumDecodes] + 0.01*x[profile.FeatSumDecodeCtx]
	return sim.Time(us) * sim.Microsecond
}

func (s scoreStub) PredictSafeFeats(x [profile.FeatureCount]float64) sim.Time {
	return s.PredictFeats(x)
}

func snapsAt(snaps []replica.LoadSnapshot) func(int) replica.LoadSnapshot {
	return func(i int) replica.LoadSnapshot { return snaps[i] }
}

func loadsAt(loads []int) func(int) int {
	return func(i int) int { return loads[i] }
}

func TestPredictedLatencyPicksLowestPredictedLatency(t *testing.T) {
	b := &PredictedLatency{Predictor: scoreStub{}}
	snaps := []replica.LoadSnapshot{
		{QueuedRequests: 3, PendingPrefillTokens: 24576, ChunkBudgetTokens: 512}, // deep prefill backlog
		{ActiveDecodes: 2, SumDecodeCtx: 600, MaxDecodeCtx: 400},                 // light decode load
		{QueuedRequests: 1, PendingPrefillTokens: 16384, ChunkBudgetTokens: 512}, // same queue length, heavy tokens
	}
	// Queue lengths alone would favour replica 2 (load 1 vs 2); the token
	// backlog says replica 1 finishes the request sooner.
	idx := b.PickPredicted(3, loadsAt([]int{3, 2, 1}), snapsAt(snaps), 1024, 16)
	if idx != 1 {
		t.Fatalf("picked %d, want 1 (lowest predicted latency, not lowest load)", idx)
	}
}

func TestPredictedLatencyTieBreaksByLoadThenIndex(t *testing.T) {
	b := &PredictedLatency{Predictor: scoreStub{}}
	same := replica.LoadSnapshot{QueuedRequests: 1, PendingPrefillTokens: 2048, ChunkBudgetTokens: 256}
	snaps := []replica.LoadSnapshot{same, same, same}
	if idx := b.PickPredicted(3, loadsAt([]int{5, 2, 2}), snapsAt(snaps), 512, 8); idx != 1 {
		t.Fatalf("picked %d, want 1 (least loaded among score ties)", idx)
	}
	if idx := b.PickPredicted(3, loadsAt([]int{2, 2, 2}), snapsAt(snaps), 512, 8); idx != 0 {
		t.Fatalf("picked %d, want 0 (lowest index among full ties)", idx)
	}
}

func TestPredictedLatencyNilPredictorFallsBack(t *testing.T) {
	loads := []int{4, 1, 2}
	snaps := make([]replica.LoadSnapshot, 3)
	b := &PredictedLatency{}
	if idx := b.PickPredicted(3, loadsAt(loads), snapsAt(snaps), 512, 8); idx != 1 {
		t.Fatalf("picked %d, want 1 (LeastLoaded default fallback)", idx)
	}
	if idx := b.PickIndex(3, loadsAt(loads)); idx != 1 {
		t.Fatalf("PickIndex = %d, want 1", idx)
	}
	rr := &PredictedLatency{Fallback: &AtomicRoundRobin{}}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[rr.PickPredicted(3, loadsAt(loads), snapsAt(snaps), 512, 8)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin fallback hit %d of 3 targets", len(seen))
	}
}

// TestPredictedPickSteadyStateAllocFree is the zero-alloc guard for the
// scoring hot path: one gateway pick must not allocate, no matter how many
// replicas are scored (qoservevet hotpathalloc enforces the same contract
// statically via the //qoserve:hotpath annotations).
func TestPredictedPickSteadyStateAllocFree(t *testing.T) {
	b := &PredictedLatency{Predictor: scoreStub{}}
	snaps := []replica.LoadSnapshot{
		{QueuedRequests: 2, PendingPrefillTokens: 8192, ChunkBudgetTokens: 512},
		{ActiveDecodes: 6, SumDecodeCtx: 9000, MaxDecodeCtx: 2048},
		{QueuedRequests: 1, PendingPrefillTokens: 512, ActiveDecodes: 1, SumDecodeCtx: 700, MaxDecodeCtx: 700, ChunkBudgetTokens: 256},
		{},
	}
	loads := []int{3, 6, 2, 0}
	load, snap := loadsAt(loads), snapsAt(snaps)
	allocs := testing.AllocsPerRun(200, func() {
		if idx := b.PickPredicted(len(snaps), load, snap, 2048, 64); idx < 0 || idx >= len(snaps) {
			t.Fatalf("pick %d out of range", idx)
		}
	})
	if allocs != 0 {
		t.Fatalf("predicted pick allocates %v times per call, want 0", allocs)
	}
}
