package disagg

import (
	"testing"

	"qoserve/internal/request"
	"qoserve/internal/sched"
)

// TestDecodeSchedulerContract pins the decode tier's batching contract,
// which the simulated decode nodes and the gateway's decode tier share:
// a batch is the oldest cap unfinished requests in admission order,
// finished requests leave the queue, and Pending counts exactly the
// requests still queued.
func TestDecodeSchedulerContract(t *testing.T) {
	// Each step optionally admits requests (by decode length; IDs follow
	// admission order), then plans and completes one batch.
	type step struct {
		admit   []int    // decode tokens still owed by each new arrival
		batch   []uint64 // IDs the step must plan, in order
		pending int      // Pending after the batch completes
	}
	cases := []struct {
		name  string
		cap   int
		steps []step
	}{
		{"empty plans nothing", 4, []step{{batch: nil, pending: 0}}},
		{"under cap batches all", 4, []step{
			{admit: []int{3, 3}, batch: []uint64{1, 2}, pending: 2},
		}},
		{"cap takes the oldest", 2, []step{
			{admit: []int{5, 5, 5}, batch: []uint64{1, 2}, pending: 3},
			{batch: []uint64{1, 2}, pending: 3},
		}},
		{"finished leave, waiters move up in order", 2, []step{
			{admit: []int{1, 3, 3, 3}, batch: []uint64{1, 2}, pending: 3},
			{batch: []uint64{2, 3}, pending: 3},
			{admit: []int{1}, batch: []uint64{2, 3}, pending: 3},
			{batch: []uint64{3, 4}, pending: 2},
			{batch: []uint64{4, 5}, pending: 1},
			{batch: []uint64{4}, pending: 0},
			{batch: nil, pending: 0},
		}},
		{"late arrival queues behind earlier", 3, []step{
			{admit: []int{2}, batch: []uint64{1}, pending: 1},
			{admit: []int{2, 2}, batch: []uint64{1, 2, 3}, pending: 2},
			{batch: []uint64{2, 3}, pending: 0},
		}},
		{"zero cap still serves one", 0, []step{
			{admit: []int{1, 1}, batch: []uint64{1}, pending: 1},
			{batch: []uint64{2}, pending: 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewDecodeScheduler(tc.cap)
			var next uint64
			for i, st := range tc.steps {
				for _, owed := range st.admit {
					next++
					// Prefilled with one token out, as a handoff arrives.
					s.Add(&request.Request{ID: next, PromptTokens: 16, PrefilledTokens: 16,
						DecodedTokens: 1, DecodeTokens: 1 + owed}, 0)
				}
				b := s.PlanBatch(0)
				var got []uint64
				for _, r := range b.Decodes {
					got = append(got, r.ID)
				}
				if len(b.Prefill) != 0 || !equalIDs(got, st.batch) {
					t.Fatalf("step %d: batch %v (+%d prefills), want %v", i, got, len(b.Prefill), st.batch)
				}
				for _, r := range b.Decodes {
					r.RecordDecodeToken(0)
				}
				s.OnBatchComplete(b, 0)
				if s.Pending() != st.pending {
					t.Fatalf("step %d: Pending %d, want %d", i, s.Pending(), st.pending)
				}
				if _, _, d := s.QueueLen(); d != st.pending {
					t.Fatalf("step %d: QueueLen decode %d, want %d", i, d, st.pending)
				}
				if n, _, _ := s.Load(); n != st.pending {
					t.Fatalf("step %d: Load counts %d, want %d", i, n, st.pending)
				}
			}
		})
	}
	var _ sched.QueueReporter = NewDecodeScheduler(1)
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
