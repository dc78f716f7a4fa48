package replica

// LoadSnapshot is one replica's queue state at a routing decision: the
// inputs a latency-predicting balancer needs to score "what would this
// replica's next iterations look like with one more request on it". It is
// deliberately small and flat — the gateway materializes one per replica
// per pick from lock-free atomics, so the struct must stay cheap to copy
// and free of pointers. Snapshots never leave the process that took them.
//
// The fields mirror the predictor's feature space (profile.Features): the
// prefill side is summarized by the backlog of unprefilled prompt tokens
// and the chunk budget the replica last planned, the decode side by the
// count/sum/max of in-flight decode contexts.
type LoadSnapshot struct {
	// QueuedRequests counts admitted requests whose prompt is not yet
	// fully prefilled (phases Queued and Prefill).
	QueuedRequests int
	// PendingPrefillTokens is the total prompt tokens those requests have
	// left to prefill — the backlog an arriving prompt queues behind.
	PendingPrefillTokens int
	// ActiveDecodes counts requests in the Decode phase.
	ActiveDecodes int
	// SumDecodeCtx / MaxDecodeCtx summarize the decode-phase context
	// lengths (the batch statistics of Algorithm 1).
	SumDecodeCtx int
	MaxDecodeCtx int
	// ChunkBudgetTokens is the prefill chunk of the replica's most recent
	// batch that contained any prefill — the granularity at which its
	// scheduler is currently feeding prompts through. Zero means the
	// replica has not planned a prefill yet.
	ChunkBudgetTokens int
}
