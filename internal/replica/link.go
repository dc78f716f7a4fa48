package replica

import (
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// Link is a replica's inbound KV interconnect, the one code that turns
// tokens of KV into interconnect time. Prefix imports queue on it;
// handoffs and routing read only Seconds, which reads only the two fields
// NewLink sets, so any goroutine may call it while the owner queues.
type Link struct {
	BytesPerToken float64 // the served model's KV footprint of one token
	Bandwidth     float64 // bytes per virtual second; 0 or less: no link

	// free is when the queued transfers finish. Each starts when it was
	// planned or when the link frees, whichever is later, and runs while
	// its request queues and the current batch executes.
	free sim.Time
}

// NewLink builds the interconnect of a replica serving cfg's model.
func NewLink(cfg model.Config, bandwidth float64) Link {
	return Link{BytesPerToken: cfg.Model.KVBytesPerToken(), Bandwidth: bandwidth}
}

// Seconds is the virtual time to move tokens of KV; zero without a link.
//
//qoserve:hotpath
func (l *Link) Seconds(tokens int) float64 {
	if tokens <= 0 || l.Bandwidth <= 0 {
		return 0
	}
	return float64(tokens) * l.BytesPerToken / l.Bandwidth
}

// Start queues a transfer of tokens planned at start and returns its
// duration.
func (l *Link) Start(tokens int, start sim.Time) sim.Time {
	d := sim.FromSeconds(l.Seconds(tokens))
	l.free = max(start, l.free) + d
	return d
}

// Stall is how long a batch starting at now waits for transfers in flight.
func (l *Link) Stall(now sim.Time) sim.Time { return max(l.free-now, 0) }

// MinImportTokens is the smallest import worth planning, four blocks;
// prefix routing chases matches of the same size.
const MinImportTokens = 4 * kvcache.DefaultBlockTokens

// ImportPlan is a planned cross-replica KV import: credit Tokens of the
// prefix by moving the missing blocks from replica From, a transfer that
// starts at At. The zero plan imports nothing.
type ImportPlan struct {
	From, Tokens int
	At           sim.Time
}

// PlanImport decides, when r is routed to this core at now, whether to
// import its prefix from whichever of the first tierN replicas holds the
// most of it (clipped to leave one prompt token to prefill) instead of
// recomputing. It imports only when at least MinImportTokens move and
// the link beats recomputing them as one prefill chunk, which is
// conservative toward recompute. It reads only immutable state and the
// lock-free global index, so submitters call it without the core's locks;
// the index may be stale, so the driver re-validates the source before
// Admit.
//
//qoserve:hotpath
func (c *Core) PlanImport(r *request.Request, tierN int, now sim.Time) ImportPlan {
	if c.link.Bandwidth <= 0 || c.index == nil || len(r.PrefixHashes) == 0 {
		return ImportPlan{}
	}
	holder, best := c.index.BestMatch(tierN, r.PrefixHashes)
	if holder < 0 || holder == c.slot {
		return ImportPlan{}
	}
	if best > r.PromptTokens-1 {
		best = r.PromptTokens - 1
	}
	local := c.index.MatchTokens(c.slot, r.PrefixHashes)
	moved := best - local
	if moved < MinImportTokens {
		return ImportPlan{}
	}
	chunk := [1]model.ChunkShape{{Tokens: moved, CtxStart: local}}
	recompute := c.cfg.BatchTime(model.BatchShape{Prefill: chunk[:]}).Seconds()
	if c.link.Seconds(moved) >= recompute {
		return ImportPlan{}
	}
	return ImportPlan{From: holder, Tokens: best, At: now}
}
