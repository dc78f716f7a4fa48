package replica

import (
	"fmt"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Core is one replica's serving state machine — the chunked-prefill
// iteration loop the paper's scheduler sits in — shared by every engine in
// the repo. The simulator's Replica drives it from sim.Engine events, the
// live gateway from wall-clock sleeps, and both engines' disaggregated
// decode tiers run it over a decode-only scheduler. A driver owns the
// clock and repeats:
//
//	Admit / AdmitHandoff  each arrival, before planning
//	Plan                  ask the scheduler for a batch
//	Price                 cost-model time of the batch, plus reload debt and
//	                      the part of any KV import still in flight
//	Complete              token accounting and delivery, then OnBatchComplete
//	Release               free finished requests' KV, republish the index
//
// Core is not safe for concurrent use. Its scheduler is touched by Admit,
// AdmitHandoff, Plan and Complete; its KV cache by Admit, Release and
// Publish. The gateway runs the former under its scheduler lock and the
// latter under its cache lock.
type Core struct {
	cfg      model.Config
	sch      sched.Scheduler
	kv       *kvcache.Manager
	capacity int // HBM-tier tokens; fixed for the core's lifetime

	// debt is DRAM->HBM reload time owed by admissions since the last
	// priced batch. It serializes with that batch's execution: a reload is
	// discovered at admission, so nothing earlier overlaps it.
	debt sim.Time
	// linkFree is when the inbound interconnect finishes the cross-replica
	// KV imports already started. Imports serialize on it, each starting
	// when it was planned or when the link frees, whichever is later, and
	// run while the request queues and the current batch executes; the
	// next batch stalls only for the part still in flight.
	linkFree sim.Time

	index     *kvcache.GlobalIndex // nil: publish nowhere
	slot      int
	published uint64 // kv membership version last published

	kvBytesPerToken float64
	importBandwidth float64 // bytes per virtual second; 0 disables imports

	finished []uint64 // requests Complete saw finish, awaiting Release
	shape    model.BatchShape
}

// CoreOptions configures what only the gateway uses. The zero value
// publishes no prefix index and imports no KV.
type CoreOptions struct {
	// Index receives the core's prefix-cache membership in slot Slot.
	Index *kvcache.GlobalIndex
	Slot  int
	// ImportBandwidth prices prefix KV imported from a peer replica, in
	// bytes per second of virtual time.
	ImportBandwidth float64
}

// NewCore builds a core over a scheduler and a KV cache.
func NewCore(cfg model.Config, sch sched.Scheduler, kv *kvcache.Manager, opts CoreOptions) *Core {
	return &Core{
		cfg:             cfg,
		sch:             sch,
		kv:              kv,
		capacity:        kv.CapacityTokens(),
		index:           opts.Index,
		slot:            opts.Slot,
		published:       kv.IndexVersion(),
		kvBytesPerToken: cfg.Model.KVBytesPerToken(),
		importBandwidth: opts.ImportBandwidth,
	}
}

// Scheduler returns the core's scheduler.
func (c *Core) Scheduler() sched.Scheduler { return c.sch }

// KV returns the core's KV cache.
func (c *Core) KV() *kvcache.Manager { return c.kv }

// Capacity is the HBM tier's size in tokens.
func (c *Core) Capacity() int { return c.capacity }

// Fits reports whether a request whose final context is tokens long fits
// the HBM tier at all. Both engines refuse a request that does not: the
// simulator counts it rejected, the gateway answers 400.
func (c *Core) Fits(tokens int) bool { return tokens <= c.capacity }

// ImportSeconds prices moving tokens of prefix KV from a peer replica, in
// virtual seconds; zero when imports are disabled.
func (c *Core) ImportSeconds(tokens int) float64 {
	if tokens <= 0 || c.importBandwidth <= 0 {
		return 0
	}
	return float64(tokens) * c.kvBytesPerToken / c.importBandwidth
}

// Admission is what Admit credited to one request.
type Admission struct {
	// Hit is the prompt tokens credited as cached, imported ones included.
	Hit int
	// Imported is the part of Hit whose KV moved from a peer replica.
	Imported int
	// Reloaded is the part of the local hit promoted from the DRAM tier.
	Reloaded int
	// ImportTime is the interconnect time of Imported.
	ImportTime sim.Time
}

// Admit takes r into the core at now. A request that has not started
// prefill pins its cached prefix and is credited with it. When a live peer
// holds peer tokens of the prefix, more than the local hit, the missing
// blocks are imported instead of recomputed: the import was planned at
// start (at most now), and it occupies the inbound link from start or
// from the end of the imports before it, whichever is later. The model
// assumes the destination's blocks were free from start on. Reload time
// accrues as debt for the next priced batch. Then r joins the scheduler.
func (c *Core) Admit(r *request.Request, now sim.Time, peer int, start sim.Time) Admission {
	var a Admission
	if len(r.PrefixHashes) > 0 && r.PrefilledTokens == r.PrefixHitTokens {
		res := c.kv.AcquirePrefix(r.ID, r.PrefixHashes)
		a.Hit, a.Reloaded = res.HitTokens, res.ReloadTokens
		if peer > a.Hit && c.importBandwidth > 0 {
			a.Imported = peer - a.Hit
			a.Hit = peer
			a.ImportTime = sim.FromSeconds(c.ImportSeconds(a.Imported))
			c.linkFree = max(start, c.linkFree) + a.ImportTime
		}
		r.ApplyPrefixHit(a.Hit)
		if a.Reloaded > 0 {
			c.debt += sim.FromSeconds(c.kv.ReloadSeconds(a.Reloaded))
		}
	}
	c.sch.Add(r, now)
	return a
}

// AdmitHandoff takes in a request whose prompt was prefilled on another
// replica and whose KV has just arrived. Its whole prompt is credited at
// now, which stamps its first token and delivers it at once; the request
// joins the scheduler unless that token was its last. It pins no prefix.
func (c *Core) AdmitHandoff(r *request.Request, now sim.Time, d Delivery) {
	r.RecordPrefill(r.PromptTokens, now)
	done := r.Phase() == request.Done
	d.Token(r, now, done)
	if !done {
		c.sch.Add(r, now)
	}
}

// Plan asks the scheduler for the next batch.
func (c *Core) Plan(now sim.Time) sched.Batch { return c.sch.PlanBatch(now) }

// Price returns the cost-model execution time of a batch starting at now
// and, separately, the debt it must also pay: the reload time accrued
// since the last priced batch, which it clears, plus stall, the part of
// the imports admitted so far still in flight at now.
func (c *Core) Price(b sched.Batch, now sim.Time) (exec, debt, stall sim.Time) {
	b.ShapeInto(&c.shape)
	exec = c.cfg.BatchTime(c.shape)
	if exec <= 0 {
		panic(fmt.Sprintf("replica: non-positive batch time %v for %v", exec, b))
	}
	stall = max(c.linkFree-now, 0)
	debt, c.debt = c.debt+stall, 0
	return exec, debt, stall
}

// Delivery receives the tokens a core produces.
type Delivery interface {
	// Token reports that r emitted its newest token, number
	// r.DecodedTokens, at time at; done marks its last.
	Token(r *request.Request, at sim.Time, done bool)
}

// Complete accounts an executed batch at end: it records prefill chunks
// and decode tokens, delivers every emitted token, queues finished
// requests for Release, and tells the scheduler the batch is done.
//
//qoserve:hotpath
func (c *Core) Complete(b sched.Batch, end sim.Time, d Delivery) {
	for _, p := range b.Prefill {
		before := p.Req.DecodedTokens
		p.Req.RecordPrefill(p.Tokens, end)
		if p.Req.DecodedTokens > before {
			c.emit(p.Req, end, d)
		}
	}
	for _, r := range b.Decodes {
		r.RecordDecodeToken(end)
		c.emit(r, end, d)
	}
	c.sch.OnBatchComplete(b, end)
}

// emit delivers r's newest token and queues r for Release if it finished.
//
//qoserve:hotpath
func (c *Core) emit(r *request.Request, at sim.Time, d Delivery) {
	done := r.Phase() == request.Done
	if done {
		c.finished = append(c.finished, r.ID)
	}
	d.Token(r, at, done)
}

// Release frees the KV of every request Complete saw finish, then
// republishes the prefix index if membership changed.
func (c *Core) Release() {
	for _, id := range c.finished {
		c.kv.Release(id)
	}
	c.finished = c.finished[:0]
	c.Publish()
}

// Publish exports the cache's block membership into the global index,
// skipping the export when the cache's IndexVersion has not changed since
// the last one (warm steady state). The version also counts DRAM<->HBM
// tier moves; an export after only those shares the previous snapshot's
// shards and refreshes just the tier counts.
func (c *Core) Publish() {
	if c.index == nil {
		return
	}
	if v := c.kv.IndexVersion(); v != c.published {
		c.index.Publish(c.slot, c.kv.ExportIndex())
		c.published = v
	}
}

// restart swaps in a fresh scheduler and KV cache after a crash. Debt,
// imports in flight and queued releases died with the old cache; the next
// Publish exports the new, empty membership regardless of its version.
func (c *Core) restart(sch sched.Scheduler, kv *kvcache.Manager) {
	c.sch, c.kv = sch, kv
	c.debt, c.linkFree = 0, 0
	c.finished = c.finished[:0]
	c.published = ^uint64(0)
}
