// Package replica implements one serving replica: the iteration loop that
// asks a scheduler for a batch, prices it with the ground-truth cost model,
// advances the virtual clock, performs token accounting, and manages the
// paged KV cache (admission control and recompute-preemption under memory
// pressure).
package replica

import (
	"fmt"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Replica couples a scheduler with hardware. Create with New and feed it
// arrivals via Submit; it runs itself on the shared sim engine.
//
// A replica can fail and recover: Fail models a crash (all in-flight work
// and KV state is lost; the orphaned requests are returned to the caller
// for re-dispatch), Restart returns it to service with a fresh scheduler
// and an empty KV cache, and SetSlowFactor degrades its execution speed
// (a straggler GPU). The cluster layer drives these through fault
// injection and owns the re-enqueue policy.
type Replica struct {
	cfg    model.Config
	sch    sched.Scheduler
	kv     *kvcache.Manager
	kvCfg  *kvcache.Config // non-nil once ConfigureKV tiered the cache
	engine *sim.Engine

	busy bool
	down bool
	slow float64 // execution-time multiplier; 0 or 1 means nominal

	// pendingReload is DRAM->HBM transfer time owed by prefix promotions
	// (and cross-replica KV imports, see AddTransferDebt) since the last
	// iteration; charged onto the next batch's exec time.
	pendingReload sim.Time

	// idxPublished is the kv membership version last exported via
	// PublishIndex; ^0 forces a republish after Restart swaps the cache.
	idxPublished uint64

	// pending is the in-flight iteration-completion (or KV-retry) event,
	// cancelled on Fail so a dead replica never finishes work.
	pending sim.Handle

	// active holds accepted requests in submission order, so a crash can
	// orphan them deterministically. Finished requests are removed lazily:
	// activeDone counts Done entries still present, and the slice is
	// compacted only once they outweigh the live ones, so completion-heavy
	// phases pay amortized O(1) per finish instead of an O(active) rescan
	// every iteration. Readers (Fail) must skip Done entries.
	active     []*request.Request
	activeDone int

	// Iteration-scoped scratch: at most one iteration is in flight per
	// replica, so the completion/retry events and the shape buffer are
	// reused instead of allocated per iteration.
	done  iterDone
	retry kvRetry
	shape model.BatchShape

	// Stats.
	iterations   uint64
	tokens       uint64
	busyTime     sim.Time
	kvDeferred   uint64
	rejected     uint64
	crashes      uint64
	restarts     uint64
	prefixHit    uint64   // prompt tokens credited from the prefix cache
	reloadTime   sim.Time // total DRAM->HBM transfer time charged
	transferTime sim.Time // total cross-replica KV transfer time charged
	served       []*request.Request
}

// New builds a replica. The KV cache is sized from the model/hardware
// configuration.
func New(engine *sim.Engine, cfg model.Config, sch sched.Scheduler) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kv, err := kvcache.NewManager(cfg.KVCapacityTokens(), kvcache.DefaultBlockTokens)
	if err != nil {
		return nil, err
	}
	// idxPublished starts at the sentinel so a first PublishIndex always
	// exports, even though the fresh cache sits at membership version 0.
	return &Replica{cfg: cfg, sch: sch, kv: kv, engine: engine, idxPublished: ^uint64(0)}, nil
}

// Scheduler returns the replica's scheduler.
func (r *Replica) Scheduler() sched.Scheduler { return r.sch }

// ConfigureKV replaces the replica's KV manager with a tiered prefix cache
// built from cfg. Zero CapacityTokens keeps the hardware-derived size. The
// configuration is sticky: Restart rebuilds the cache with the same tiers.
// It must be called before any request is submitted.
func (r *Replica) ConfigureKV(cfg kvcache.Config) error {
	if len(r.served) > 0 {
		return fmt.Errorf("replica: ConfigureKV after requests were submitted")
	}
	if cfg.CapacityTokens == 0 {
		cfg.CapacityTokens = r.cfg.KVCapacityTokens()
	}
	kv, err := kvcache.NewTiered(cfg)
	if err != nil {
		return err
	}
	r.kv, r.kvCfg = kv, &cfg
	return nil
}

// Submit hands a request to the replica at the current virtual time.
// A request whose final context cannot fit the KV cache at all is
// unserveable on this replica: it is rejected immediately (counted, and
// left unserved so metrics report it as a violation) rather than letting
// its admission retry forever.
func (r *Replica) Submit(req *request.Request) {
	if r.down {
		panic(fmt.Sprintf("replica: submit request %d to down replica", req.ID))
	}
	now := r.engine.Now()
	r.served = append(r.served, req)
	if req.TotalTokens() > r.kv.CapacityTokens() {
		r.rejected++
		return
	}
	r.active = append(r.active, req)
	if len(req.PrefixHashes) > 0 && req.PrefilledTokens == req.PrefixHitTokens {
		// Pin the shared prefix before the scheduler sees the request:
		// matched blocks skip prefill (the chunk planners just observe
		// less remaining work), and DRAM-resident matches owe transfer
		// time, charged onto the next iteration this replica runs.
		res := r.kv.AcquirePrefix(req.ID, req.PrefixHashes)
		req.ApplyPrefixHit(res.HitTokens)
		r.prefixHit += uint64(res.HitTokens)
		if res.ReloadTokens > 0 {
			reload := sim.FromSeconds(r.kv.ReloadSeconds(res.ReloadTokens))
			r.pendingReload += reload
			r.reloadTime += reload
		}
	}
	r.sch.Add(req, now)
	if !r.busy {
		r.startIteration(now)
	}
}

// Rejected counts requests refused at submit because their full context
// exceeds the replica's KV capacity.
func (r *Replica) Rejected() uint64 { return r.rejected }

// Served returns every request this replica has accepted.
func (r *Replica) Served() []*request.Request { return r.served }

// Iterations is the number of executed batches.
func (r *Replica) Iterations() uint64 { return r.iterations }

// TokensProcessed is the total new tokens executed.
func (r *Replica) TokensProcessed() uint64 { return r.tokens }

// Utilization is the fraction of virtual time the replica spent executing.
func (r *Replica) Utilization() float64 {
	if now := r.engine.Now(); now > 0 {
		return r.busyTime.Seconds() / now.Seconds()
	}
	return 0
}

// KVDeferrals counts prefill admissions deferred by KV pressure.
func (r *Replica) KVDeferrals() uint64 { return r.kvDeferred }

// PrefixHitTokens is the total prompt tokens this replica served from its
// prefix cache instead of prefilling. Unlike the manager's counter it
// survives Restart (which rebuilds the cache).
func (r *Replica) PrefixHitTokens() uint64 { return r.prefixHit }

// ReloadTime is the total DRAM->HBM transfer time charged for warm-prefix
// promotions.
func (r *Replica) ReloadTime() sim.Time { return r.reloadTime }

// KV exposes the cache manager for inspection.
func (r *Replica) KV() *kvcache.Manager { return r.kv }

// Healthy reports whether the replica is up and serving.
func (r *Replica) Healthy() bool { return !r.down }

// Crashes counts Fail calls; Restarts counts successful Restart calls.
func (r *Replica) Crashes() uint64  { return r.crashes }
func (r *Replica) Restarts() uint64 { return r.restarts }

// SlowFactor is the current execution-time multiplier (1 when nominal).
func (r *Replica) SlowFactor() float64 {
	if r.slow <= 0 {
		return 1
	}
	return r.slow
}

// SetSlowFactor degrades (factor > 1) or restores (factor <= 1) the
// replica's execution speed; subsequent iterations take factor times the
// cost model's batch time. This models a straggler GPU — thermal
// throttling, a noisy neighbour, a failing link — without taking the
// replica out of service.
func (r *Replica) SetSlowFactor(factor float64) {
	if factor <= 1 {
		r.slow = 1
		return
	}
	r.slow = factor
}

// Fail crashes the replica: the in-flight iteration (if any) is cancelled,
// every KV allocation is dropped, and the accepted-but-unfinished requests
// are returned — in submission order — with their execution state intact so
// the caller can account lost progress before re-dispatching them. The
// replica refuses new work until Restart. Returning the orphans hands the
// tracking obligation back to the caller, which must recover or fail each
// one.
//
//qoserve:outcome handoff
func (r *Replica) Fail() []*request.Request {
	if r.down {
		return nil
	}
	r.down = true
	r.crashes++
	r.busy = false
	if r.pending.Valid() {
		r.engine.Cancel(r.pending)
		r.pending = sim.Handle{}
	}
	orphans := r.active
	r.active = nil
	if r.activeDone > 0 {
		// Drop lazily-retained finished entries; live orphans keep their
		// submission order.
		kept := orphans[:0]
		for _, req := range orphans {
			if req.Phase() != request.Done {
				kept = append(kept, req)
			}
		}
		orphans = kept
		r.activeDone = 0
	}
	for _, req := range orphans {
		r.kv.Release(req.ID)
	}
	return orphans
}

// Restart returns a failed replica to service with a fresh scheduler and an
// empty KV cache. Cumulative statistics (iterations, tokens, busy time)
// survive the restart; in-flight state does not, by construction — Fail
// already orphaned it.
func (r *Replica) Restart(sch sched.Scheduler) error {
	if !r.down {
		return fmt.Errorf("replica: restart while still up")
	}
	if sch == nil {
		return fmt.Errorf("replica: restart with nil scheduler")
	}
	kvCfg := kvcache.Config{CapacityTokens: r.cfg.KVCapacityTokens()}
	if r.kvCfg != nil {
		kvCfg = *r.kvCfg
	}
	kv, err := kvcache.NewTiered(kvCfg)
	if err != nil {
		return err
	}
	r.sch, r.kv = sch, kv
	r.down = false
	r.pendingReload = 0
	// The fresh cache starts at version 0 like the old one did; force the
	// next PublishIndex to export the (now empty) membership regardless.
	r.idxPublished = ^uint64(0)
	r.restarts++
	return nil
}

// AddTransferDebt charges modeled interconnect time for KV blocks
// imported from a peer replica. Like DRAM reload debt it serializes with
// the next iteration's execution — the conservative (non-overlapped)
// transfer model.
func (r *Replica) AddTransferDebt(d sim.Time) {
	if d <= 0 {
		return
	}
	r.pendingReload += d
	r.transferTime += d
}

// TransferTime is the total cross-replica KV transfer time charged so far.
func (r *Replica) TransferTime() sim.Time { return r.transferTime }

// PublishIndex exports the replica's prefix-cache block membership into
// slot of the global index, skipping the export entirely when membership
// has not changed since the last publish (warm steady state).
func (r *Replica) PublishIndex(g *kvcache.GlobalIndex, slot int) {
	if v := r.kv.IndexVersion(); v != r.idxPublished {
		g.Publish(slot, r.kv.ExportIndex())
		r.idxPublished = v
	}
}

// startIteration plans and launches one batch; the replica idles if the
// scheduler has nothing to run.
func (r *Replica) startIteration(now sim.Time) {
	if r.down {
		return
	}
	batch := r.sch.PlanBatch(now)
	planned := !batch.Empty()
	batch = r.admit(batch)
	if batch.Empty() {
		if planned {
			// KV admission deferred everything; retry shortly rather
			// than stalling until the next arrival.
			r.busy = true
			r.retry.r = r
			r.pending = r.engine.After(10*sim.Millisecond, &r.retry)
			return
		}
		r.busy = false
		return
	}
	r.busy = true
	batch.ShapeInto(&r.shape)
	execTime := r.cfg.BatchTime(r.shape)
	if execTime <= 0 {
		panic(fmt.Sprintf("replica: non-positive batch time %v for %v", execTime, batch))
	}
	if r.slow > 1 {
		execTime = sim.Time(float64(execTime) * r.slow)
	}
	if r.pendingReload > 0 {
		// Warm prefixes promoted from DRAM since the last iteration pay
		// their transfer here, serializing with compute — the conservative
		// (non-overlapped) model.
		execTime += r.pendingReload
		r.pendingReload = 0
	}
	r.done = iterDone{r: r, batch: batch, started: now}
	r.pending = r.engine.At(now+execTime, &r.done)
}

// iterDone is the reusable iteration-completion event; exactly one is in
// flight per replica, cancelled on Fail before any reuse.
type iterDone struct {
	r       *Replica
	batch   sched.Batch
	started sim.Time
}

// Fire completes the iteration at its scheduled end time.
func (e *iterDone) Fire(_ *sim.Engine, end sim.Time) {
	e.r.completeIteration(e.batch, e.started, end)
}

// kvRetry is the reusable KV-admission retry event.
type kvRetry struct{ r *Replica }

// Fire re-attempts planning after a full KV deferral.
func (e *kvRetry) Fire(_ *sim.Engine, t sim.Time) { e.r.startIteration(t) }

// admit enforces KV capacity. A request's full final context (prompt plus
// every decode token) is reserved when its first chunk is admitted, so
// decode-phase requests can never be starved of cache mid-flight — memory
// pressure instead manifests as deferred prefill admissions, which the
// scheduler experiences as queue backlog, mirroring vLLM's watermark
// admission.
func (r *Replica) admit(b sched.Batch) sched.Batch {
	// Decode growth is covered by the reservation made at admission; a
	// failure here means the reservation invariant was broken.
	for _, d := range b.Decodes {
		if !r.kv.Grow(d.ID, d.ContextLen()+1) {
			panic(fmt.Sprintf("replica: request %d decode outgrew its KV reservation", d.ID))
		}
	}
	// Admit prefill chunks: the first chunk reserves the full final
	// context. Admission is strictly in batch (priority) order: once a
	// new request's reservation fails, no new request behind it is
	// admitted this iteration — otherwise small requests would slip past
	// a large one indefinitely and starve it of cache. Requests that
	// already hold a reservation (partials) always proceed.
	kept := b.Prefill[:0]
	blocked := false
	for _, p := range b.Prefill {
		// A request is "new" until its first real prefill chunk runs; a
		// prefix-cache credit alone (PrefilledTokens == PrefixHitTokens)
		// does not let it jump the blocked-ordering queue.
		isNew := p.Req.PrefilledTokens == p.Req.PrefixHitTokens
		if blocked && isNew {
			r.kvDeferred++
			continue
		}
		if r.kv.Grow(p.Req.ID, p.Req.TotalTokens()) {
			kept = append(kept, p)
		} else {
			r.kvDeferred++
			blocked = true
		}
	}
	b.Prefill = kept
	return b
}

// completeIteration performs token accounting and schedules the next batch.
func (r *Replica) completeIteration(b sched.Batch, started, now sim.Time) {
	r.pending = sim.Handle{}
	r.iterations++
	r.tokens += uint64(b.NewTokens())
	r.busyTime += now - started

	for _, p := range b.Prefill {
		p.Req.RecordPrefill(p.Tokens, now)
	}
	for _, d := range b.Decodes {
		d.RecordDecodeToken(now)
	}
	// Release the KV of everything that finished.
	for _, p := range b.Prefill {
		if p.Req.Phase() == request.Done {
			r.kv.Release(p.Req.ID)
			r.activeDone++
		}
	}
	for _, d := range b.Decodes {
		if d.Phase() == request.Done {
			r.kv.Release(d.ID)
			r.activeDone++
		}
	}
	// Compact lazily: a full rescan per finish is O(active) on every
	// iteration of a deep backlog, so defer it until Done entries
	// outweigh live ones (amortized O(1) per finished request).
	if r.activeDone*2 >= len(r.active) && r.activeDone > 0 {
		kept := r.active[:0]
		for _, req := range r.active {
			if req.Phase() != request.Done {
				kept = append(kept, req)
			}
		}
		clear(r.active[len(kept):])
		r.active = kept
		r.activeDone = 0
	}
	r.sch.OnBatchComplete(b, now)
	r.startIteration(now)
}

// Kick restarts the iteration loop if the replica is idle but the scheduler
// has pending work (used after out-of-band state changes, e.g. in tests).
func (r *Replica) Kick() {
	if !r.down && !r.busy && r.sch.Pending() > 0 {
		r.startIteration(r.engine.Now())
	}
}
