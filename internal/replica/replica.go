// Package replica implements one serving replica. Core is the iteration
// state machine every engine in the repo shares: admit arrivals (crediting
// cached prefixes), plan a batch, price it with the ground-truth cost
// model, account its tokens, and free finished requests' KV. Replica
// drives a Core on the simulator's virtual clock and adds what only the
// simulation models: KV-reservation admission under memory pressure,
// capacity rejects, stragglers, and crash/restart.
package replica

import (
	"fmt"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Replica is the simulator's driver of a Core: it runs the iteration loop
// on sim.Engine events. Create with New and feed it arrivals via Submit.
// On top of the core it models what only the simulation has: KV
// reservation admission with a 10 ms retry, capacity rejects, a slow
// factor, and crash/restart.
//
// A replica can fail and recover: Fail models a crash (all in-flight work
// and KV state is lost; the orphaned requests are returned to the caller
// for re-dispatch), Restart returns it to service with a fresh scheduler
// and an empty KV cache, and SetSlowFactor degrades its execution speed
// (a straggler GPU). The cluster layer drives these through fault
// injection and owns the re-enqueue policy.
type Replica struct {
	core   *Core
	engine *sim.Engine

	busy bool
	down bool
	slow float64 // execution-time multiplier; 0 or 1 means nominal

	// pending is the in-flight iteration-completion (or KV-retry) event,
	// cancelled on Fail so a dead replica never finishes work.
	pending sim.Handle

	active activeSet

	// Iteration-scoped scratch: at most one iteration is in flight per
	// replica, so the completion/retry events are reused instead of
	// allocated per iteration.
	done  iterDone
	retry kvRetry

	// Stats.
	iterations uint64
	kvDeferred uint64
	rejected   uint64
	prefixHit  uint64 // prompt tokens credited from the prefix cache
	submitted  uint64
}

// activeSet holds a replica's accepted requests in submission order, so a
// crash can orphan them deterministically. It is the simulator's Delivery:
// finished requests are only counted there and removed lazily — the slice
// is compacted once they outweigh the live ones, so completion-heavy
// phases pay amortized O(1) per finish instead of an O(active) rescan
// every iteration. Readers must skip Done entries.
type activeSet struct {
	reqs []*request.Request
	done int
}

// Token counts finished requests for lazy compaction.
//
//qoserve:hotpath
func (a *activeSet) Token(_ *request.Request, _ sim.Time, done bool) {
	if done {
		a.done++
	}
}

// compact drops finished requests once they outweigh live ones (or
// unconditionally when force is set), keeping submission order.
func (a *activeSet) compact(force bool) {
	if a.done == 0 || (!force && a.done*2 < len(a.reqs)) {
		return
	}
	kept := a.reqs[:0]
	for _, req := range a.reqs {
		if req.Phase() != request.Done {
			kept = append(kept, req)
		}
	}
	clear(a.reqs[len(kept):])
	a.reqs = kept
	a.done = 0
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
	return &Replica{core: NewCore(cfg, sch, kv, CoreOptions{}), engine: engine}, nil
}

// Scheduler returns the replica's scheduler.
func (r *Replica) Scheduler() sched.Scheduler { return r.core.sch }

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
	r.submitted++
	if !r.core.Fits(req.TotalTokens()) {
		r.rejected++
		return
	}
	r.active.reqs = append(r.active.reqs, req)
	r.prefixHit += uint64(r.core.Admit(req, now, 0, now).Hit)
	if !r.busy {
		r.startIteration(now)
	}
}

// Rejected counts requests refused at submit because their full context
// exceeds the replica's KV capacity.
func (r *Replica) Rejected() uint64 { return r.rejected }

// Submitted counts the requests handed to this replica, rejected ones
// included, over its lifetime.
func (r *Replica) Submitted() uint64 { return r.submitted }

// Iterations is the number of executed batches.
func (r *Replica) Iterations() uint64 { return r.iterations }

// KVDeferrals counts prefill admissions deferred by KV pressure.
func (r *Replica) KVDeferrals() uint64 { return r.kvDeferred }

// PrefixHitTokens is the total prompt tokens this replica served from its
// prefix cache instead of prefilling. Unlike the manager's counter it
// survives Restart (which rebuilds the cache).
func (r *Replica) PrefixHitTokens() uint64 { return r.prefixHit }

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
	r.busy = false
	if r.pending.Valid() {
		r.engine.Cancel(r.pending)
		r.pending = sim.Handle{}
	}
	// Drop lazily-retained finished entries; live orphans keep their
	// submission order.
	r.active.compact(true)
	orphans := r.active.reqs
	r.active.reqs = nil
	for _, req := range orphans {
		r.core.kv.Release(req.ID)
	}
	return orphans
}

// Restart returns a failed replica to service with a fresh scheduler and an
// empty KV cache. Cumulative statistics survive the restart; in-flight
// state does not, by construction — Fail already orphaned it.
func (r *Replica) Restart(sch sched.Scheduler) error {
	if !r.down {
		return fmt.Errorf("replica: restart while still up")
	}
	if sch == nil {
		return fmt.Errorf("replica: restart with nil scheduler")
	}
	kv, err := kvcache.NewManager(r.core.cfg.KVCapacityTokens(), kvcache.DefaultBlockTokens)
	if err != nil {
		return err
	}
	r.core.restart(sch, kv)
	r.down = false
	return nil
}

// startIteration plans and launches one batch; the replica idles if the
// scheduler has nothing to run.
func (r *Replica) startIteration(now sim.Time) {
	if r.down {
		return
	}
	batch := r.core.Plan(now)
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
	execTime, debt, _ := r.core.Price(batch, now)
	if r.slow > 1 {
		execTime = sim.Time(float64(execTime) * r.slow)
	}
	r.done = iterDone{r: r, batch: batch}
	r.pending = r.engine.At(now+execTime+debt, &r.done)
}

// iterDone is the reusable iteration-completion event; exactly one is in
// flight per replica, cancelled on Fail before any reuse.
type iterDone struct {
	r     *Replica
	batch sched.Batch
}

// Fire completes the iteration at its scheduled end time.
func (e *iterDone) Fire(_ *sim.Engine, end sim.Time) {
	e.r.completeIteration(e.batch, end)
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
	kv := r.core.kv
	// Decode growth is covered by the reservation made at admission; a
	// failure here means the reservation invariant was broken.
	for _, d := range b.Decodes {
		if !kv.Grow(d.ID, d.ContextLen()+1) {
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
		if kv.Grow(p.Req.ID, p.Req.TotalTokens()) {
			kept = append(kept, p)
		} else {
			r.kvDeferred++
			blocked = true
		}
	}
	b.Prefill = kept
	return b
}

// completeIteration accounts the batch through the core, frees finished
// requests' KV, and schedules the next batch.
func (r *Replica) completeIteration(b sched.Batch, now sim.Time) {
	r.pending = sim.Handle{}
	r.iterations++
	r.core.Complete(b, now, &r.active)
	r.core.Release()
	r.active.compact(false)
	r.startIteration(now)
}
