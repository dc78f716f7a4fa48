package server

import (
	"fmt"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/metrics"
	"qoserve/internal/replica"
	"qoserve/internal/request"
)

// Disaggregated serving (Config.Mode "disagg"): the gateway splits its
// replicas into a prefill tier and a decode tier, the paper's temporal
// silo broken spatially instead. Each submission is cloned into a
// single-output-token prefill request that runs under the configured
// scheduler on the prefill tier — keeping the scheduler's chunked,
// preemptible prefill granularity, so a tight-deadline prompt can still
// overtake a long one mid-prefill — while the original request is
// assigned a fixed decode-tier home. When the clone finishes, its KV
// pages "transfer" across the interconnect (a virtual-time delay sized by
// the model's KV bytes per token and Config.TransferBandwidth) and the
// original joins its home, which runs the same serving loop over a
// disagg.DecodeScheduler: FCFS batches capped so iteration time stays
// under the strictest TBT.
//
// Fault contract (no silent drops): a prefill-tier replica may be crashed
// with Server.Crash. Every request it held — queued in its inbox, admitted
// into its scheduler, or with a KV transfer in flight from it — is either
// re-prefilled on a healthy prefill replica (bounded retries, lost
// progress counted) or permanently failed with a reason, which delivers a
// final Done event and marks the request an SLO violation. A request is
// never lost.

// maxHandoffRetries bounds re-prefill attempts after prefill-tier crashes.
const maxHandoffRetries = 3

// roleOf names replica i's tier for /debug/load and /metrics.
func (s *Server) roleOf(i int) string {
	switch {
	case s.prefillReps == 0:
		return "colocated"
	case i < s.prefillReps:
		return "prefill"
	default:
		return "decode"
	}
}

// loadSnapshot materializes the lock-free queue gauges as a
// replica.LoadSnapshot for balancer scoring and GET /debug/load. The
// gauge writers are not mutually synchronized, so values are clamped
// non-negative rather than trusted to satisfy Validate.
//
//qoserve:hotpath
func (rp *gatewayReplica) loadSnapshot() replica.LoadSnapshot {
	return replica.LoadSnapshot{
		QueuedRequests:       clampSnap(rp.snapQueued.Load()),
		PendingPrefillTokens: clampSnap(rp.snapPrefill.Load()),
		ActiveDecodes:        clampSnap(rp.snapDecodes.Load()),
		SumDecodeCtx:         clampSnap(rp.snapSumCtx.Load()),
		MaxDecodeCtx:         clampSnap(rp.snapMaxCtx.Load()),
		ChunkBudgetTokens:    clampSnap(rp.snapChunk.Load()),
	}
}

//qoserve:hotpath
func clampSnap(v int64) int {
	if v < 0 {
		return 0
	}
	return int(v)
}

// prefillClone builds the single-token prefill-tier twin of orig. Arrival
// and Class carry over so the prefill scheduler sees the true deadlines.
func (s *Server) prefillClone(orig *request.Request) *request.Request {
	return &request.Request{
		ID:              s.nextID.Add(1),
		App:             orig.App,
		Class:           orig.Class,
		Priority:        orig.Priority,
		Arrival:         orig.Arrival,
		PromptTokens:    orig.PromptTokens,
		DecodeTokens:    1,
		EstDecodeTokens: 1,
		PrefixHashes:    orig.PrefixHashes,
	}
}

// submitDisagg routes one accepted submission through the two-tier
// pipeline. The decode home is fixed now so exactly one serving loop ever
// mutates the request; the prefill replica is chosen by the configured
// balancer over the prefill tier.
//
//qoserve:outcome requeue
func (s *Server) submitDisagg(req *request.Request, entry *streamEntry, st *Stream) error {
	id := req.ID
	home := s.pickDecodeHome(req)
	h := pendingHandoff{clone: s.prefillClone(req), orig: req, entry: entry, home: home}
	s.reps[home].load.Add(1)
	s.inFlight.Add(1)
	if !s.enqueuePrefill(h) {
		s.reps[home].load.Add(-1)
		s.inFlight.Add(-1)
		s.finMu.Lock()
		delete(s.live, id)
		s.finMu.Unlock()
		s.releaseUnused(req, entry)
		if s.closed.Load() {
			return ErrClosed
		}
		return ErrNoHealthyReplica
	}
	s.accepted.Add(1)
	*st = Stream{ID: id, srv: s, entry: entry}
	return nil
}

// pickDecodeHome fixes a request's decode-tier home. Snapshot-aware
// balancers score each decode replica's live queue state against the
// request's shape with the predictor — the decode iterations carry the
// full prompt context, so a long-prompt request should dodge replicas
// already thick with long contexts — while everything else keeps the
// least-loaded pick.
func (s *Server) pickDecodeHome(req *request.Request) int {
	nd := len(s.reps) - s.prefillReps
	if nd > 1 {
		if sb, ok := s.balancer.(cluster.SnapshotBalancer); ok {
			i := sb.PickPredicted(nd,
				func(j int) int { return int(s.reps[s.prefillReps+j].load.Load()) },
				func(j int) replica.LoadSnapshot { return s.reps[s.prefillReps+j].loadSnapshot() },
				req.PromptTokens, req.DecodeTokens)
			if i >= 0 && i < nd {
				return s.prefillReps + i
			}
		}
	}
	home := s.prefillReps
	for i := s.prefillReps + 1; i < len(s.reps); i++ {
		if s.reps[i].load.Load() < s.reps[home].load.Load() {
			home = i
		}
	}
	return home
}

// pickPrefill chooses a healthy prefill-tier replica for the handoff's
// prompt, or -1 when the whole tier is down. Decode length is 1 for the
// balancer: only the prefill work runs on this tier.
func (s *Server) pickPrefill(req *request.Request) int {
	i := s.pickOver(s.prefillReps, req, 1)
	if i < 0 || i >= s.prefillReps || s.reps[i].down.Load() {
		return s.healthyPrefill()
	}
	return i
}

// healthyPrefill is the least-loaded healthy prefill replica, or -1.
func (s *Server) healthyPrefill() int {
	best := -1
	for i := 0; i < s.prefillReps; i++ {
		rp := s.reps[i]
		if rp.down.Load() {
			continue
		}
		if best < 0 || rp.load.Load() < s.reps[best].load.Load() {
			best = i
		}
	}
	return best
}

// enqueuePrefill places the handoff's clone on a healthy prefill replica,
// re-picking if the chosen replica crashes under it. False means no
// healthy prefill replica remains (or the server closed).
func (s *Server) enqueuePrefill(h pendingHandoff) bool {
	for attempt := 0; attempt <= s.prefillReps; attempt++ {
		i := s.pickPrefill(h.orig)
		if i < 0 {
			return false
		}
		rp := s.reps[i]
		rp.load.Add(1)
		rp.snapQueued.Add(1)
		rp.snapPrefill.Add(int64(h.orig.PromptTokens))
		rp.inboxMu.Lock()
		if s.closed.Load() || rp.down.Load() {
			down := rp.down.Load()
			rp.inboxMu.Unlock()
			rp.load.Add(-1)
			rp.snapQueued.Add(-1)
			rp.snapPrefill.Add(-int64(h.orig.PromptTokens))
			if !down {
				return false // closed
			}
			continue // crashed between pick and enqueue; re-pick
		}
		src, tok := s.planTransfer(h.clone, i, s.prefillReps)
		rp.inbox = append(rp.inbox, admission{req: h.clone, entry: h.entry, orig: h.orig, home: h.home, xferFrom: src, xferTokens: tok})
		rp.inboxMu.Unlock()
		rp.kick()
		return true
	}
	return false
}

// launchHandoffs starts the KV transfer for every clone that finished
// prefill this iteration. Runs on the prefill loop goroutine after
// finishIteration; the transfer is a virtual-time delay (KV bytes /
// interconnect bandwidth), after which the original request arrives at
// its decode home.
func (rp *gatewayReplica) launchHandoffs() {
	srv := rp.srv
	for _, h := range rp.handoffQ {
		delete(rp.pending, h.clone.ID)
		rp.active--
		rp.load.Add(-1)
		srv.handoffs.Add(1)
		srv.transferTokens.Add(uint64(h.orig.PromptTokens))
		bytes := srv.cfg.Model.Model.KVBytesPerToken() * float64(h.orig.PromptTokens)
		wall := bytes / srv.cfg.TransferBandwidth * float64(time.Second) / srv.cfg.Timescale
		h := h
		src := rp
		time.AfterFunc(time.Duration(wall), func() { srv.deliverHandoff(src, h) })
	}
	for i := range rp.handoffQ {
		rp.handoffQ[i] = pendingHandoff{}
	}
	rp.handoffQ = rp.handoffQ[:0]
}

// deliverHandoff completes one KV transfer: the original request joins its
// decode home. If the source replica died mid-transfer the KV pages are
// gone and the request re-prefills elsewhere (or fails with a reason).
//
//qoserve:outcome requeue
func (s *Server) deliverHandoff(src *gatewayReplica, h pendingHandoff) {
	if s.closed.Load() {
		return
	}
	if src.down.Load() {
		s.lostTokens.Add(uint64(h.orig.PromptTokens))
		s.retryOrFail(h, "kv transfer source crashed")
		return
	}
	home := s.reps[h.home]
	home.inboxMu.Lock()
	if s.closed.Load() {
		home.inboxMu.Unlock()
		return
	}
	home.inbox = append(home.inbox, admission{req: h.orig, entry: h.entry})
	home.inboxMu.Unlock()
	home.kick()
}

// retryOrFail re-prefills a crash-orphaned request on a healthy prefill
// replica, or permanently fails it once the retry budget is exhausted or
// no healthy replica remains. The original request's state is reset under
// its decode home's lock — the home loop has never seen the request, so
// that lock only fences the metrics scanners reading the live set.
func (s *Server) retryOrFail(h pendingHandoff, cause string) {
	home := s.reps[h.home]
	home.mu.Lock()
	h.orig.ResetForRetry()
	retries := h.orig.Retries
	home.mu.Unlock()
	s.retries.Add(1)
	if retries > maxHandoffRetries {
		s.failRequest(h, fmt.Sprintf("%s; retry budget exhausted after %d attempts", cause, retries))
		return
	}
	h.clone = s.prefillClone(h.orig)
	if !s.enqueuePrefill(h) {
		s.failRequest(h, fmt.Sprintf("%s; no healthy prefill replica", cause))
	}
}

// failRequest permanently fails a request that could not be served. The
// stream still receives a final Done event (the result reports the
// failure as an SLO violation) so no consumer is left hanging and no
// request is silently dropped. The outcome is frozen into the finished
// ledger before the final event ships, exactly like sendFinalFrame; the
// request object itself is left to the garbage collector (failure is a
// cold path, and its prefill clones share its prefix-hash storage).
//
//qoserve:outcome complete
func (s *Server) failRequest(h pendingHandoff, reason string) {
	home := s.reps[h.home]
	home.mu.Lock()
	h.orig.FailedReason = reason
	home.mu.Unlock()
	s.failedReqs.Add(1)
	end := s.vnow()
	e := h.entry
	s.finMu.Lock()
	e.res = resultOf(h.orig, end)
	delete(s.live, h.orig.ID)
	s.ledger.add(metrics.OutcomeOf(h.orig, end), end)
	s.finMu.Unlock()
	e.req = nil
	// No serving loop ever registered this entry, so its staged frame was
	// never queued: recycle it and ship the final event in a fresh frame,
	// evicting stale frames until it fits (this goroutine is the only
	// sender).
	if e.staged != nil {
		s.recycleFrame(e.staged)
		e.staged = nil
	}
	// Retired before the final frame ships, as in flushFrames.
	home.load.Add(-1)
	if s.inFlight.Add(-1) == 0 {
		s.kickDrain()
	}
	f := append(s.newFrame(), Event{Token: h.orig.DecodedTokens, At: end.Duration(), Done: true})
	for {
		select {
		case e.frames <- f:
			return
		default:
		}
		select {
		case old := <-e.frames:
			s.droppedEvents.Add(uint64(len(old)))
			s.recycleFrame(old)
		default:
		}
	}
}

// Crash marks a prefill-tier replica as failed. Its serving loop drains
// every request it holds through retryOrFail and exits; in-flight KV
// transfers out of it are treated as lost when they land. Only disagg
// prefill replicas may crash — the decode tier owns request state that has
// nowhere else to live.
func (s *Server) Crash(i int) error {
	if s.prefillReps == 0 {
		return fmt.Errorf("server: Crash requires disagg mode")
	}
	if i < 0 || i >= s.prefillReps {
		return fmt.Errorf("server: replica %d is not in the prefill tier (size %d)", i, s.prefillReps)
	}
	rp := s.reps[i]
	if rp.down.Swap(true) {
		return fmt.Errorf("server: replica %d already down", i)
	}
	rp.kick()
	return nil
}

// crashDrain runs on a crashed prefill replica's loop goroutine: every
// request it holds — still in the inbox or admitted into the scheduler —
// is retried elsewhere or failed with a reason, progress is counted as
// lost, and the gauges are zeroed so balancers stop routing here.
func (rp *gatewayReplica) crashDrain() {
	srv := rp.srv
	rp.inboxMu.Lock()
	waiting := rp.inbox
	rp.inbox = nil
	rp.inboxMu.Unlock()
	for _, ad := range waiting {
		if ad.orig == nil {
			continue
		}
		srv.retryOrFail(pendingHandoff{clone: ad.req, orig: ad.orig, entry: ad.entry, home: ad.home}, "prefill replica crashed")
	}
	for _, h := range rp.pending {
		srv.lostTokens.Add(uint64(h.clone.ContextLen()))
		srv.retryOrFail(h, "prefill replica crashed")
	}
	clear(rp.pending)
	rp.load.Store(0)
	rp.snapQueued.Store(0)
	rp.snapPrefill.Store(0)
	rp.snapDecodes.Store(0)
	rp.snapSumCtx.Store(0)
	rp.snapMaxCtx.Store(0)
	rp.snapChunk.Store(0)
}
