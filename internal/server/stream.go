// Stream delivery: per-stream gateway state, event frames, and the
// free lists that keep the steady state allocation-free.
//
// Every token a stream produced since its last delivery coalesces into one
// []Event frame, sent over a small per-stream chan []Event: one channel
// send and at most one consumer wakeup per stream per iteration, however
// many tokens the iteration produced. A consumer that falls behind loses
// whole stale frames (counted in droppedEvents) instead of stalling the
// loop, and always receives the final frame carrying the Done event.
// Consumers read tokens with Stream.Recv and the outcome with
// Stream.Result.
//
// Pooling invariants (what makes recycling safe):
//
//   - An entry's frames channel is never closed; the Done event inside
//     the final frame is the terminal signal. The serving loop touches no
//     entry field after that frame's channel send, and the consumer owns
//     the entry once it receives it — recycling happens on the consumer
//     side (Stream.next).
//   - entry.res is frozen before the final frame's send and read after
//     its receive; the channel send is the happens-before edge.
//   - A request.Request is recycled by the serving loop only after its
//     outcome is frozen into Server.ledger and it is deleted from the
//     live table, all under finMu — the same lock the metrics scanners
//     hold — so no reader can observe the reset.
//   - Frames travel loop -> consumer -> framePool -> loop. A pool miss
//     anywhere allocates a fresh object in a cold (non-hotpath) function
//     and the free list re-absorbs it later.
//
// Abandoned streams (a consumer that stops receiving) leak their entry to
// the garbage collector instead of the pool; the final-frame eviction loop
// still retires the request, so the serving side never blocks on them.

package server

import (
	"time"

	"qoserve/internal/metrics"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// poolCap bounds each free list (requests, entries, frames). Beyond it,
// recycled objects fall to the garbage collector — the pools are a fast
// path, not an ownership ledger.
const poolCap = 4096

// streamShrinkMin is the stream-table high-water mark below which the
// table is never rebuilt, and streamShrinkFactor is how far occupancy must
// fall below the mark before it is: Go maps never release their buckets,
// so after a burst of streamShrinkMin+ concurrent streams drains, the loop
// swaps in a fresh map sized for the survivors.
const (
	streamShrinkMin    = 1024
	streamShrinkFactor = 8
)

// streamEntry is one live stream's gateway-side state, keyed by request ID
// in the replica's stream table. staged, queued, and final are owned by the
// serving loop (written under mu by stageEvent, consumed lock-free by the
// same goroutine in flushFrames); res is written by the loop before the
// final frame is sent and read by the consumer after it is received.
type streamEntry struct {
	id  uint64
	req *request.Request
	// frames carries the stream's event frames. Never closed — pooled entries
	// keep their channel, which is empty by construction once the final
	// frame is consumed.
	frames chan []Event
	// staged accumulates this stream's events since its last delivered
	// frame; capacity is Config.EventFrame.
	staged []Event
	// queued marks the entry present in the replica's sendQ.
	queued bool
	// final marks staged as containing the Done event.
	final bool
	// res is the frozen outcome, valid once the final frame is received.
	res Result
}

// Stream delivers a request's token events; create with Submit or
// SubmitTo and read with Recv. A consumer that falls a full frame buffer
// behind loses intermediate events (the Token index skips) but always
// receives the final Done event.
type Stream struct {
	ID uint64

	srv   *Server
	entry *streamEntry
	frame []Event // frame being consumed
	cur   int     // cursor into frame
	res   Result
	done  bool
}

// Result summarizes a finished request. Valid once the stream has ended
// (the Done event was received).
type Result struct {
	TTFT time.Duration
	TTLT time.Duration
	// MaxTBT is the largest inter-token gap observed (virtual time).
	MaxTBT   time.Duration
	Violated bool
	Releg    bool
	// Failed is the reason the gateway permanently gave up on the request
	// (see Server.Crash); empty for served requests, and a failed request
	// is always Violated.
	Failed string
}

// resultOf snapshots a request's stream-facing outcome as of end.
func resultOf(r *request.Request, end sim.Time) Result {
	res := Result{
		MaxTBT:   r.MaxTBT.Duration(),
		Violated: r.ViolatedSLO(end),
		Releg:    r.Relegated,
		Failed:   r.FailedReason,
	}
	if ttft, ok := r.TTFT(); ok {
		res.TTFT = ttft.Duration()
	}
	if ttlt, ok := r.TTLT(); ok {
		res.TTLT = ttlt.Duration()
	}
	return res
}

// Result reports the request's outcome, frozen when the request finished;
// it is zero until the Done event has been received.
func (s *Stream) Result() Result { return s.res }

// Recv returns the stream's next token event, blocking until one is
// available; ok is false once the stream is exhausted (after the Done
// event). A Stream must not be received from concurrently.
func (s *Stream) Recv() (Event, bool) { return s.next(nil) }

// next is Recv with an optional cancel channel (the HTTP handler passes
// the request context's Done); a nil cancel never fires. Cancellation
// returns ok=false without consuming an event — the stream remains
// receivable.
func (s *Stream) next(cancel <-chan struct{}) (Event, bool) {
	if s.done {
		return Event{}, false
	}
	for s.cur >= len(s.frame) {
		if s.frame != nil {
			s.srv.recycleFrame(s.frame)
			s.frame, s.cur = nil, 0
		}
		select {
		case f := <-s.entry.frames:
			s.frame, s.cur = f, 0
		case <-cancel:
			return Event{}, false
		}
	}
	ev := s.frame[s.cur]
	s.cur++
	if ev.Done {
		// The final frame's send ordered entry.res before this read; the
		// loop no longer touches the entry, so it recycles here.
		s.res = s.entry.res
		s.srv.recycleFrame(s.frame)
		s.frame, s.cur = nil, 0
		s.srv.recycleEntry(s.entry)
		s.entry = nil
		s.done = true
	}
	return ev, true
}

// Free-list pop/push helpers: a pool miss allocates, and a full pool lets
// the object fall to the garbage collector.

// newRequest pops a pooled request or allocates one.
func (s *Server) newRequest() *request.Request {
	select {
	case r := <-s.reqPool:
		return r
	default:
		return &request.Request{}
	}
}

// recycleRequest resets a finished request and returns it to the pool,
// keeping its PrefixHashes capacity as parse scratch for the next use.
// Callers must hold finMu or otherwise guarantee no reader can still
// reach r.
func (s *Server) recycleRequest(r *request.Request) {
	hashes := r.PrefixHashes[:0]
	*r = request.Request{}
	r.PrefixHashes = hashes
	select {
	case s.reqPool <- r:
	default:
	}
}

// newEntry pops a pooled stream entry (its frames channel ready for
// reuse) or allocates one.
func (s *Server) newEntry() *streamEntry {
	select {
	case e := <-s.entryPool:
		return e
	default:
		return &streamEntry{frames: make(chan []Event, s.frameBuf)}
	}
}

// recycleEntry returns a consumed entry to the pool. Its frames channel
// is empty by construction (the final frame was just received) and is
// kept for the next request.
func (s *Server) recycleEntry(e *streamEntry) {
	e.id, e.req = 0, nil
	e.staged = nil
	e.queued, e.final = false, false
	e.res = Result{}
	select {
	case s.entryPool <- e:
	default:
	}
}

// newFrame pops a pooled event frame or allocates one at the configured
// frame capacity.
func (s *Server) newFrame() []Event {
	select {
	case f := <-s.framePool:
		return f
	default:
		return make([]Event, 0, s.cfg.EventFrame)
	}
}

// recycleFrame returns a consumed frame's storage to the pool.
//
//qoserve:hotpath
func (s *Server) recycleFrame(f []Event) {
	select {
	case s.framePool <- f[:0]:
	default:
	}
}

// releaseUnused returns a request and entry that never entered a serving
// loop (admission rolled back) to their pools.
func (s *Server) releaseUnused(req *request.Request, e *streamEntry) {
	if e.staged != nil {
		s.recycleFrame(e.staged)
		e.staged = nil
	}
	s.recycleEntry(e)
	s.recycleRequest(req)
}

// kick wakes the replica's serving loop: a non-blocking send on the
// 1-buffered notify channel. The loop re-checks its predicate under
// inboxMu after every receive, so one buffered token can never be lost —
// admission, fault recovery, handoff delivery, and Close all kick.
//
//qoserve:hotpath
func (rp *gatewayReplica) kick() {
	select {
	case rp.notify <- struct{}{}:
	default:
	}
}

// kickDrain wakes Drain waiters when the last in-flight request retires.
//
//qoserve:hotpath
func (s *Server) kickDrain() {
	select {
	case s.drainWake <- struct{}{}:
	default:
	}
}

// idleWait parks a loop that has admitted work but planned an empty batch
// (transiently possible with admission-style schedulers) until the next
// kick or a 1 ms fallback tick. The timer is armed only here, so a fully
// idle replica (parked in admit on the notify channel) schedules no
// timers and burns no CPU.
func (rp *gatewayReplica) idleWait() {
	if rp.idleTimer == nil {
		rp.idleTimer = time.NewTimer(time.Millisecond)
	} else {
		rp.idleTimer.Reset(time.Millisecond)
	}
	select {
	case <-rp.notify:
	case <-rp.idleTimer.C:
	}
	rp.idleTimer.Stop()
}

// finishIteration runs the post-mu phase of one serving iteration: batch
// the iteration's prefix releases into one kvMu section, freeze finished
// requests' outcomes (recycling their objects), and deliver staged
// frames.
func (rp *gatewayReplica) finishIteration(end sim.Time) {
	rp.releaseBatch()
	rp.finalizeDone(end)
	rp.ensureSpares()
	rp.flushFrames()
}

// releaseBatch unpins every prefix released this iteration in a single
// kvMu critical section and publishes the membership change once —
// previously each finished request took kvMu (and re-published) on its
// own under mu.
func (rp *gatewayReplica) releaseBatch() {
	if len(rp.releaseQ) == 0 {
		return
	}
	rp.kvMu.Lock()
	for _, id := range rp.releaseQ {
		rp.kv.Release(id)
	}
	rp.publishIndexLocked()
	rp.kvMu.Unlock()
	rp.releaseQ = rp.releaseQ[:0]
}

// finalizeDone freezes the outcome of every request that finished this
// iteration: the stream entry's result is stamped for its consumer, the
// request leaves the live table with its Outcome recorded in the ledger,
// and the request object returns to the pool. All under finMu, which the
// metrics scanners also hold — after this, nothing can reach the recycled
// request.
//
//qoserve:outcome complete
func (rp *gatewayReplica) finalizeDone(end sim.Time) {
	if len(rp.finalQ) == 0 {
		return
	}
	srv := rp.srv
	srv.finMu.Lock()
	for _, e := range rp.finalQ {
		r := e.req
		e.res = resultOf(r, end)
		delete(srv.live, r.ID)
		srv.ledger.add(metrics.OutcomeOf(r, end), end)
		e.req = nil
		srv.recycleRequest(r)
	}
	srv.finMu.Unlock()
	for i := range rp.finalQ {
		rp.finalQ[i] = nil
	}
	rp.finalQ = rp.finalQ[:0]
}

// ensureSpares tops the replica's spare-frame stack up to the worst case
// flushFrames can consume (one per queued entry), so the hot flush path
// never allocates — pool misses pay here, in a cold function.
func (rp *gatewayReplica) ensureSpares() {
	for len(rp.spares) < len(rp.sendQ) {
		rp.spares = append(rp.spares, rp.srv.newFrame())
	}
}

// popSpare takes a pre-stocked spare frame (ensureSpares guarantees one
// per queued entry).
//
//qoserve:hotpath
func (rp *gatewayReplica) popSpare() []Event {
	n := len(rp.spares) - 1
	f := rp.spares[n]
	rp.spares[n] = nil
	rp.spares = rp.spares[:n]
	return f
}

// pushSpare returns an evicted frame's storage to the spare stack.
//
//qoserve:hotpath
func (rp *gatewayReplica) pushSpare(f []Event) {
	rp.spares = append(rp.spares, f[:0])
}

// flushFrames delivers every queued entry's staged frame without holding
// any lock. Non-final frames are
// best-effort: a full channel keeps the entry queued so the next
// iteration coalesces into the same frame (events drop only once the
// frame itself fills). Final frames always land via sendFinalFrame, which
// retires the stream.
//
//qoserve:hotpath
func (rp *gatewayReplica) flushFrames() {
	srv := rp.srv
	keep := rp.sendQ[:0]
	for _, e := range rp.sendQ {
		if e.final {
			// Retire the stream before its final frame ships, so a consumer
			// that has seen Done never finds the request still pending.
			delete(rp.streams, e.id)
			rp.active--
			rp.load.Add(-1)
			if srv.inFlight.Add(-1) == 0 {
				srv.kickDrain()
			}
			rp.sendFinalFrame(e)
			continue
		}
		select {
		case e.frames <- e.staged:
			e.staged = rp.popSpare()
			e.queued = false
		default:
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(rp.sendQ); i++ {
		rp.sendQ[i] = nil
	}
	rp.sendQ = keep
}

// sendFinalFrame delivers an entry's final frame even on a full channel
// by evicting the oldest undelivered frames (their events count as
// dropped; the storage returns to the spare stack). The loop is the only
// sender and the consumer only receives, so eviction makes room and the
// loop terminates. Delivering the final frame is what completes a request
// — this is the gateway's outcome recorder. No entry
// field is touched after the send: the consumer may recycle the entry the
// moment it lands.
//
//qoserve:hotpath
//qoserve:outcome complete
func (rp *gatewayReplica) sendFinalFrame(e *streamEntry) {
	f := e.staged
	frames := e.frames
	e.staged = nil
	e.queued, e.final = false, false
	for {
		select {
		case frames <- f:
			return
		default:
		}
		select {
		case old := <-frames:
			rp.srv.droppedEvents.Add(uint64(len(old)))
			rp.pushSpare(old)
		default:
		}
	}
}

// maybeShrinkStreams rebuilds the stream table after a burst: a map that
// once held streamShrinkMin+ streams but is now streamShrinkFactor times
// emptier is copied into a right-sized replacement, releasing the burst's
// buckets. Runs on the loop goroutine, which owns the table.
func (rp *gatewayReplica) maybeShrinkStreams() {
	if rp.streamsPeak < streamShrinkMin || len(rp.streams)*streamShrinkFactor > rp.streamsPeak {
		return
	}
	m := make(map[uint64]*streamEntry, 2*len(rp.streams))
	for id, e := range rp.streams {
		m[id] = e
	}
	rp.streams = m
	rp.streamsPeak = len(m)
	rp.srv.streamShrinks.Add(1)
}
