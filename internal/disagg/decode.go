package disagg

import (
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// DecodeScheduler is the decode tier's policy: first come, first served,
// at most Cap requests per batch. Every request it holds arrived with its
// prompt already prefilled on the prefill tier, so a batch is simply the
// Cap oldest unfinished requests in admission order; the rest wait. Both
// the simulated pipeline and the live gateway's decode tier run it under
// a replica.Core.
//
// The planned batch aliases the queue, so the caller must complete a batch
// before planning the next one — the Core loop's contract.
type DecodeScheduler struct {
	sched.TraceState
	cap   int
	queue []*request.Request
}

// NewDecodeScheduler returns a decode scheduler batching at most cap
// requests (see DeriveDecodeBatch); cap below 1 means 1.
func NewDecodeScheduler(cap int) *DecodeScheduler {
	return &DecodeScheduler{cap: max(cap, 1)}
}

// Name implements sched.Scheduler.
func (s *DecodeScheduler) Name() string { return "decode-fcfs" }

// Add queues r behind every earlier arrival.
func (s *DecodeScheduler) Add(r *request.Request, now sim.Time) {
	s.TraceAdmission(r.ID, r.Class.Name, now)
	s.queue = append(s.queue, r)
}

// PlanBatch returns the oldest Cap queued requests as decodes.
func (s *DecodeScheduler) PlanBatch(now sim.Time) sched.Batch {
	b := sched.Batch{Decodes: s.queue[:min(len(s.queue), s.cap)]}
	s.TracePlan(s.Name(), b, now, 0, 0, 0)
	return b
}

// OnBatchComplete drops the batch's finished requests, keeping admission
// order. Only batch members can have finished, and the batch is the
// queue's head.
func (s *DecodeScheduler) OnBatchComplete(b sched.Batch, now sim.Time) {
	s.TraceComplete(now)
	n := len(b.Decodes)
	live := 0
	for _, r := range s.queue[:n] {
		if r.Phase() != request.Done {
			s.queue[live] = r
			live++
		}
	}
	if live < n {
		m := copy(s.queue[live:], s.queue[n:])
		clear(s.queue[live+m:])
		s.queue = s.queue[:live+m]
	}
}

// Pending is the number of queued requests, running and waiting.
func (s *DecodeScheduler) Pending() int { return len(s.queue) }

// QueueLen implements sched.QueueReporter: every queued request is in
// decode phase.
func (s *DecodeScheduler) QueueLen() (main, relegated, decode int) { return 0, 0, len(s.queue) }

// Load summarizes the whole queue, running and waiting: its size and the
// sum and maximum of its requests' context lengths.
//
//qoserve:hotpath
func (s *DecodeScheduler) Load() (n, sumCtx, maxCtx int) {
	for _, r := range s.queue {
		c := r.ContextLen()
		sumCtx += c
		maxCtx = max(maxCtx, c)
	}
	return len(s.queue), sumCtx, maxCtx
}
