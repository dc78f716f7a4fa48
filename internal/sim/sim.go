// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every experiment in this repository: replicas, arrival
// processes, and load balancers are all expressed as events on a single
// virtual clock. Determinism is guaranteed by a total order on events
// (time, then priority, then insertion sequence), so a simulation with a
// fixed workload seed always produces byte-identical results.
//
// Trace arrivals enter through Feed, which keeps one pending arrival event
// instead of one per request, so the event heap holds only in-flight work.
// The arrival-order rule it keeps is the one pre-scheduling every arrival
// at priority -1 would give: arrivals fire in time order, equal times in
// trace order, each before any priority-0 event of its instant and after
// any fault injection (priority -2) of it.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point on the virtual clock, measured as a duration since the
// start of the simulation. It is a distinct type so that virtual timestamps
// cannot be confused with wall-clock values.
type Time time.Duration

// Common simulated-time constants, mirroring package time.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// Forever is a sentinel timestamp later than any event a simulation will
// schedule. It is used as the horizon for unbounded runs.
const Forever Time = Time(math.MaxInt64)

// Seconds reports t as a floating-point number of simulated seconds.
//
//qoserve:hotpath
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts t to a time.Duration for formatting and arithmetic
// against SLO targets, which are expressed as durations.
//
//qoserve:hotpath
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the virtual timestamp using duration notation.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return time.Duration(t).String()
}

// FromSeconds converts a floating-point second count to a virtual timestamp.
//
//qoserve:hotpath
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// FromDuration converts a time.Duration to a virtual timestamp.
func FromDuration(d time.Duration) Time { return Time(d) }

// Event is a unit of scheduled work. Fire is invoked exactly once when the
// virtual clock reaches the event's scheduled time.
type Event interface {
	Fire(engine *Engine, now Time)
}

// EventFunc adapts an ordinary function to the Event interface.
type EventFunc func(engine *Engine, now Time)

// Fire calls f.
func (f EventFunc) Fire(engine *Engine, now Time) { f(engine, now) }

// scheduled is an entry in the event heap. Entries are recycled through the
// engine's freelist after they fire; gen distinguishes the current
// occupancy from stale Handles pointing at an earlier use of the same slot.
type scheduled struct {
	at    Time
	prio  int    // ties broken by ascending priority
	seq   uint64 // then by insertion order, guaranteeing determinism
	ev    Event
	index int
	dead  bool
	gen   uint64
}

// eventHeap implements container/heap ordered by (at, prio, seq).
type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	s := x.(*scheduled)
	s.index = len(*h)
	*h = append(*h, s)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.index = -1
	*h = old[:n-1]
	return s
}

// Handle identifies a scheduled event so that it can be cancelled before it
// fires. The zero Handle is invalid. A Handle captures the generation of
// the heap entry it refers to, so a handle kept past its event's firing can
// never cancel an unrelated event that later reuses the same entry.
type Handle struct {
	s   *scheduled
	gen uint64
}

// Valid reports whether the handle refers to a scheduled (possibly already
// fired) event.
func (h Handle) Valid() bool { return h.s != nil }

// Engine is the discrete-event simulation driver. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	heap    eventHeap
	seq     uint64
	fired   uint64
	horizon Time
	stopped bool
	// free recycles fired heap entries: steady-state simulation schedules
	// one completion event per iteration, and without recycling every one
	// of them is a fresh allocation.
	free []*scheduled
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{horizon: Forever}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.heap {
		if !s.dead {
			n++
		}
	}
	return n
}

// At schedules ev to fire at the absolute virtual time at. Scheduling in the
// past (before Now) panics: it indicates a logic error in the caller, and a
// silent clamp would mask causality bugs.
func (e *Engine) At(at Time, ev Event) Handle {
	return e.AtPriority(at, 0, ev)
}

// AtPriority schedules ev at time at with an explicit tie-break priority.
// Lower priorities fire first among events at the same timestamp; this lets
// arrival events be delivered before the replica iteration that could batch
// them, for example.
func (e *Engine) AtPriority(at Time, prio int, ev Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var s *scheduled
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
		*s = scheduled{at: at, prio: prio, seq: e.seq, ev: ev, gen: s.gen}
	} else {
		s = &scheduled{at: at, prio: prio, seq: e.seq, ev: ev}
	}
	e.seq++
	heap.Push(&e.heap, s)
	return Handle{s: s, gen: s.gen}
}

// After schedules ev to fire d after the current time.
func (e *Engine) After(d Time, ev Event) Handle {
	return e.At(e.now+d, ev)
}

// Cancel removes a not-yet-fired event. It reports whether the event was
// still pending. Cancelling an already-fired or already-cancelled event is a
// harmless no-op returning false.
func (e *Engine) Cancel(h Handle) bool {
	if h.s == nil || h.gen != h.s.gen || h.s.dead || h.s.index < 0 {
		return false
	}
	h.s.dead = true
	return true
}

// recycle returns a popped, no-longer-referenced heap entry to the
// freelist, bumping its generation so stale Handles cannot touch its next
// occupancy.
func (e *Engine) recycle(s *scheduled) {
	s.ev = nil
	s.gen++
	e.free = append(e.free, s)
}

// Stop halts the run loop after the currently firing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in order until the queue is empty, the horizon is
// reached, or Stop is called. It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(e.horizon)
}

// RunUntil dispatches events with timestamps <= horizon. Events scheduled
// beyond the horizon remain pending. The clock is left at the horizon if it
// was reached, otherwise at the last fired event.
func (e *Engine) RunUntil(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		s := e.heap[0]
		if s.dead {
			heap.Pop(&e.heap)
			e.recycle(s)
			continue
		}
		if s.at > horizon {
			e.now = horizon
			return e.now
		}
		heap.Pop(&e.heap)
		e.now = s.at
		e.fired++
		ev := s.ev
		e.recycle(s)
		ev.Fire(e, e.now)
	}
	if !e.stopped && horizon != Forever {
		e.now = horizon
	}
	return e.now
}

// Step fires exactly one pending event, returning false when none remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		s := heap.Pop(&e.heap).(*scheduled)
		if s.dead {
			e.recycle(s)
			continue
		}
		e.now = s.at
		e.fired++
		ev := s.ev
		e.recycle(s)
		ev.Fire(e, e.now)
		return true
	}
	return false
}
