package sim

import (
	"cmp"
	"slices"
)

// arrivalPriority is the tie-break priority of arrival events: below the
// default 0, so a request arriving at the same instant as an iteration
// completion is submitted first and the completing iteration can batch it.
// Fault injections (priority -2) still precede arrivals.
const arrivalPriority = -1

// Feed delivers items to submit in arrival order on e's clock, each at the
// virtual time arrival reports for it. Instead of scheduling one event per
// item up front, Feed keeps a single self-rescheduling event at priority
// -1 on the heap: each firing first schedules the next arrival, then
// submits its own item. The heap therefore holds one pending arrival
// however long the trace is.
//
// The fire order is exactly that of scheduling every item with
// AtPriority(arrival, -1, ...) in slice order before the run: arrivals fire
// by time, items with equal arrival times in slice order (an unsorted slice
// is stably sorted by arrival first), and every arrival precedes the
// priority-0 events of its instant, including those its own submit
// schedules. This holds because no other event shares priority -1 with
// the feeder. Feed one merged trace per engine: two feeders on one engine
// would order their same-instant arrivals by when each last fired, not by
// slice order.
//
// An item's arrival time is read when its predecessor fires, so it must
// not change before the item is submitted. Arrivals before e.Now() panic,
// as they do in At.
func Feed[T any](e *Engine, items []T, arrival func(T) Time, submit func(T)) {
	if len(items) == 0 {
		return
	}
	f := &feeder[T]{items: items, arrival: arrival, submit: submit}
	for i := 1; i < len(items); i++ {
		if arrival(items[i]) < arrival(items[i-1]) {
			f.order = make([]int, len(items))
			for j := range f.order {
				f.order[j] = j
			}
			slices.SortStableFunc(f.order, func(a, b int) int {
				return cmp.Compare(arrival(items[a]), arrival(items[b]))
			})
			break
		}
	}
	e.AtPriority(f.at(0), arrivalPriority, f)
}

// feeder is Feed's single arrival event; next indexes the item it fires
// for, in arrival order.
type feeder[T any] struct {
	items   []T
	order   []int // arrival-order permutation; nil when items are sorted
	next    int
	arrival func(T) Time
	submit  func(T)
}

// item returns the k-th item in arrival order.
func (f *feeder[T]) item(k int) T {
	if f.order != nil {
		return f.items[f.order[k]]
	}
	return f.items[k]
}

// at returns the arrival time of the k-th item in arrival order.
func (f *feeder[T]) at(k int) Time { return f.arrival(f.item(k)) }

// Fire schedules the next arrival, then submits this one. Rescheduling
// first gives the next arrival a lower sequence number than any event the
// submit schedules, as a pre-scheduled arrival had.
func (f *feeder[T]) Fire(e *Engine, _ Time) {
	it := f.item(f.next)
	f.next++
	if f.next < len(f.items) {
		e.AtPriority(f.at(f.next), arrivalPriority, f)
	}
	f.submit(it)
}
