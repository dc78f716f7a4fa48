package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// fired is one entry of a fire-order log: what fired, for which item, when.
type fired struct {
	kind string
	id   int
	at   Time
}

// feedPlan is what submitting one item schedules: same-instant priority-0
// follow-ups (the first of which schedules another at that instant), a
// same-instant priority -2 event, and a later priority-0 event.
type feedPlan struct {
	follow  int
	urgent  bool
	delayed Time // 0: none
}

// countFeeders reports how many live feeder events sit on e's heap.
func countFeeders(e *Engine) int {
	n := 0
	for _, s := range e.heap {
		if _, ok := s.ev.(*feeder[int]); ok && !s.dead {
			n++
		}
	}
	return n
}

// runFeedTrial plays one trace, pre-scheduled (feed false) or fed, and
// returns the fire-order log and the most feeder events ever pending.
func runFeedTrial(arrivals []Time, plans []feedPlan, faults []Time, feed bool) ([]fired, int) {
	e := NewEngine()
	var log []fired
	maxPending := 0
	note := func(kind string, id int, at Time) {
		log = append(log, fired{kind, id, at})
		if n := countFeeders(e); n > maxPending {
			maxPending = n
		}
	}
	for i, at := range faults {
		e.AtPriority(at, -2, EventFunc(func(_ *Engine, now Time) { note("fault", i, now) }))
	}
	submit := func(i int) {
		now := e.Now()
		note("arrive", i, now)
		p := plans[i]
		for j := 0; j < p.follow; j++ {
			e.At(now, EventFunc(func(eng *Engine, t Time) {
				note("follow", i, t)
				if j == 0 {
					eng.At(t, EventFunc(func(_ *Engine, t2 Time) { note("chain", i, t2) }))
				}
			}))
		}
		if p.urgent {
			e.AtPriority(now, -2, EventFunc(func(_ *Engine, t Time) { note("urgent", i, t) }))
		}
		if p.delayed > 0 {
			e.At(now+p.delayed, EventFunc(func(_ *Engine, t Time) { note("delayed", i, t) }))
		}
	}
	ids := make([]int, len(arrivals))
	for i := range ids {
		ids[i] = i
	}
	if feed {
		Feed(e, ids, func(i int) Time { return arrivals[i] }, submit)
	} else {
		for _, i := range ids {
			e.AtPriority(arrivals[i], -1, EventFunc(func(_ *Engine, _ Time) { submit(i) }))
		}
	}
	e.Run()
	return log, maxPending
}

// TestFeedMatchesPreScheduling is a seeded property test: over random
// traces with duplicate and out-of-order arrival times, priority -2
// events, and priority-0 events scheduled at the arrival's own instant by
// the submit callback, Feed fires everything in exactly the order that
// one AtPriority(arrival, -1) per item scheduled up front does, with at
// most one arrival event pending at any moment.
func TestFeedMatchesPreScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		span := 1 + rng.Intn(12) // few distinct instants: many duplicates
		arrivals := make([]Time, n)
		plans := make([]feedPlan, n)
		for i := range arrivals {
			arrivals[i] = Time(rng.Intn(span)) * Millisecond
			plans[i] = feedPlan{follow: rng.Intn(3), urgent: rng.Intn(4) == 0}
			if rng.Intn(3) == 0 {
				plans[i].delayed = Time(rng.Intn(span)) * Millisecond
			}
		}
		if trial%2 == 0 {
			// Half the traces sorted, as generated workloads are.
			slices.Sort(arrivals)
		}
		faults := make([]Time, rng.Intn(3))
		for i := range faults {
			faults[i] = Time(rng.Intn(span)) * Millisecond
		}

		want, _ := runFeedTrial(arrivals, plans, faults, false)
		got, pending := runFeedTrial(arrivals, plans, faults, true)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (arrivals %v): fed order\n%v\nwant pre-scheduled order\n%v", trial, arrivals, got, want)
		}
		if pending > 1 {
			t.Fatalf("trial %d: %d arrival events pending at once, want at most 1", trial, pending)
		}
	}
}

// TestFeedAllocsConstantInTraceLength: after Feed's setup, rescheduling
// the feeder reuses the heap entry it just fired from, so a run allocates
// the same whether the trace holds ten arrivals or ten thousand.
func TestFeedAllocsConstantInTraceLength(t *testing.T) {
	allocs := func(n int) float64 {
		items := make([]Time, n)
		for i := range items {
			items[i] = Time(i/3) * Microsecond
		}
		at := func(t Time) Time { return t }
		submit := func(Time) {}
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			Feed(e, items, at, submit)
			e.Run()
		})
	}
	small, large := allocs(10), allocs(10000)
	if large != small {
		t.Fatalf("feeding 10000 arrivals allocates %v times, 10 arrivals %v: want no per-arrival allocation", large, small)
	}
}

func TestFeedEmptySchedulesNothing(t *testing.T) {
	e := NewEngine()
	Feed(e, []int(nil), func(int) Time { return 0 }, func(int) { t.Fatal("submit called") })
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}
