package main

import (
	"math"
	"testing"
	"time"

	"qoserve/internal/qos"
)

func TestNearestRankPercentile(t *testing.T) {
	vs := func() []float64 {
		out := make([]float64, 100)
		for i := range out {
			out[i] = float64(100 - i) // 100..1, unsorted
		}
		return out
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.01, 1}, {1, 100}, {0.991, 100}, {0, 1}} {
		if got := percentile(vs(), tc.q); got != tc.want {
			t.Errorf("p%g of 1..100 = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1009, 0.99, true},
		{40, 0.75, true}, // rank 30, 10 beyond
		{39, 0.75, false},
		{20, 0.5, true},
		{0, 0.5, false},
	} {
		if got := tailOK(tc.n, tc.q); got != tc.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestVirtualMS(t *testing.T) {
	if got := virtualMS(3*time.Millisecond, 10); got != 30 {
		t.Errorf("3ms wall at timescale 10 = %v virtual ms, want 30", got)
	}
	if got := virtualMS(1500*time.Microsecond, 1); got != 1.5 {
		t.Errorf("1.5ms wall at timescale 1 = %v, want 1.5", got)
	}
}

// finished builds a request that received all its tokens, the first at
// first and one every gap after.
func finished(class qos.Class, due, first, gap time.Duration, n int) *reqRec {
	r := &reqRec{class: class, due: due, sent: due, want: n}
	for i := 1; i <= n; i++ {
		r.token(i, i == n, first+time.Duration(i-1)*gap)
	}
	return r
}

func TestSLOAttainmentCountsFailuresAsMisses(t *testing.T) {
	c := qos.Table3()
	q1, q2 := c[0], c[1]
	const ts = 10 // 1 wall ms = 10 virtual ms
	ph := &phase{timescale: ts, window: time.Second, reqs: []*reqRec{
		// Q1 first token 500 wall ms after due = 5 s virtual: met.
		finished(q1, 0, 500*time.Millisecond, time.Millisecond, 3),
		// Q1 first token 700 wall ms after due = 7 s virtual: missed.
		finished(q1, 0, 700*time.Millisecond, time.Millisecond, 3),
		// Q2 done 50 s wall = 500 s virtual after due: met (TTLT 600 s).
		finished(q2, 0, 49*time.Second, time.Second, 2),
		// Q2 done 61 s wall = 610 s virtual: missed.
		finished(q2, 0, 60*time.Second, time.Second, 2),
	}}
	refused := &reqRec{class: q1, want: 3}
	refused.fail("submit: refused")
	broken := finished(q1, 0, time.Millisecond, time.Millisecond, 3)
	broken.token(4, false, 5*time.Millisecond) // a token after done
	unfinished := &reqRec{class: q1, want: 3}
	unfinished.token(1, false, time.Millisecond)
	ph.reqs = append(ph.reqs, refused, broken, unfinished)

	s := ph.stats()
	if s.sent != 7 || s.met != 2 || s.failed != 2 || s.unfinished != 1 || s.completed != 4 {
		t.Fatalf("stats = sent %d met %d failed %d unfinished %d completed %d, want 7 2 2 1 4",
			s.sent, s.met, s.failed, s.unfinished, s.completed)
	}
	if !s.accounted() {
		t.Error("sent != completed + failed + unfinished")
	}
	if got, want := s.attainment(), 2.0/7; got != want {
		t.Errorf("attainment = %v, want %v", got, want)
	}
	// 2 met over a 1 s wall window = 10 virtual seconds.
	if got := ph.goodput(s); got != 0.2 {
		t.Errorf("goodput = %v, want 0.2", got)
	}
}

func TestStreamOrderChecks(t *testing.T) {
	q1 := qos.Table3()[0]
	for name, events := range map[string][]struct {
		idx  int
		done bool
	}{
		"skip":       {{1, false}, {3, true}},
		"early done": {{1, true}},
		"no done":    {{1, false}, {2, false}},
		"repeat":     {{1, false}, {1, false}},
	} {
		r := &reqRec{class: q1, want: 2}
		for i, ev := range events {
			r.token(ev.idx, ev.done, time.Duration(i)*time.Millisecond)
		}
		if r.completed() {
			t.Errorf("%s: stream accepted as complete", name)
		}
	}
	ok := &reqRec{class: q1, want: 2}
	ok.token(1, false, 0)
	ok.token(2, true, time.Millisecond)
	if !ok.completed() || ok.err != "" {
		t.Errorf("tokens 1,2(done) rejected: %q", ok.err)
	}
}

// Open-loop requests are timed from when they were due, so a generator
// that sent late charges the delay to the request.
func TestOpenLoopTimesFromDue(t *testing.T) {
	q1 := qos.Table3()[0]
	r := &reqRec{class: q1, due: 10 * time.Millisecond, sent: 14 * time.Millisecond, want: 2}
	r.token(1, false, 20*time.Millisecond)
	r.token(2, true, 25*time.Millisecond)
	s := (&phase{timescale: 2, window: time.Second, reqs: []*reqRec{r}}).stats()
	if len(s.ttft) != 1 || s.ttft[0] != 20 { // (20-10) wall ms x 2
		t.Errorf("ttft = %v, want [20] virtual ms from due", s.ttft)
	}
	if len(s.late) != 1 || s.late[0] != 4 {
		t.Errorf("late = %v, want [4] wall ms", s.late)
	}
	if len(s.gaps) != 1 || s.gaps[0] != 10 {
		t.Errorf("gaps = %v, want [10] virtual ms", s.gaps)
	}
}
