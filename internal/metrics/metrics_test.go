package metrics

import (
	"math"
	"testing"
	"unsafe"

	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

func interactiveClass() qos.Class {
	return qos.Class{Name: "Q1", Kind: qos.Interactive,
		SLO: qos.SLO{TTFT: 6 * sim.Second, TBT: 50 * sim.Millisecond}}
}

func batchClass() qos.Class {
	return qos.Class{Name: "Q2", Kind: qos.NonInteractive,
		SLO: qos.SLO{TTLT: 600 * sim.Second}}
}

// finished builds a completed request with the given TTFT/TTLT.
func finished(id uint64, class qos.Class, prio qos.Priority, prompt int, ttft, ttlt sim.Time) *request.Request {
	r := &request.Request{ID: id, App: class.Name, Class: class, Priority: prio,
		Arrival: 0, PromptTokens: prompt, DecodeTokens: 2}
	r.RecordPrefill(prompt, ttft)
	r.RecordDecodeToken(ttlt)
	return r
}

func TestOutcomeOfCompleted(t *testing.T) {
	r := finished(1, interactiveClass(), qos.High, 100, 2*sim.Second, 3*sim.Second)
	o := OutcomeOf(r, 10*sim.Second)
	if !o.Completed || !o.FirstToken {
		t.Fatal("completed request not marked complete")
	}
	if o.TTFT != 2*sim.Second || o.TTLT != 3*sim.Second {
		t.Fatalf("TTFT=%v TTLT=%v", o.TTFT, o.TTLT)
	}
	if o.Violated {
		t.Fatal("on-time request marked violated")
	}
	if o.Latency(10*sim.Second) != 3*sim.Second {
		t.Fatalf("latency = %v", o.Latency(10*sim.Second))
	}
}

func TestOutcomeOfStarved(t *testing.T) {
	r := &request.Request{ID: 2, Class: interactiveClass(), Arrival: 0,
		PromptTokens: 100, DecodeTokens: 5}
	o := OutcomeOf(r, 100*sim.Second)
	if o.Completed || o.FirstToken {
		t.Fatal("starved request marked complete")
	}
	if !o.Violated {
		t.Fatal("starved request past deadline not violated")
	}
	// Latency falls back to age.
	if o.Latency(100*sim.Second) != 100*sim.Second {
		t.Fatalf("latency = %v", o.Latency(100*sim.Second))
	}
}

func makeSummary(t *testing.T) *Summary {
	t.Helper()
	reqs := []*request.Request{
		finished(1, interactiveClass(), qos.High, 100, 2*sim.Second, 3*sim.Second),  // ok
		finished(2, interactiveClass(), qos.High, 9000, 8*sim.Second, 9*sim.Second), // TTFT violated
		finished(3, batchClass(), qos.Low, 500, 100*sim.Second, 200*sim.Second),     // ok
		finished(4, batchClass(), qos.High, 200, 100*sim.Second, 700*sim.Second),    // TTLT violated
	}
	return NewSummary(reqs, 1000*sim.Second, 2)
}

func TestViolationRate(t *testing.T) {
	s := makeSummary(t)
	if got := s.ViolationRate(All); got != 0.5 {
		t.Errorf("overall violation rate = %v, want 0.5", got)
	}
	if got := s.ViolationRate(ByClass("Q1")); got != 0.5 {
		t.Errorf("Q1 violation rate = %v, want 0.5", got)
	}
	if got := s.ViolationRate(ByPriority(qos.Low)); got != 0 {
		t.Errorf("low-priority violation rate = %v, want 0", got)
	}
	if got := s.ViolationRate(LongerThan(5000)); got != 1 {
		t.Errorf("long violation rate = %v, want 1", got)
	}
	if got := s.ViolationRate(ShorterThan(5000)); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("short violation rate = %v, want 1/3", got)
	}
	if got := s.ViolationRate(ByClass("missing")); got != 0 {
		t.Errorf("empty selection rate = %v, want 0", got)
	}
}

func TestTruncatedRequestsExcluded(t *testing.T) {
	// A batch request still inside its deadline at end-of-run must not
	// count as violated or dilute the denominator.
	running := &request.Request{ID: 9, Class: batchClass(), Arrival: 990 * sim.Second,
		PromptTokens: 10, DecodeTokens: 5}
	reqs := []*request.Request{
		finished(1, batchClass(), qos.High, 100, 100*sim.Second, 700*sim.Second), // violated
		running,
	}
	s := NewSummary(reqs, 1000*sim.Second, 1)
	if got := s.ViolationRate(All); got != 1 {
		t.Errorf("violation rate = %v, want 1 (truncated request excluded)", got)
	}
}

func TestQuantiles(t *testing.T) {
	s := makeSummary(t)
	// TTFTs: 2, 8, 100, 100 seconds.
	if got := s.TTFTQuantile(All, 0.5); math.Abs(got-54) > 1e-9 {
		t.Errorf("p50 TTFT = %v, want 54 (midpoint of 8 and 100)", got)
	}
	if got := s.TTFTQuantile(All, 0); got != 2 {
		t.Errorf("min TTFT = %v", got)
	}
	if got := s.TTFTQuantile(All, 1); got != 100 {
		t.Errorf("max TTFT = %v", got)
	}
	// TTLTs: 3, 9, 200, 700.
	if got := s.TTLTQuantile(ByClass("Q2"), 1); got != 700 {
		t.Errorf("Q2 max TTLT = %v", got)
	}
	// Empty selection is NaN.
	if got := s.LatencyQuantile(ByClass("missing"), 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

func TestGoodput(t *testing.T) {
	s := makeSummary(t)
	// 2 requests completed in SLO over 1000s across 2 replicas.
	if got := s.Goodput(); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("goodput = %v, want 0.001", got)
	}
	if s.MeetsSLOTarget(0.01) {
		t.Error("50% violations meets 1% target")
	}
	if !s.MeetsSLOTarget(0.5) {
		t.Error("50% violations fails 50% target")
	}
}

func TestCompletionAndRelegationRates(t *testing.T) {
	r1 := finished(1, interactiveClass(), qos.High, 100, 2*sim.Second, 3*sim.Second)
	r2 := &request.Request{ID: 2, Class: interactiveClass(), Arrival: 0,
		PromptTokens: 10, DecodeTokens: 2, Relegated: true}
	s := NewSummary([]*request.Request{r1, r2}, 100*sim.Second, 1)
	if got := s.CompletionRate(All); got != 0.5 {
		t.Errorf("completion rate = %v", got)
	}
	if got := s.RelegationRate(All); got != 0.5 {
		t.Errorf("relegation rate = %v", got)
	}
	if got := s.CompletionRate(ByClass("none")); got != 0 {
		t.Errorf("empty completion rate = %v", got)
	}
	if got := s.RelegationRate(ByClass("none")); got != 0 {
		t.Errorf("empty relegation rate = %v", got)
	}
}

func TestTBTViolationRate(t *testing.T) {
	// Arrival 0, TTFT 6s: token-2 deadline 6.05s, token-3 6.10s.
	c := interactiveClass()
	r := &request.Request{ID: 1, Class: c, Arrival: 0, PromptTokens: 10, DecodeTokens: 3}
	r.RecordPrefill(10, sim.Second)
	r.RecordDecodeToken(6*sim.Second + 80*sim.Millisecond) // past 6.05s deadline
	r.RecordDecodeToken(6*sim.Second + 90*sim.Millisecond) // before 6.10s deadline
	s := NewSummary([]*request.Request{r}, 10*sim.Second, 1)
	if got := s.TBTViolationRate(All); got != 0.5 {
		t.Errorf("TBT violation rate = %v, want 0.5", got)
	}
	if got := s.MaxTBTQuantile(All, 1); math.Abs(got-5.08) > 1e-9 {
		t.Errorf("max TBT = %v, want 5.08", got)
	}
}

func TestAndFilter(t *testing.T) {
	s := makeSummary(t)
	f := And(ByClass("Q2"), ByPriority(qos.High))
	if got := s.Count(f); got != 1 {
		t.Errorf("combined filter count = %d, want 1", got)
	}
}

func TestRollingQuantile(t *testing.T) {
	var reqs []*request.Request
	// 10 requests arriving at 0..9s; latency grows with arrival.
	for i := 0; i < 10; i++ {
		r := &request.Request{ID: uint64(i + 1), Class: batchClass(),
			Arrival: sim.Time(i) * sim.Second, PromptTokens: 10, DecodeTokens: 1}
		r.RecordPrefill(10, r.Arrival+sim.Time(i+1)*sim.Second)
		reqs = append(reqs, r)
	}
	s := NewSummary(reqs, 20*sim.Second, 1)
	pts := s.RollingQuantile(All, 1.0, 2*sim.Second, sim.Second)
	if len(pts) == 0 {
		t.Fatal("no rolling points")
	}
	// Values must be non-decreasing since latency grows with arrival.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatalf("rolling max not monotone: %v", pts)
		}
	}
	// First window covers arrivals 0s,1s with latencies 1,2 -> max 2.
	if pts[0].Value != 2 {
		t.Errorf("first window value = %v, want 2", pts[0].Value)
	}
	// Degenerate parameters.
	if got := s.RollingQuantile(All, 0.5, 0, sim.Second); got != nil {
		t.Error("zero window returned points")
	}
}

func TestRecentWindowsOutcomes(t *testing.T) {
	var reqs []*request.Request
	// Arrivals at 0s, 40s, 80s; run ends at 100s.
	for i, at := range []sim.Time{0, 40 * sim.Second, 80 * sim.Second} {
		r := &request.Request{ID: uint64(i + 1), Class: batchClass(),
			Arrival: at, PromptTokens: 10, DecodeTokens: 1}
		r.RecordPrefill(10, at+sim.Second)
		reqs = append(reqs, r)
	}
	s := NewSummary(reqs, 100*sim.Second, 1)

	recent := s.Recent(30 * sim.Second)
	if recent.Count(All) != 1 || recent.Outcomes[0].Arrival != 80*sim.Second {
		t.Fatalf("30s window kept %d outcomes: %+v", recent.Count(All), recent.Outcomes)
	}
	if recent.End != s.End || recent.Replicas != s.Replicas {
		t.Error("window summary lost End/Replicas")
	}
	if got := s.Recent(70 * sim.Second).Count(All); got != 2 {
		t.Errorf("70s window count = %d, want 2", got)
	}
	// Non-positive window is the identity.
	if s.Recent(0) != s {
		t.Error("zero window did not return the summary unchanged")
	}
	// An empty window yields NaN quantiles, matching the /metrics contract.
	if q := s.Recent(sim.Millisecond).TTFTQuantile(All, 0.5); !math.IsNaN(q) {
		t.Errorf("empty window quantile = %v, want NaN", q)
	}
}

func TestMaxLatency(t *testing.T) {
	s := makeSummary(t)
	if got := s.MaxLatency(All); got != 700*sim.Second {
		t.Errorf("max latency = %v, want 700s", got)
	}
	if got := s.MaxLatency(ByClass("none")); got != 0 {
		t.Errorf("empty max latency = %v, want 0", got)
	}
}

func TestSummaryString(t *testing.T) {
	if makeSummary(t).String() == "" {
		t.Error("empty String()")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := quantile(vals, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(vals, 1.0/3); got != 2 {
		t.Errorf("q33 = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestJainFairness(t *testing.T) {
	mk := func(class string, prompt int, violated bool) *request.Request {
		ttlt := 200 * sim.Second
		if violated {
			ttlt = 700 * sim.Second
		}
		r := &request.Request{ID: 1, Class: batchClass(), Arrival: 0,
			PromptTokens: prompt, DecodeTokens: 2}
		r.Class.Name = class
		r.RecordPrefill(prompt, 100*sim.Second)
		r.RecordDecodeToken(ttlt)
		return r
	}
	groups := []Filter{ByClass("A"), ByClass("B")}

	// Perfectly fair: both groups fully attain.
	fair := NewSummary([]*request.Request{
		mk("A", 10, false), mk("B", 10, false),
	}, 1000*sim.Second, 1)
	if got := fair.JainFairness(groups); got != 1 {
		t.Errorf("fair index = %v, want 1", got)
	}

	// Maximally unfair: A attains fully, B not at all.
	unfair := NewSummary([]*request.Request{
		mk("A", 10, false), mk("A", 10, false),
		mk("B", 10, true), mk("B", 10, true),
	}, 1000*sim.Second, 1)
	if got := unfair.JainFairness(groups); got != 0.5 {
		t.Errorf("unfair index = %v, want 0.5 (1/n)", got)
	}

	// Missing groups are skipped; single group -> 1.
	if got := fair.JainFairness([]Filter{ByClass("A"), ByClass("missing")}); got != 1 {
		t.Errorf("single-group index = %v", got)
	}

	// All-violated groups count as equal.
	allBad := NewSummary([]*request.Request{
		mk("A", 10, true), mk("B", 10, true),
	}, 1000*sim.Second, 1)
	if got := allBad.JainFairness(groups); got != 1 {
		t.Errorf("all-violated index = %v, want 1", got)
	}
}

// TestOutcomePacked pins Outcome's layout on 64-bit platforms: its four
// flags share one word, so a summary of n requests holds 128n bytes of
// outcomes rather than 152n.
func TestOutcomePacked(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Outcome{}); got != 128 {
		t.Fatalf("Outcome is %d bytes, want 128", got)
	}
}
