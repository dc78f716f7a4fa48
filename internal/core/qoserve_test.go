package core

import (
	"math/rand"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

func q1() qos.Class {
	return qos.Class{Name: "Q1", Kind: qos.Interactive,
		SLO: qos.SLO{TTFT: 6 * sim.Second, TBT: 50 * sim.Millisecond}}
}

func q2() qos.Class {
	return qos.Class{Name: "Q2", Kind: qos.NonInteractive,
		SLO: qos.SLO{TTLT: 600 * sim.Second}}
}

func q3() qos.Class {
	return qos.Class{Name: "Q3", Kind: qos.NonInteractive,
		SLO: qos.SLO{TTLT: 1800 * sim.Second}}
}

func req(id uint64, arrival sim.Time, prompt, decode int, class qos.Class) *request.Request {
	return &request.Request{ID: id, App: class.Name, Class: class,
		Arrival: arrival, PromptTokens: prompt, DecodeTokens: decode}
}

func oracle() predictor.Oracle {
	return predictor.Oracle{Config: model.Llama3_8B_A100_TP1()}
}

func newSched(opts Options) *Scheduler { return New(oracle(), opts) }

// run executes iterations against the real cost model until pred returns
// true or maxIters elapse, returning the final time.
func run(t *testing.T, s *Scheduler, mc model.Config, now sim.Time, maxIters int, done func() bool) sim.Time {
	t.Helper()
	for i := 0; i < maxIters; i++ {
		if done() {
			return now
		}
		b := s.PlanBatch(now)
		if b.Empty() {
			return now
		}
		now += mc.BatchTime(b.Shape())
		for _, p := range b.Prefill {
			p.Req.RecordPrefill(p.Tokens, now)
		}
		for _, d := range b.Decodes {
			d.RecordDecodeToken(now)
		}
		s.OnBatchComplete(b, now)
	}
	t.Fatal("run did not converge")
	return now
}

func TestHybridPriorityInterpolatesEDFandSRPF(t *testing.T) {
	// Two interactive requests: A arrived earlier (earlier deadline) but
	// has a huge prompt; B arrived slightly later with a tiny prompt.
	a := req(1, 0, 10000, 2, q1())
	b := req(2, 2*sim.Second, 100, 2, q1())

	// alpha = 0 (EDF): A first.
	edf := newSched(Options{HybridPriority: false, DynamicChunking: true, MaxChunk: 2500})
	if edf.priorityKey(a) >= edf.priorityKey(b) {
		t.Error("EDF: earlier deadline should sort first")
	}

	// Large alpha: B's tiny remaining work wins despite later deadline.
	srpfish := newSched(Options{HybridPriority: true, Alpha: 8 * sim.Millisecond,
		DynamicChunking: true, MaxChunk: 2500})
	if srpfish.priorityKey(b) >= srpfish.priorityKey(a) {
		t.Errorf("hybrid: short job should sort first (a=%v b=%v)",
			srpfish.priorityKey(a), srpfish.priorityKey(b))
	}
}

func TestNonInteractivePriorityIncludesDecodeEstimate(t *testing.T) {
	s := newSched(Options{HybridPriority: true, Alpha: 8 * sim.Millisecond})
	a := req(1, 0, 100, 2, q2())
	b := req(2, 0, 100, 2, q2())
	a.EstDecodeTokens = 1000
	b.EstDecodeTokens = 10
	if s.priorityKey(b) >= s.priorityKey(a) {
		t.Error("larger decode estimate should lower priority (Eq. 5)")
	}
}

func TestDynamicChunkGrowsWithSlack(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())

	// A non-interactive decode with an enormous TTLT deadline: slack is
	// huge, so the budget should allow the max chunk.
	d := req(1, 0, 64, 50, q3())
	s.Add(d, 0)
	b := s.PlanBatch(0)
	now := mc.BatchTime(b.Shape())
	d.RecordPrefill(64, now)
	s.OnBatchComplete(b, now)
	if d.Phase() != request.Decode {
		t.Fatalf("phase = %v", d.Phase())
	}

	// Queue a big prefill; the chunk should hit MaxChunk thanks to slack.
	p := req(2, now, 10000, 2, q3())
	s.Add(p, now)
	b = s.PlanBatch(now)
	if len(b.Prefill) != 1 || b.Prefill[0].Tokens != s.opts.MaxChunk {
		t.Fatalf("chunk = %+v, want max %d", b.Prefill, s.opts.MaxChunk)
	}
}

func TestDynamicChunkShrinksUnderTightSlack(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())

	// An interactive decode paced exactly at its TBT: slack ~= 50ms.
	d := req(1, 0, 64, 500, q1())
	s.Add(d, 0)
	b := s.PlanBatch(0)
	now := mc.BatchTime(b.Shape())
	d.RecordPrefill(64, now)
	s.OnBatchComplete(b, now)

	// Burn the TTFT slack: deadline of token n is arrival+6s+(n-1)*50ms.
	// Advance time to exactly the next token's deadline so slack = 0 and
	// the 50ms TBT floor applies.
	now = d.NextTokenDeadline()
	p := req(2, now, 10000, 2, q3())
	s.Add(p, now)
	b = s.PlanBatch(now)
	if len(b.Prefill) != 1 {
		t.Fatalf("no prefill planned")
	}
	chunk := b.Prefill[0].Tokens
	if chunk >= s.opts.MaxChunk/2 {
		t.Errorf("chunk %d too large for 50ms budget", chunk)
	}
	if chunk < minChunk {
		t.Errorf("chunk %d below floor", chunk)
	}
	// The planned batch must fit the 50ms budget per the oracle.
	if got := mc.BatchTime(b.Shape()); got > 55*sim.Millisecond {
		t.Errorf("planned batch takes %v, budget 50ms", got)
	}
}

func TestFallbackChunkWhenDCDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.DynamicChunking = false
	s := newSched(opts)
	p := req(1, 0, 10000, 2, q3())
	s.Add(p, 0)
	b := s.PlanBatch(0)
	if len(b.Prefill) != 1 || b.Prefill[0].Tokens != 256 {
		t.Fatalf("fallback chunk = %+v, want 256", b.Prefill)
	}
}

func TestEagerRelegationOfDoomedRequest(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())

	// An interactive request whose deadline has already passed can never
	// meet TTFT: it must be relegated, not served from the main queue.
	doomed := req(1, 0, 5000, 2, q1())
	now := 10 * sim.Second // past the 6s TTFT deadline
	s.Add(doomed, now)
	healthy := req(2, now, 500, 2, q1())
	s.Add(healthy, now)

	b := s.PlanBatch(now)
	if !doomed.Relegated {
		t.Fatal("doomed request not relegated")
	}
	main, rel, _ := s.QueueLen()
	if main != 1 || rel != 1 {
		t.Fatalf("queues = (%d,%d), want (1,1)", main, rel)
	}
	// The healthy request is served first; spare budget may still reach
	// the relegated one.
	if len(b.Prefill) == 0 || b.Prefill[0].Req != healthy {
		t.Fatalf("healthy request not served first: %+v", b.Prefill)
	}
	if s.Relegations() != 1 {
		t.Fatalf("relegations = %d", s.Relegations())
	}
}

func TestRelegatedServedOpportunistically(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())
	doomed := req(1, 0, 500, 2, q1())
	now := 10 * sim.Second
	s.Add(doomed, now)
	// Main queue empty after relegation; the relegated request should be
	// served with the spare budget ("eventual completion, no rejection").
	end := run(t, s, mc, now, 10000, func() bool { return doomed.Phase() == request.Done })
	if doomed.Phase() != request.Done {
		t.Fatal("relegated request never completed")
	}
	if end <= now {
		t.Fatal("time did not advance")
	}
}

func TestPriorityProtectionRelegatesLowFirst(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())

	// One relegationInterval past the throttle clock's zero, so the plan
	// below runs the queue-wide pass.
	now := sim.Second
	// Fill the queue with enough low-priority work that a high-priority
	// interactive request behind it would miss its 6s TTFT.
	var lows []*request.Request
	for i := 0; i < 16; i++ {
		r := req(uint64(i+1), now, 10000, 2, q1())
		r.Priority = qos.Low
		lows = append(lows, r)
		s.Add(r, now)
	}
	hi := req(100, now, 10000, 2, q1())
	hi.Priority = qos.High
	s.Add(hi, now)

	s.PlanBatch(now)
	relLow := 0
	for _, r := range lows {
		if r.Relegated {
			relLow++
		}
	}
	if relLow == 0 {
		t.Fatal("no low-priority request relegated to protect important traffic")
	}
	if hi.Relegated {
		t.Fatal("high-priority request relegated while low-priority remained")
	}
}

func TestSelectivePreemptionBoostsAtRiskPartial(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	opts := DefaultOptions()
	opts.AdaptiveAlpha = false
	opts.Alpha = 0 // pure EDF so the newcomer would normally win
	s := New(predictor.Oracle{Config: mc}, opts)

	// Partially prefill an interactive request close to its deadline.
	now := sim.Time(0)
	inflight := req(1, 0, 3000, 2, q1())
	s.Add(inflight, now)
	b := s.PlanBatch(now)
	now += mc.BatchTime(b.Shape())
	inflight.RecordPrefill(b.Prefill[0].Tokens, now)
	s.OnBatchComplete(b, now)
	if inflight.Phase() != request.Prefill {
		t.Fatalf("phase = %v, want prefill", inflight.Phase())
	}

	// Jump so close to the in-flight request's deadline that sitting out
	// one iteration would blow it, then add a newcomer whose stricter
	// TTFT class gives it an earlier deadline (so plain EDF would
	// displace the in-flight request).
	strict := qos.Class{Name: "Q0", Kind: qos.Interactive,
		SLO: qos.SLO{TTFT: 50 * sim.Millisecond, TBT: 50 * sim.Millisecond}}
	now = inflight.FirstTokenDeadline() - 100*sim.Millisecond
	newcomer := req(2, now, 200, 2, strict)
	s.Add(newcomer, now)

	b = s.PlanBatch(now)
	if len(b.Prefill) == 0 {
		t.Fatal("no prefill planned")
	}
	// The at-risk in-flight request must be served this iteration (first
	// allocation), not displaced by the newcomer.
	if b.Prefill[0].Req != inflight {
		t.Fatalf("at-risk partial displaced; first alloc = request %d", b.Prefill[0].Req.ID)
	}
}

func TestSelectivePreemptionDisabled(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	opts := DefaultOptions()
	opts.AdaptiveAlpha = false
	opts.Alpha = 0
	opts.SelectivePreemption = false
	opts.EagerRelegation = false
	s := New(predictor.Oracle{Config: mc}, opts)

	now := sim.Time(0)
	inflight := req(1, 0, 3000, 2, q1())
	s.Add(inflight, now)
	b := s.PlanBatch(now)
	now += mc.BatchTime(b.Shape())
	inflight.RecordPrefill(b.Prefill[0].Tokens, now)
	s.OnBatchComplete(b, now)

	strict := qos.Class{Name: "Q0", Kind: qos.Interactive,
		SLO: qos.SLO{TTFT: 50 * sim.Millisecond, TBT: 50 * sim.Millisecond}}
	now = inflight.FirstTokenDeadline() - 100*sim.Millisecond
	newcomer := req(2, now, 200, 2, strict)
	s.Add(newcomer, now)
	b = s.PlanBatch(now)
	if b.Prefill[0].Req != newcomer {
		t.Fatal("without selective preemption, EDF order should put the newcomer first")
	}
}

func TestAdaptiveAlphaBacklogFallback(t *testing.T) {
	// Without eager relegation, the adaptive signal is raw backlog.
	opts := DefaultOptions()
	opts.EagerRelegation = false
	s := newSched(opts)
	if s.alpha() != alphaLow {
		t.Fatalf("initial alpha = %v, want low", s.alpha())
	}
	// Enqueue far more work than alphaSwitchBacklog of prefill.
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		s.Add(req(uint64(i+1), now, 10000, 2, q3()), now)
	}
	s.PlanBatch(now)
	if s.alpha() != opts.Alpha {
		t.Fatalf("alpha under backlog = %v, want high %v", s.alpha(), opts.Alpha)
	}
}

func TestAdaptiveAlphaDeadlinePressure(t *testing.T) {
	// With eager relegation, alpha rises only under projected deadline
	// pressure: a deep queue of relaxed-deadline work must NOT trigger it.
	// Plans are a second apart, so each after the first runs the
	// queue-wide pass (relegationInterval is 500 ms).
	opts := DefaultOptions()
	s := newSched(opts)
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		s.Add(req(uint64(i+1), now, 10000, 2, q3()), now) // 1800s TTLT: no pressure
	}
	s.PlanBatch(now)
	s.PlanBatch(now + sim.Second) // regime reads the previous pass's signal
	if s.alpha() != alphaLow {
		t.Fatalf("alpha = %v under relaxed backlog, want low", s.alpha())
	}
	// Now enqueue strict-TTFT work deep enough to project violations.
	for i := 0; i < 40; i++ {
		s.Add(req(uint64(100+i), now+sim.Second, 10000, 2, q1()), now+sim.Second)
	}
	s.PlanBatch(now + 2*sim.Second)
	s.PlanBatch(now + 3*sim.Second)
	if s.alpha() != opts.Alpha {
		t.Fatalf("alpha = %v under deadline pressure, want high %v", s.alpha(), opts.Alpha)
	}
}

func TestEndToEndDrain(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())
	var reqs []*request.Request
	classes := []qos.Class{q1(), q2(), q3()}
	for i := 0; i < 30; i++ {
		r := req(uint64(i+1), sim.Time(i)*100*sim.Millisecond,
			200+37*i, 1+i%7, classes[i%3])
		reqs = append(reqs, r)
	}
	now := sim.Time(0)
	idx := 0
	for iter := 0; s.Pending() > 0 || idx < len(reqs); iter++ {
		if iter > 200000 {
			t.Fatal("did not drain")
		}
		for idx < len(reqs) && reqs[idx].Arrival <= now {
			s.Add(reqs[idx], now)
			idx++
		}
		b := s.PlanBatch(now)
		if b.Empty() {
			if idx < len(reqs) {
				now = reqs[idx].Arrival
				continue
			}
			break
		}
		now += mc.BatchTime(b.Shape())
		for _, p := range b.Prefill {
			p.Req.RecordPrefill(p.Tokens, now)
		}
		for _, d := range b.Decodes {
			d.RecordDecodeToken(now)
		}
		s.OnBatchComplete(b, now)
	}
	for _, r := range reqs {
		if r.Phase() != request.Done {
			t.Errorf("request %d stuck in %v", r.ID, r.Phase())
		}
	}
	main, rel, dec := s.QueueLen()
	if main+rel+dec != 0 {
		t.Errorf("queues not empty: %d/%d/%d", main, rel, dec)
	}
}

func TestChunkLog(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())
	s.EnableChunkLog()
	r := req(1, 0, 5000, 3, q3())
	s.Add(r, 0)
	run(t, s, mc, 0, 10000, func() bool { return r.Phase() == request.Done })
	log := s.ChunkLog()
	if len(log) < 2 {
		t.Fatalf("chunk log has %d entries", len(log))
	}
	for i, rec := range log {
		if rec.ExecTime <= 0 {
			t.Errorf("entry %d missing exec time", i)
		}
	}
}

func TestSchedulerImplementsInterface(t *testing.T) {
	var _ sched.Scheduler = newSched(DefaultOptions())
	if got := newSched(DefaultOptions()).Name(); got != "QoServe" {
		t.Errorf("Name() = %q", got)
	}
}

func TestDefaultsAppliedForZeroOptions(t *testing.T) {
	s := newSched(Options{})
	if s.opts.MaxChunk != 2500 {
		t.Errorf("zero options not defaulted: %+v", s.opts)
	}
}

// TestRandomizedContractDrain subjects QoServe to the same randomized
// contract discipline as the baselines: random workloads must drain fully,
// every batch must reference only live requests with valid allocations, and
// relegated requests must still complete (no permanent rejection).
func TestRandomizedContractDrain(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 5; trial++ {
		s := New(predictor.Oracle{Config: mc}, DefaultOptions())
		classes := []qos.Class{q1(), q2(), q3()}
		n := 10 + rng.Intn(40)
		reqs := make([]*request.Request, n)
		for i := range reqs {
			prio := qos.High
			if rng.Intn(4) == 0 {
				prio = qos.Low
			}
			reqs[i] = &request.Request{
				ID:           uint64(i + 1),
				App:          "app",
				Class:        classes[rng.Intn(3)],
				Priority:     prio,
				Arrival:      sim.Time(rng.Intn(5000)) * sim.Millisecond,
				PromptTokens: 1 + rng.Intn(6000),
				DecodeTokens: 1 + rng.Intn(50),
			}
		}
		live := map[uint64]bool{}
		now := sim.Time(0)
		idx := 0
		for iter := 0; ; iter++ {
			if iter > 300000 {
				t.Fatalf("trial %d: no drain (pending %d)", trial, s.Pending())
			}
			for idx < n && reqs[idx].Arrival <= now {
				s.Add(reqs[idx], now)
				live[reqs[idx].ID] = true
				idx++
			}
			if len(live) == 0 && idx >= n {
				break
			}
			b := s.PlanBatch(now)
			if b.Empty() {
				if idx < n {
					now = reqs[idx].Arrival
					continue
				}
				t.Fatalf("trial %d: empty batch with %d live requests", trial, len(live))
			}
			seen := map[uint64]bool{}
			for _, p := range b.Prefill {
				if !live[p.Req.ID] || seen[p.Req.ID] {
					t.Fatalf("trial %d: invalid prefill for %d", trial, p.Req.ID)
				}
				seen[p.Req.ID] = true
				if p.Tokens <= 0 || p.Tokens > p.Req.RemainingPrefill() {
					t.Fatalf("trial %d: bad alloc %d/%d", trial, p.Tokens, p.Req.RemainingPrefill())
				}
			}
			for _, d := range b.Decodes {
				if !live[d.ID] || seen[d.ID] || d.Phase() != request.Decode {
					t.Fatalf("trial %d: invalid decode entry %d", trial, d.ID)
				}
				seen[d.ID] = true
			}
			now += mc.BatchTime(b.Shape())
			for _, p := range b.Prefill {
				p.Req.RecordPrefill(p.Tokens, now)
			}
			for _, d := range b.Decodes {
				d.RecordDecodeToken(now)
			}
			s.OnBatchComplete(b, now)
			for _, r := range reqs[:idx] {
				if live[r.ID] && r.Phase() == request.Done {
					delete(live, r.ID)
				}
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: pending %d after drain", trial, s.Pending())
		}
		main, rel, dec := s.QueueLen()
		if main+rel+dec != 0 {
			t.Fatalf("trial %d: queues not empty: %d/%d/%d", trial, main, rel, dec)
		}
	}
}

// TestPlannedBatchRespectsBudgetProperty: with an oracle predictor, for any
// randomized mix of in-flight decodes and queued prefills, every planned
// batch with a prefill chunk must execute within the iteration budget
// implied by the decodes' slack (floored per-decode at its TBT/late
// pacing, or raised to ttftRush when the front interactive request is
// projected to miss its TTFT), up to the minChunk progress floor.
func TestPlannedBatchRespectsBudgetProperty(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	rng := rand.New(rand.NewSource(77))
	classes := []qos.Class{q1(), q2(), q3()}
	for trial := 0; trial < 40; trial++ {
		s := New(predictor.Oracle{Config: mc}, DefaultOptions())
		s.EnableChunkLog()
		now := sim.Time(rng.Intn(10000)) * sim.Millisecond

		// Random decodes at various progress points.
		nDec := 1 + rng.Intn(20)
		for i := 0; i < nDec; i++ {
			r := req(uint64(i+1), sim.Time(rng.Intn(int(now)+1)), 16+rng.Intn(2000), 2+rng.Intn(40), classes[rng.Intn(3)])
			r.RecordPrefill(r.PromptTokens, r.Arrival+sim.Millisecond)
			for d := rng.Intn(r.DecodeTokens - 1); d > 0; d-- {
				r.RecordDecodeToken(r.Arrival + 2*sim.Millisecond)
			}
			s.decodes = append(s.decodes, r)
		}
		// Random queued prefills.
		for i := 0; i < 1+rng.Intn(5); i++ {
			s.Add(req(uint64(100+i), now, 64+rng.Intn(8000), 1+rng.Intn(10), classes[rng.Intn(3)]), now)
		}

		budget, floorBound := s.iterationBudget(now)
		b := s.PlanBatch(now)
		if planned := s.ChunkLog()[0].Budget; planned != budget {
			if !floorBound || planned != ttftRush {
				t.Fatalf("trial %d: planned budget %v, want %v or the rush", trial, planned, budget)
			}
			budget = planned
		}
		if b.PrefillTokens() <= minChunk {
			continue // the progress floor may legitimately exceed budget
		}
		exec := mc.BatchTime(b.Shape())
		// Allow the predictor-vs-true hairline (oracle: none) plus 1%.
		if float64(exec) > float64(budget)*1.01 {
			t.Fatalf("trial %d: batch %v runs %v, budget %v", trial, b, exec, budget)
		}
	}
}

// TestIterationBudgetPerDecodeProperty: the budget never exceeds any
// decode's max(safety*slack, floor), and never goes below the smallest
// floor.
func TestIterationBudgetPerDecodeProperty(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	rng := rand.New(rand.NewSource(88))
	classes := []qos.Class{q1(), q2(), q3()}
	for trial := 0; trial < 60; trial++ {
		s := New(predictor.Oracle{Config: mc}, DefaultOptions())
		now := 20 * sim.Second
		n := 1 + rng.Intn(15)
		minCap := sim.Forever
		for i := 0; i < n; i++ {
			r := req(uint64(i+1), sim.Time(rng.Intn(20000))*sim.Millisecond,
				16+rng.Intn(500), 2+rng.Intn(20), classes[rng.Intn(3)])
			r.RecordPrefill(r.PromptTokens, r.Arrival+sim.Millisecond)
			s.decodes = append(s.decodes, r)

			slack := r.NextTokenDeadline() - now
			if slack > 0 {
				slack = sim.Time(float64(slack) * slackSafety)
			}
			floor := r.Class.SLO.TBT
			if floor == 0 {
				floor = latePacing
			}
			cap := slack
			if cap < floor {
				cap = floor
			}
			if cap < minCap {
				minCap = cap
			}
		}
		budget, _ := s.iterationBudget(now)
		if budget != minCap {
			t.Fatalf("trial %d: budget %v != expected min %v", trial, budget, minCap)
		}
	}
}

func TestRelegationPassThrottled(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())
	s.Add(req(1, 0, 100, 2, q3()), 0)
	// Plans inside the first 500 ms relegationInterval run no queue-wide
	// pass (the throttle clock starts at zero).
	s.PlanBatch(0)
	s.PlanBatch(50 * sim.Millisecond)
	s.PlanBatch(450 * sim.Millisecond)
	if got := s.RelegationPasses(); got != 0 {
		t.Fatalf("passes = %d, want 0 (throttled)", got)
	}
	s.PlanBatch(550 * sim.Millisecond)
	s.PlanBatch(600 * sim.Millisecond)
	if got := s.RelegationPasses(); got != 1 {
		t.Fatalf("passes = %d, want 1", got)
	}
	s.PlanBatch(1100 * sim.Millisecond)
	if got := s.RelegationPasses(); got != 2 {
		t.Fatalf("passes = %d, want 2", got)
	}
}

func TestRelegatedRequestCompletionBookkeeping(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	s := New(predictor.Oracle{Config: mc}, DefaultOptions())
	// Relegate by arriving past the deadline, then run to completion; the
	// relegated queue must drain and history must record the decode.
	doomed := req(1, 0, 200, 3, q1())
	now := 10 * sim.Second
	s.Add(doomed, now)
	run(t, s, mc, now, 10000, func() bool { return doomed.Phase() == request.Done })
	_, rel, dec := s.QueueLen()
	if rel != 0 || dec != 0 {
		t.Fatalf("queues after relegated completion: rel=%d dec=%d", rel, dec)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
	if !doomed.Relegated {
		t.Fatal("relegation flag lost")
	}
}
