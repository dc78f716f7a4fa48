package replica

import (
	"testing"

	"qoserve/internal/core"
	"qoserve/internal/kvcache"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func smallTrace(t *testing.T, n int, qps float64) []*request.Request {
	t.Helper()
	// Modest token counts keep unit-test runtime low.
	ds := workload.Dataset{Name: "tiny",
		Prompt: workload.TokenDist{P50: 400, P90: 1200},
		Decode: workload.TokenDist{P50: 10, P90: 40},
	}
	reqs, err := workload.Generate(workload.Spec{
		Dataset:  ds,
		Tiers:    workload.EqualTiers(qos.Table3()),
		Arrivals: workload.Poisson{QPS: qps},
		Requests: n,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestRunDrainsTraceSarathi(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := smallTrace(t, 60, 2)
	sum, rep, err := Run(mc, sched.NewSarathi(sched.FCFS, 256), trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	if rep.Iterations() == 0 {
		t.Fatal("no work recorded")
	}
	if rep.Scheduler().Pending() != 0 {
		t.Fatal("scheduler still pending")
	}
	// All KV released at the end.
	if n := rep.core.kv.Holders(); n != 0 {
		t.Fatalf("%d KV holders leaked", n)
	}
}

func TestRunDrainsTraceQoServe(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := smallTrace(t, 60, 2)
	s := core.New(predictor.Oracle{Config: mc}, core.DefaultOptions())
	sum, rep, err := Run(mc, s, trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	if n := rep.core.kv.Holders(); n != 0 {
		t.Fatalf("%d KV holders leaked", n)
	}
	// At this light load QoServe should meet essentially all SLOs.
	if v := sum.ViolationRate(metrics.All); v > 0.05 {
		t.Errorf("violation rate %v at light load", v)
	}
}

func TestRunHorizonTruncates(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := smallTrace(t, 60, 2)
	sum, _, err := Run(mc, sched.NewSarathi(sched.FCFS, 256), trace, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sum.End != 5*sim.Second {
		t.Fatalf("end = %v, want 5s", sum.End)
	}
	if sum.CompletionRate(metrics.All) >= 1 {
		t.Fatal("everything completed despite truncation")
	}
}

func TestTTFTOrderReflectsPolicy(t *testing.T) {
	// Under FCFS a tiny urgent request behind a giant one waits; EDF
	// (with an interactive class) serves it promptly.
	mc := model.Llama3_8B_A100_TP1()
	giant := &request.Request{ID: 1, App: "Q3", Class: qos.Table3()[2],
		Arrival: 0, PromptTokens: 12000, DecodeTokens: 2}
	urgent := &request.Request{ID: 2, App: "Q1", Class: qos.Table3()[0],
		Arrival: 10 * sim.Millisecond, PromptTokens: 100, DecodeTokens: 2}

	runWith := func(s sched.Scheduler) (giantTTFT, urgentTTFT sim.Time) {
		tr := workload.Clone([]*request.Request{giant, urgent})
		_, _, err := Run(mc, s, tr, sim.Forever)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := tr[0].TTFT()
		u, _ := tr[1].TTFT()
		return g, u
	}

	_, uFCFS := runWith(sched.NewSarathi(sched.FCFS, 256))
	_, uEDF := runWith(sched.NewSarathi(sched.EDF, 256))
	if uEDF >= uFCFS {
		t.Errorf("EDF urgent TTFT %v not better than FCFS %v", uEDF, uFCFS)
	}
}

func TestKVPressureDefersAdmission(t *testing.T) {
	// A replica with a tiny KV cache must defer prefill admissions (full
	// final-context reservation) and still finish everything.
	mc := model.Llama3_8B_A100_TP1()
	engine := sim.NewEngine()
	rep, err := New(engine, mc, sched.NewSarathi(sched.FCFS, 256))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the cache to ~1200 tokens.
	small, err := kvcache.NewManager(1200, 16)
	if err != nil {
		t.Fatal(err)
	}
	rep.core = NewCore(mc, rep.core.sch, small, CoreOptions{})

	var reqs []*request.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, &request.Request{
			ID: uint64(i + 1), App: "Q3", Class: qos.Table3()[2],
			Arrival: sim.Time(i) * sim.Millisecond, PromptTokens: 500, DecodeTokens: 30,
		})
	}
	for _, r := range reqs {
		r := r
		engine.AtPriority(r.Arrival, -1, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) {
			rep.Submit(r)
		}))
	}
	engine.Run()
	for _, r := range reqs {
		if r.Phase() != request.Done {
			t.Fatalf("request %d stuck in %v under KV pressure", r.ID, r.Phase())
		}
	}
	if rep.KVDeferrals() == 0 {
		t.Error("tiny cache exercised no admission deferral")
	}
	if small.Holders() != 0 {
		t.Errorf("%d KV holders leaked", small.Holders())
	}
}

func TestDeterminism(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	run1, _, err := Run(mc, sched.NewSarathi(sched.EDF, 256), smallTrace(t, 40, 3), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	run2, _, err := Run(mc, sched.NewSarathi(sched.EDF, 256), smallTrace(t, 40, 3), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if run1.End != run2.End {
		t.Fatalf("non-deterministic end: %v vs %v", run1.End, run2.End)
	}
	for i := range run1.Outcomes {
		if run1.Outcomes[i] != run2.Outcomes[i] {
			t.Fatalf("outcome %d differs", i)
		}
	}
}

func BenchmarkReplicaSarathi(b *testing.B) {
	mc := model.Llama3_8B_A100_TP1()
	ds := workload.Dataset{Name: "tiny",
		Prompt: workload.TokenDist{P50: 400, P90: 1200},
		Decode: workload.TokenDist{P50: 10, P90: 40},
	}
	reqs, err := workload.Generate(workload.Spec{
		Dataset: ds, Tiers: workload.EqualTiers(qos.Table3()),
		Arrivals: workload.Poisson{QPS: 3}, Requests: 200, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := workload.Clone(reqs)
		if _, _, err := Run(mc, sched.NewSarathi(sched.FCFS, 256), tr, sim.Forever); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOversizedRequestRejectedNotLivelocked(t *testing.T) {
	// A request whose context exceeds the whole cache must be rejected at
	// submit — without the guard its admission would retry forever.
	mc := model.Llama3_8B_A100_TP1()
	engine := sim.NewEngine()
	rep, err := New(engine, mc, sched.NewSarathi(sched.FCFS, 256))
	if err != nil {
		t.Fatal(err)
	}
	small, err := kvcache.NewManager(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	rep.core = NewCore(mc, rep.core.sch, small, CoreOptions{})

	huge := &request.Request{ID: 1, App: "Q3", Class: qos.Table3()[2],
		Arrival: 0, PromptTokens: 1000, DecodeTokens: 10}
	ok := &request.Request{ID: 2, App: "Q3", Class: qos.Table3()[2],
		Arrival: sim.Millisecond, PromptTokens: 100, DecodeTokens: 5}
	engine.At(0, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) { rep.Submit(huge) }))
	engine.At(sim.Millisecond, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) { rep.Submit(ok) }))
	engine.RunUntil(10 * sim.Minute)
	// An admission livelock would retry every 10 ms for the whole run
	// (~60000 events); a clean rejection leaves only the handful of real
	// iterations.
	if engine.Fired() > 1000 {
		t.Fatalf("%d events fired: admission livelock", engine.Fired())
	}
	if rep.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", rep.Rejected())
	}
	if huge.Phase() != request.Queued {
		t.Fatalf("rejected request progressed to %v", huge.Phase())
	}
	if ok.Phase() != request.Done {
		t.Fatalf("serviceable request stuck in %v", ok.Phase())
	}
	// The rejected request reads as a violation once its deadline passes.
	sum := metrics.NewSummary([]*request.Request{huge, ok}, 2*sim.Hour, 1)
	if got := sum.ViolationRate(metrics.All); got != 0.5 {
		t.Fatalf("violation rate = %v, want 0.5", got)
	}
}
