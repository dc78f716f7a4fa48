package cluster

import (
	"testing"

	"qoserve/internal/core"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

var testDS = workload.Dataset{Name: "tiny",
	Prompt: workload.TokenDist{P50: 400, P90: 1200},
	Decode: workload.TokenDist{P50: 10, P90: 40},
}

func gen(t testing.TB, n int, qps float64, seed int64) []*request.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.Spec{
		Dataset:  testDS,
		Tiers:    workload.EqualTiers(qos.Table3()),
		Arrivals: workload.Poisson{QPS: qps},
		Requests: n,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func sarathiFactory() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 256) }

func qoserveFactory() sched.Scheduler {
	return core.New(predictor.Oracle{Config: model.Llama3_8B_A100_TP1()}, core.DefaultOptions())
}

func TestNewValidation(t *testing.T) {
	engine := sim.NewEngine()
	if _, err := New(engine, model.Llama3_8B_A100_TP1(), 0, sarathiFactory); err == nil {
		t.Error("zero replicas accepted")
	}
	bad := model.Llama3_8B_A100_TP1()
	bad.TP = -1
	if _, err := New(engine, bad, 1, sarathiFactory); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(t, 90, 8, 3)
	engine := sim.NewEngine()
	c, err := New(engine, mc, 3, sarathiFactory)
	if err != nil {
		t.Fatal(err)
	}
	scheduleArrivals(engine, c, trace)
	engine.Run()
	for i, rep := range c.Replicas() {
		if got := rep.Submitted(); got != 30 {
			t.Errorf("replica %d served %d, want 30", i, got)
		}
	}
	if c.GPUs(mc) != 3 {
		t.Errorf("GPUs = %d", c.GPUs(mc))
	}
}

func TestSharedClusterScalesThroughput(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	// A load that swamps one replica should be fine on four.
	trace1 := gen(t, 120, 6, 7)
	one, err := RunShared(mc, 1, sarathiFactory, trace1, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	trace4 := gen(t, 120, 6, 7)
	four, err := RunShared(mc, 4, sarathiFactory, trace4, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if four.ViolationRate(metrics.All) >= one.ViolationRate(metrics.All) &&
		one.ViolationRate(metrics.All) > 0 {
		t.Errorf("4 replicas (%v) not better than 1 (%v)",
			four.ViolationRate(metrics.All), one.ViolationRate(metrics.All))
	}
	if four.TTFTQuantile(metrics.All, 0.9) >= one.TTFTQuantile(metrics.All, 0.9) {
		t.Error("p90 TTFT did not improve with replicas")
	}
}

func TestSiloedRoutesByClass(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(t, 60, 3, 9)
	plan := SiloPlan{
		Replicas: map[string]int{"Q1": 1, "Q2": 1, "Q3": 1},
		Factory: func(class string) sched.Scheduler {
			if class == "Q1" {
				return sched.NewSarathi(sched.FCFS, 256)
			}
			return sched.NewSarathi(sched.FCFS, sched.RelaxedChunk)
		},
	}
	if plan.TotalReplicas() != 3 {
		t.Fatalf("total replicas = %d", plan.TotalReplicas())
	}
	sum, err := RunSiloed(mc, plan, trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	if sum.Replicas != 3 {
		t.Fatalf("summary replicas = %d", sum.Replicas)
	}
}

func TestSiloedRejectsUnknownClass(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(t, 10, 3, 9)
	plan := SiloPlan{
		Replicas: map[string]int{"Q1": 1}, // missing Q2/Q3
		Factory:  func(string) sched.Scheduler { return sched.NewSarathi(sched.FCFS, 256) },
	}
	if _, err := RunSiloed(mc, plan, trace, sim.Forever); err == nil {
		t.Error("missing silo accepted")
	}
}

func TestMaxGoodputFindsCrossover(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	traceGen := func(qps float64) ([]*request.Request, error) {
		return workload.Generate(workload.Spec{
			Dataset:  testDS,
			Tiers:    workload.EqualTiers(qos.Table3()),
			Arrivals: workload.Poisson{QPS: qps},
			Requests: 150,
			Seed:     11,
		})
	}
	qps, sum, err := MaxGoodput(mc, sarathiFactory, traceGen, SearchOptions{Tolerance: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 0.1 || qps >= 64 {
		t.Fatalf("implausible capacity %v QPS", qps)
	}
	if sum.ViolationRate(metrics.All) > 0.01 {
		t.Fatalf("returned summary violates target: %v", sum.ViolationRate(metrics.All))
	}
	// Just above the found capacity, the target must fail (bracketing).
	trace, err := traceGen(qps * 1.5)
	if err != nil {
		t.Fatal(err)
	}
	over, err := RunShared(mc, 1, sarathiFactory, trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if over.ViolationRate(metrics.All) <= 0.01 {
		t.Errorf("50%% above capacity still meets target")
	}
}

func TestMinReplicas(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	mkTrace := func() ([]*request.Request, error) {
		return workload.Generate(workload.Spec{
			Dataset:  testDS,
			Tiers:    workload.EqualTiers(qos.Table3()),
			Arrivals: workload.Poisson{QPS: 8},
			Requests: 160,
			Seed:     13,
		})
	}
	n, sum, err := MinReplicas(mc, qoserveFactory, mkTrace, 16, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 16 {
		t.Fatalf("n = %d", n)
	}
	if sum.ViolationRate(metrics.All) > 0.01 {
		t.Fatalf("min-replica run violates: %v", sum.ViolationRate(metrics.All))
	}
	// n-1 replicas must fail, otherwise n wasn't minimal.
	if n > 1 {
		trace, err := mkTrace()
		if err != nil {
			t.Fatal(err)
		}
		under, err := RunShared(mc, n-1, qoserveFactory, trace, sim.Forever)
		if err != nil {
			t.Fatal(err)
		}
		if under.ViolationRate(metrics.All) <= 0.01 {
			t.Errorf("%d replicas also meet the target; %d not minimal", n-1, n)
		}
	}
}

func TestMinReplicasInsufficientBudget(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	mkTrace := func() ([]*request.Request, error) {
		return workload.Generate(workload.Spec{
			Dataset:  testDS,
			Tiers:    workload.EqualTiers(qos.Table3()),
			Arrivals: workload.Poisson{QPS: 40},
			Requests: 200,
			Seed:     13,
		})
	}
	if _, _, err := MinReplicas(mc, sarathiFactory, mkTrace, 1, SearchOptions{}); err == nil {
		t.Error("1 replica at 40 QPS accepted")
	}
}

func TestBalancers(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	engine := sim.NewEngine()
	c, err := New(engine, mc, 3, sarathiFactory)
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin cycles deterministically.
	rr := &RoundRobin{}
	picks := []int{}
	for i := 0; i < 6; i++ {
		picks = append(picks, rr.PickIndex(len(c.Replicas()), nil))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("round-robin picks = %v", picks)
		}
	}

	// Least-loaded over pending requests prefers the idle replica.
	trace := gen(t, 6, 50, 99)
	for _, r := range trace[:4] {
		c.Replicas()[0].Submit(r)
	}
	for _, r := range trace[4:5] {
		c.Replicas()[1].Submit(r)
	}
	c.up = append(c.up[:0], c.Replicas()...)
	if got := (LeastLoaded{}).PickIndex(len(c.up), c.upLoad); got != 2 {
		t.Fatalf("least-loaded picked %d, want idle replica 2", got)
	}

	// SetBalancer is honored by Submit.
	c.SetBalancer(LeastLoaded{})
	c.Submit(trace[5])
	if got := c.Replicas()[2].Submitted(); got != 1 {
		t.Fatalf("replica 2 served %d, want 1", got)
	}
}

func TestSizePartition(t *testing.T) {
	trace := gen(t, 90, 3, 41) // ~30 per class
	sizes, err := SizePartition(trace, 30, map[string]float64{
		"Q1": 2, "Q2": 5, "Q3": 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Q1 gets ~10 QPS at goodput 2 -> ~5 replicas; Q2/Q3 ~10/5 -> 2.
	if sizes["Q1"] < 4 || sizes["Q1"] > 6 {
		t.Errorf("Q1 size = %d", sizes["Q1"])
	}
	if sizes["Q2"] < 2 || sizes["Q2"] > 3 {
		t.Errorf("Q2 size = %d", sizes["Q2"])
	}
	if _, err := SizePartition(trace, 30, map[string]float64{"Q1": 2}); err == nil {
		t.Error("missing goodput accepted")
	}
	if _, err := SizePartition(nil, 30, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestRunPartitioned(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(t, 60, 3, 43)
	plan := PartitionedPlan{
		Replicas: map[string]int{"Q1": 1, "Q2": 1, "Q3": 1},
		ChunkFor: func(class string) int {
			if class == "Q1" {
				return 256
			}
			return 1024
		},
		Policy: sched.EDF,
	}
	if plan.TotalReplicas() != 3 {
		t.Fatalf("total = %d", plan.TotalReplicas())
	}
	sum, err := RunPartitioned(mc, plan, trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	bad := plan
	bad.ChunkFor = nil
	if _, err := RunPartitioned(mc, bad, trace, sim.Forever); err == nil {
		t.Error("nil ChunkFor accepted")
	}
}
