package disagg

import (
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

var testDS = workload.Dataset{Name: "tiny",
	Prompt: workload.TokenDist{P50: 600, P90: 2000},
	Decode: workload.TokenDist{P50: 40, P90: 300},
}

func gen(t testing.TB, n int, qps float64) []*request.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.Spec{
		Dataset:  testDS,
		Tiers:    workload.EqualTiers(qos.Table3()),
		Arrivals: workload.Poisson{QPS: qps},
		Requests: n,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestPrefillOnlyProjection(t *testing.T) {
	trace := gen(t, 50, 3)
	proj := PrefillOnly(trace)
	if len(proj) != len(trace) {
		t.Fatalf("projection length %d", len(proj))
	}
	for i, r := range proj {
		if r.DecodeTokens != 1 {
			t.Fatalf("request %d decode tokens = %d", i, r.DecodeTokens)
		}
		if r.PromptTokens != trace[i].PromptTokens || r.Arrival != trace[i].Arrival {
			t.Fatal("projection altered workload fields")
		}
		if r == trace[i] {
			t.Fatal("projection aliases original")
		}
	}
}

func TestRunCompletesAtFirstToken(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(t, 40, 2)
	sum, err := Run(mc, 1, func() sched.Scheduler {
		return sched.NewSarathi(sched.FCFS, DefaultChunk)
	}, trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	for _, o := range sum.Outcomes {
		if o.TTFT != o.TTLT {
			t.Fatalf("prefill-only request has TTFT %v != TTLT %v", o.TTFT, o.TTLT)
		}
	}
}

func TestLargeChunkBeatsSmallChunkOnPrefillNodes(t *testing.T) {
	// With no TBT pressure, the 8K chunk should deliver clearly better
	// prefill latency than a 256 chunk at the same load.
	mc := model.Llama3_8B_A100_TP1()
	big, err := Run(mc, 1, func() sched.Scheduler {
		return sched.NewSarathi(sched.FCFS, DefaultChunk)
	}, gen(t, 60, 3), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(mc, 1, func() sched.Scheduler {
		return sched.NewSarathi(sched.FCFS, 256)
	}, gen(t, 60, 3), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if big.TTFTQuantile(metrics.All, 0.9) >= small.TTFTQuantile(metrics.All, 0.9) {
		t.Errorf("8K chunk p90 TTFT %v not better than 256 chunk %v",
			big.TTFTQuantile(metrics.All, 0.9), small.TTFTQuantile(metrics.All, 0.9))
	}
}

func TestMaxGoodputDisagg(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	// Prompts several times testDS's, over enough requests that the
	// prefill tier saturates well below the search ceiling: a capacity at
	// MaxQPS would mean the climb never failed a probe and nothing was
	// bracketed.
	heavy := workload.Dataset{Name: "prefill-heavy",
		Prompt: workload.TokenDist{P50: 2048, P90: 6144},
		Decode: testDS.Decode,
	}
	genQPS := func(qps float64) ([]*request.Request, error) {
		return workload.Generate(workload.Spec{
			Dataset:  heavy,
			Tiers:    workload.EqualTiers(qos.Table3()),
			Arrivals: workload.Poisson{QPS: qps},
			Requests: 400,
			Seed:     23,
		})
	}
	opts := cluster.SearchOptions{Tolerance: 0.5, MaxQPS: 64}
	qps, sum, err := MaxGoodput(mc, func() sched.Scheduler {
		return sched.NewSarathi(sched.EDF, DefaultChunk)
	}, genQPS, opts)
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 0 || qps >= opts.MaxQPS {
		t.Fatalf("capacity = %v, want inside (0, %v)", qps, opts.MaxQPS)
	}
	if sum.ViolationRate(metrics.All) > 0.01 {
		t.Fatalf("capacity run violates: %v", sum.ViolationRate(metrics.All))
	}
}
