package main

import (
	"reflect"
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/request"
	"qoserve/internal/workload"
)

func forestForTest(t *testing.T) (model.Config, *predictor.Forest) {
	t.Helper()
	mc := model.Llama3_8B_A100_TP1()
	f, err := trainForest(mc)
	if err != nil {
		t.Fatal(err)
	}
	return mc, f
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	mc, f := forestForTest(t)
	rec := newRecorder()
	open := &planCtx{}

	wp, err := wrapPredictor(f, rec, open)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wp.(predictor.FeaturePredictor); !ok {
		t.Error("wrapped forest lost its feature fast path")
	}
	shape := model.BatchShape{Prefill: []model.ChunkShape{{Tokens: 700, CtxStart: 100}}, DecodeCtx: []int{900, 40}}
	if wp.PredictSafe(shape) != f.PredictSafe(shape) || wp.Predict(shape) != f.Predict(shape) {
		t.Error("wrapped forest predicts differently")
	}
	if _, err := wrapPredictor(predictor.Oracle{Config: mc}, rec, open); err != nil {
		t.Errorf("oracle (no feature path): %v", err)
	}

	if _, err := wrapSched(core.New(wp, core.DefaultOptions()), rec, mc, open); err != nil {
		t.Errorf("core scheduler: %v", err)
	}

	for _, lb := range []cluster.GatewayBalancer{
		&cluster.AtomicRoundRobin{},
		cluster.LeastLoaded{},
		&cluster.PrefixAffinity{MinMatchTokens: cluster.DefaultMinMatchTokens},
		&cluster.PredictedLatency{Predictor: f},
	} {
		if _, err := wrapBalancer(lb, rec); err != nil {
			t.Errorf("%T: %v", lb, err)
		}
	}
}

func TestSameInterfacesCatchesADroppedInterface(t *testing.T) {
	_, f := forestForTest(t)
	lb := &cluster.PredictedLatency{Predictor: f}
	if err := sameInterfaces(lb, &tracedBalancer{inner: lb}); err == nil {
		t.Error("a plain wrapper around the predicted balancer passed the parity check")
	}
}

// A traced simulation must take the same decisions as an untraced one:
// every request's outcome is identical.
func TestTracedSimMatchesUntraced(t *testing.T) {
	mc, f := forestForTest(t)
	gen := func() []*request.Request {
		reqs, err := workload.Generate(workload.Spec{
			Dataset: azureConv8K(), Tiers: table3Tiers(),
			Arrivals: workload.Gamma{QPS: simQPS, CV: simCV}, Requests: 2000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	plain := gen()
	want, err := cluster.RunShared(mc, simReplicas, qoserveFactory(f), plain, simHorizon(plain))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	factory, err := tracedFactory(mc, f, rec)
	if err != nil {
		t.Fatal(err)
	}
	traced := gen()
	got, err := cluster.RunShared(mc, simReplicas, factory, traced, simHorizon(traced))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) || got.End != want.End {
		t.Errorf("traced run diverged: tallies %s vs %s", tallies(got), tallies(want))
	}
	if rec.calls(spanPlan) == 0 || rec.calls(spanPredict) == 0 || rec.calls(spanAdd) != 2000 {
		t.Errorf("traced run recorded %d plans, %d predictions, %d adds", rec.calls(spanPlan), rec.calls(spanPredict), rec.calls(spanAdd))
	}
	if rec.counter("iter.actual_s") != rec.counter("iter.modeled_s") {
		t.Errorf("simulated iterations overran their modeled time: %v vs %v s",
			rec.counter("iter.actual_s"), rec.counter("iter.modeled_s"))
	}
}
