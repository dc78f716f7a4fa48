package loadgen

import (
	"context"
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/model"
	"qoserve/internal/predictor/forests"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

// transferSpec is a trimmed long-prompt session workload: multi-turn
// conversations whose accumulated context makes a recomputed prefix
// expensive, so predicted routing has reason to move a turn off its
// holder and import the cached prefix instead.
func transferSpec() Spec {
	return Spec{
		Seed:         29,
		Mode:         Closed,
		Requests:     96,
		Workers:      16,
		SessionTurns: 8,
		FollowUp:     workload.TokenDist{P50: 64, P90: 128, Max: 256},
		Classes: []Class{
			{Name: "Q1", Weight: 0.5, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 1024, P90: 3072, Max: 8192},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
			{Name: "Q2", Weight: 0.3, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 512, P90: 2048, Max: 8192},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
			{Name: "Q3", Weight: 0.2, Priority: qos.Low,
				Prompt: workload.TokenDist{P50: 2048, P90: 4096, Max: 8192},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
		},
	}
}

// TestSessionKVTransfer runs the session workload through a 4-replica
// gateway whose predicted-latency balancer prices cross-replica prefix
// imports over a 64 GB/s interconnect. Every request must complete with
// no dropped stream event, and the cache must both hit and move prefixes
// between replicas: a transfer pipeline that silently stopped importing
// would still complete every request, so only the counter shows it.
func TestSessionKVTransfer(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	forest, err := forests.Load(mc)
	if err != nil {
		t.Fatal(err)
	}
	const bandwidth = 64e9
	srv, err := server.New(server.Config{
		Model:            mc,
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         4,
		Balancer: &cluster.PredictedLatency{
			Predictor: forest,
			Transfer: &cluster.TransferModel{
				BytesPerToken: mc.Model.KVBytesPerToken(),
				BandwidthBps:  bandwidth,
			},
		},
		Classes:             qos.Table3(),
		Timescale:           1000,
		KVTransferBandwidth: bandwidth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := transferSpec()
	rep, err := Run(context.Background(), srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != spec.Requests || rep.Errors != 0 {
		t.Fatalf("completed %d of %d, %d errors", rep.Completed, spec.Requests, rep.Errors)
	}
	if d := srv.DroppedEvents(); d != 0 {
		t.Fatalf("%d stream events dropped", d)
	}
	if rep.PrefixHitTokens == 0 {
		t.Fatal("session workload produced no prefix hits")
	}
	if rep.PrefixTransferTokens == 0 {
		t.Fatalf("no prefix imported across replicas (%d hit tokens, all local)", rep.PrefixHitTokens)
	}
}
