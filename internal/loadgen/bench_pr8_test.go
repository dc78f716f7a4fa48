package loadgen

import (
	"context"
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

// sessionTransferSpec is the workload behind BENCH_PR8: long-prompt
// multi-turn sessions whose accumulated context makes every recomputed
// prefix expensive. Pure prefix affinity pins each session to the replica
// that served turn 1, so hot replicas stack long prefills while others
// idle; transfer-enabled predicted routing can move a turn to a quieter
// replica and import the cached prefix over the interconnect instead of
// recomputing it.
func sessionTransferSpec() Spec {
	return Spec{
		Seed:         29,
		Mode:         Closed,
		Requests:     320,
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

// benchSessionTransfer drives the session workload against a 4-replica
// colocated gateway. A fresh gateway per iteration keeps cache state from
// leaking between runs; transfer wires a 64 GB/s KV interconnect into the
// config.
func benchSessionTransfer(b *testing.B, transfer bool, newLB func() cluster.GatewayBalancer) {
	spec := sessionTransferSpec()
	var reqs, ttft50, ttft90, ttft99, hit, moved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := server.Config{
			Model:            model.Llama3_8B_A100_TP1(),
			SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
			Replicas:         4,
			Balancer:         newLB(),
			Classes:          qos.Table3(),
			Timescale:        1000,
		}
		if transfer {
			cfg.KVTransferBandwidth = 64e9
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Run(context.Background(), srv, spec)
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != spec.Requests {
			b.Fatalf("completed %d of %d", rep.Completed, spec.Requests)
		}
		reqs += rep.ReqPerSec
		ttft50 += rep.TTFTP50MS
		ttft90 += rep.TTFTP90MS
		ttft99 += rep.TTFTP99MS
		hit += float64(rep.PrefixHitTokens)
		moved += float64(rep.PrefixTransferTokens)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(reqs/n, "req/s")
	b.ReportMetric(ttft50/n, "ttft_p50_ms")
	b.ReportMetric(ttft90/n, "ttft_p90_ms")
	b.ReportMetric(ttft99/n, "ttft_p99_ms")
	b.ReportMetric(hit/n, "prefix_hit_tokens")
	b.ReportMetric(moved/n, "prefix_transfer_tokens")
}

// BenchmarkSessionPrefixAffinityRecompute is the PR 6 baseline: prefix
// affinity with per-replica cache probes and no cross-replica transfer —
// a turn routed off its holder recomputes the whole prefix.
func BenchmarkSessionPrefixAffinityRecompute(b *testing.B) {
	benchSessionTransfer(b, false, func() cluster.GatewayBalancer { return &cluster.PrefixAffinity{} })
}

// BenchmarkSessionPrefixPredictedTransfer scores every replica's predicted
// completion with the cached-anywhere prefix importable over the modeled
// interconnect, so load balance and cache reuse stop trading off.
func BenchmarkSessionPrefixPredictedTransfer(b *testing.B) {
	forest := benchPredictor(b)
	benchSessionTransfer(b, true, func() cluster.GatewayBalancer {
		return &cluster.PredictedLatency{
			Predictor: forest,
			Transfer: &cluster.TransferModel{
				BytesPerToken: model.Llama3_8B_A100_TP1().Model.KVBytesPerToken(),
				BandwidthBps:  64e9,
			},
		}
	})
}
