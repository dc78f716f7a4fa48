package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// TestGatewayCrossReplicaTransfer warms one replica's prefix cache, then
// forces the session's next turn onto the other replica: with KV transfer
// enabled the prefix must be imported over the interconnect — credited
// like a local hit and counted as transfer tokens — instead of recomputed.
func TestGatewayCrossReplicaTransfer(t *testing.T) {
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         2,
		Balancer:         &cluster.AtomicRoundRobin{}, // blind rotation: turn 2 lands on the cold replica
		Classes:          qos.Table3(),
		Timescale:        2000,

		KVTransferBandwidth: 64e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if srv.prefixIdx == nil {
		t.Fatal("KVTransferBandwidth did not enable the global prefix index")
	}

	prompt := 512
	chain := kvcache.SyntheticChain(21, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens))
	shareable := uint64(len(chain) * kvcache.DefaultBlockTokens)

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})
	kv := srv.KVStats()
	if kv.PrefixTransferTokens != 0 || kv.PrefixHitTokens != 0 {
		t.Fatalf("cold turn counted hits (%d) or transfers (%d)", kv.PrefixHitTokens, kv.PrefixTransferTokens)
	}

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})
	kv = srv.KVStats()
	if kv.PrefixTransferTokens != shareable {
		t.Fatalf("transferred %d tokens, want %d (full cached prefix imported)", kv.PrefixTransferTokens, shareable)
	}
	if kv.PrefixHitTokens != shareable {
		t.Fatalf("imported prefix credited %d hit tokens, want %d", kv.PrefixHitTokens, shareable)
	}
	if kv.TransferFallbacks != 0 {
		t.Fatalf("%d transfer fallbacks on a healthy gateway", kv.TransferFallbacks)
	}
	xfer := sim.FromSeconds(srv.reps[1].core.ImportSeconds(int(shareable))).Seconds()
	if kv.ImportSeconds != xfer || kv.ImportStallSeconds > kv.ImportSeconds {
		t.Fatalf("import took %v s and stalled %v s, want %v s and at most that", kv.ImportSeconds, kv.ImportStallSeconds, xfer)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("qoserve_kvcache_import_seconds_total %g\n", kv.ImportSeconds),
		fmt.Sprintf("qoserve_kvcache_import_stall_seconds_total %g\n", kv.ImportStallSeconds),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Both replicas now hold the chain, so a third turn hits locally
	// wherever the rotation lands it — no further interconnect traffic.
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})
	kv = srv.KVStats()
	if kv.PrefixTransferTokens != shareable {
		t.Fatalf("third turn moved KV again (%d transfer tokens, want %d)", kv.PrefixTransferTokens, shareable)
	}
	if want := 2 * shareable; kv.PrefixHitTokens != want {
		t.Fatalf("third turn hit %d cumulative tokens, want %d", kv.PrefixHitTokens, want)
	}

	// Satellite observability: /debug/load exposes cache residency and the
	// per-replica index epoch.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/load", nil))
	var lr LoadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	for _, r := range lr.Replicas {
		if r.CachedChainBlocks == 0 {
			t.Errorf("replica %d reports no cached chain blocks after serving the session", r.Replica)
		}
		if r.IndexEpoch == 0 {
			t.Errorf("replica %d never published to the global index", r.Replica)
		}
		if r.HBMUtilization <= 0 || r.HBMUtilization > 1 {
			t.Errorf("replica %d HBM utilization %v outside (0,1]", r.Replica, r.HBMUtilization)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayImportPlannedEarlyAddsNoStall holds the cold replica's inbox
// so that a session's second turn is admitted more than one transfer time
// after its import was planned: the transfer has landed by then, so the
// batch that prefills the turn waits for none of it.
func TestGatewayImportPlannedEarlyAddsNoStall(t *testing.T) {
	const timescale = 1
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         2,
		Balancer:         &cluster.AtomicRoundRobin{}, // turn 1 on replica 0, turn 2 on replica 1
		Classes:          qos.Table3(),
		Timescale:        timescale,

		KVTransferBandwidth: 64e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	prompt := 512
	chain := kvcache.SyntheticChain(22, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens))
	sub := Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain}
	serveOne(t, srv, sub)

	cold := srv.reps[1]
	cold.inboxMu.Lock()
	var st Stream
	submitted := make(chan error, 1)
	go func() { submitted <- srv.SubmitTo(sub, &st) }()
	// SubmitTo counts the request against the replica after planning its
	// import and before taking the inbox lock.
	for cold.load.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	xfer := cold.core.ImportSeconds(len(chain) * kvcache.DefaultBlockTokens)
	time.Sleep(time.Duration(2*xfer/timescale*float64(time.Second)) + time.Millisecond)
	cold.inboxMu.Unlock()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if _, last := drain(&st); last.Token != 4 {
		t.Fatalf("turn 2 ended at token %d, want 4", last.Token)
	}

	kv := srv.KVStats()
	if kv.PrefixTransferTokens == 0 || kv.ImportSeconds == 0 {
		t.Fatalf("turn 2 imported nothing (%d tokens, %v s)", kv.PrefixTransferTokens, kv.ImportSeconds)
	}
	if kv.ImportStallSeconds != 0 {
		t.Fatalf("import planned %v s before admission stalled %v s", 2*xfer, kv.ImportStallSeconds)
	}
}

// TestChaosTransferSourceCrashFallsBackToRecompute crashes the replica
// holding a session's prefix between turns: the stale global index still
// advertises the dead holder, so the next turn plans an import from it —
// and admission must detect the crash, count a fallback, and recompute.
// The request completes normally; nothing is dropped or failed.
func TestChaosTransferSourceCrashFallsBackToRecompute(t *testing.T) {
	srv := newDisaggServer(t, Config{
		Replicas:        3,
		PrefillReplicas: 2,
		Balancer:        &cluster.PrefixAffinity{},

		KVTransferBandwidth: 64e9,
	})

	prompt := 512
	chain := kvcache.SyntheticChain(31, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens))
	serveOne(t, srv, Submission{Class: "Q2", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})

	holder, hit := srv.prefixIdx.BestMatch(srv.prefillReps, chain)
	if holder < 0 || hit == 0 {
		t.Fatalf("warm turn published nothing (holder %d, hit %d)", holder, hit)
	}
	if err := srv.Crash(holder); err != nil {
		t.Fatal(err)
	}

	// Turn 2: affinity routes to the dead holder, health fails it over to
	// the survivor, and the planned import from the stale index entry must
	// collapse to recompute at admission.
	st, err := srv.Submit(Submission{Class: "Q2", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})
	if err != nil {
		t.Fatal(err)
	}
	if _, last := drain(st); last.Token != 4 {
		t.Fatalf("post-crash turn ended at token %d, want 4", last.Token)
	}
	if reason := st.Result().Failed; reason != "" {
		t.Fatalf("post-crash turn failed: %q", reason)
	}

	kv := srv.KVStats()
	if kv.TransferFallbacks == 0 {
		t.Fatal("crashed transfer source recorded no fallback")
	}
	if kv.PrefixTransferTokens != 0 {
		t.Fatalf("%d tokens transferred from a dead replica", kv.PrefixTransferTokens)
	}
	if got := srv.failedReqs.Load(); got != 0 {
		t.Fatalf("%d requests failed; fallback must recompute, not drop", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
