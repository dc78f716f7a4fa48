package server

import (
	"context"
	"testing"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
)

func newPrefixServer(t *testing.T, replicas int, lb cluster.GatewayBalancer) *Server {
	t.Helper()
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         replicas,
		Balancer:         lb,
		Classes:          qos.Table3(),
		Timescale:        2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// A session's second turn must land on the replica that cached its first
// turn's prefix and be served from cache — with four replicas a load-blind
// balancer would usually route it elsewhere.
func TestGatewayPrefixAffinityRouting(t *testing.T) {
	srv := newPrefixServer(t, 4, &cluster.PrefixAffinity{})

	prompt := 600
	chain := kvcache.SyntheticChain(11, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens))
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 4, PrefixHashes: chain})

	kv := srv.KVStats()
	if kv.PrefixHitTokens != 0 {
		t.Fatalf("first turn hit %d tokens", kv.PrefixHitTokens)
	}

	// Turn 2 re-sends the grown conversation; every block turn 1 cached
	// must hit, which only happens if routing found the right replica.
	grown := 900
	chain2 := kvcache.SyntheticChain(11, 0, kvcache.ChainBlocks(grown, kvcache.DefaultBlockTokens))
	copy(chain2, chain)
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: grown, DecodeTokens: 4, PrefixHashes: chain2})

	kv = srv.KVStats()
	want := uint64(len(chain) * kvcache.DefaultBlockTokens)
	if kv.PrefixHitTokens != want {
		t.Fatalf("second turn hit %d tokens, want %d", kv.PrefixHitTokens, want)
	}
	if kv.CachedHBMBlocks == 0 {
		t.Error("no blocks left cached after completion")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// Chainless submissions must flow through a prefix balancer unchanged, and
// distinct sessions must not contaminate each other's caches.
func TestGatewayPrefixDisjointSessions(t *testing.T) {
	srv := newPrefixServer(t, 2, &cluster.PrefixAffinity{})

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 300, DecodeTokens: 3})

	a := kvcache.SyntheticChain(1, 0, 12)
	b := kvcache.SyntheticChain(2, 0, 12)
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 300, DecodeTokens: 3, PrefixHashes: a})
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 300, DecodeTokens: 3, PrefixHashes: b})

	if kv := srv.KVStats(); kv.PrefixHitTokens != 0 {
		t.Fatalf("disjoint sessions hit %d tokens", kv.PrefixHitTokens)
	}

	// Replaying session A is a full hit wherever it landed.
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 300, DecodeTokens: 3, PrefixHashes: a})
	kv := srv.KVStats()
	if want := uint64(12 * kvcache.DefaultBlockTokens); kv.PrefixHitTokens != want {
		t.Fatalf("replay hit %d tokens, want %d", kv.PrefixHitTokens, want)
	}
}

// A chain longer than the prompt's shareable blocks must be truncated at
// submission so completed requests never leave stale over-length pins.
func TestGatewayTruncatesOverlongChain(t *testing.T) {
	srv := newPrefixServer(t, 1, &cluster.PrefixAffinity{})

	// 10 blocks of chain for a 65-token prompt (4 shareable blocks).
	chain := kvcache.SyntheticChain(3, 0, 10)
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 65, DecodeTokens: 2, PrefixHashes: chain})

	kv := srv.KVStats()
	if kv.CachedHBMBlocks != 4 {
		t.Fatalf("cached %d blocks, want 4 (chain truncated to shareable prefix)", kv.CachedHBMBlocks)
	}

	// The full-prompt replay hits exactly the truncated prefix.
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 65, DecodeTokens: 2, PrefixHashes: chain})
	if kv := srv.KVStats(); kv.PrefixHitTokens != 64 {
		t.Fatalf("replay hit %d tokens, want 64", kv.PrefixHitTokens)
	}
}

// Submission must not wait on any replica's prefix-cache lock: a serving
// loop holds kvMu while it pins prefixes or republishes its global-index
// snapshot, and a submitter that needs only the (immutable) block size
// has no business queueing behind that; routing probes the global index,
// never the cache. The test holds replica 0's kvMu across a burst of
// submissions routed to both replicas, by a load-blind and by a
// prefix-aware balancer.
func TestSubmitDoesNotTakeReplicaCacheLock(t *testing.T) {
	for _, lb := range []cluster.GatewayBalancer{&cluster.AtomicRoundRobin{}, &cluster.PrefixAffinity{}} {
		submitWithCacheLocked(t, newPrefixServer(t, 2, lb))
	}
}

func submitWithCacheLocked(t *testing.T, srv *Server) {
	t.Helper()
	prompt := 600
	chain := kvcache.SyntheticChain(5, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens)+3)

	srv.reps[0].kvMu.Lock()
	locked := true
	defer func() {
		if locked {
			srv.reps[0].kvMu.Unlock()
		}
	}()
	streams := make(chan []*Stream, 1)
	go func() {
		var out []*Stream
		for i := 0; i < 4; i++ {
			st, err := srv.Submit(Submission{Class: "Q1", PromptTokens: prompt, DecodeTokens: 2, PrefixHashes: chain})
			if err != nil {
				t.Error(err)
				break
			}
			out = append(out, st)
		}
		streams <- out
	}()
	var got []*Stream
	select {
	case got = <-streams:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit blocked while replica 0's kvMu was held")
	}
	srv.reps[0].kvMu.Unlock()
	locked = false
	for _, st := range got {
		drain(st)
	}
}
