package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qoserve/internal/disagg"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// newDisaggServer builds a two-tier gateway. Timescale 500 keeps
// iteration sleeps above the scheduler-jitter floor while finishing fast.
func newDisaggServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Model.Model.Name == "" {
		cfg.Model = model.Llama3_8B_A100_TP1()
	}
	cfg.Mode = "disagg"
	if cfg.Classes == nil {
		cfg.Classes = qos.Table3()
	}
	if cfg.Timescale == 0 {
		cfg.Timescale = 500
	}
	if cfg.SchedulerFactory == nil {
		cfg.SchedulerFactory = func() sched.Scheduler { return sched.NewSarathi(sched.EDF, 512) }
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestDisaggConfigValidation(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	factory := func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) }
	base := Config{Model: mc, SchedulerFactory: factory, Classes: qos.Table3()}

	bad := []func(*Config){
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 1 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.PrefillReplicas = 4 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.PrefillReplicas = -1 },
		func(c *Config) { c.Mode = "colocated"; c.Replicas = 4; c.PrefillReplicas = 2 },
		func(c *Config) { c.Mode = "spatial"; c.Replicas = 4 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.KVTransferBandwidth = -1 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config accepted, want error", i)
		}
	}

	cfg := base
	cfg.Mode = "disagg"
	cfg.Replicas = 5
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.prefillReps != 3 {
		t.Fatalf("default prefill tier %d, want 3 of 5", srv.prefillReps)
	}
	if srv.cfg.MaxDecodeBatch < 1 {
		t.Fatalf("derived decode batch %d", srv.cfg.MaxDecodeBatch)
	}
}

// TestDisaggDerivesDecodeBatchFromClasses pins the decode-tier batch cap
// to the strictest interactive TBT SLO among the configured classes, with
// 50 ms when no class is interactive.
func TestDisaggDerivesDecodeBatchFromClasses(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	at50 := disagg.DeriveDecodeBatch(mc, 50*sim.Millisecond, 2048)
	loose := qos.Class{Name: "Q1", Kind: qos.Interactive, SLO: qos.SLO{TTFT: 6 * sim.Second, TBT: 200 * sim.Millisecond}}
	for _, tc := range []struct {
		name    string
		classes []qos.Class
		want    int
	}{
		{"table3", qos.Table3(), at50},
		{"polyserve", qos.PolyServeTiers(), at50},
		{"non-interactive", qos.Table3()[1:], at50},
		{"loose", []qos.Class{loose}, disagg.DeriveDecodeBatch(mc, 200*sim.Millisecond, 2048)},
	} {
		srv := newDisaggServer(t, Config{Replicas: 2, Classes: tc.classes})
		if srv.cfg.MaxDecodeBatch != tc.want {
			t.Errorf("%s: decode batch %d, want %d", tc.name, srv.cfg.MaxDecodeBatch, tc.want)
		}
	}
	if at50 == disagg.DeriveDecodeBatch(mc, 200*sim.Millisecond, 2048) {
		t.Fatal("50 ms and 200 ms derive the same cap; the loose case proves nothing")
	}
}

// TestDisaggCompletesAllRequests drives a 2+2 gateway end to end: every
// request must stream its full output through the prefill -> transfer ->
// decode pipeline, and the handoff counters must account every prompt.
func TestDisaggCompletesAllRequests(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 4, PrefillReplicas: 2})
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		class := []string{"Q1", "Q2", "Q3"}[i%3]
		go func() {
			defer wg.Done()
			stream, err := srv.Submit(Submission{Class: class, PromptTokens: 400, DecodeTokens: 6})
			if err != nil {
				errs <- err
				return
			}
			if _, last := drain(stream); !last.Done || last.Token != 6 {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.handoffs.Load(); got != n {
		t.Errorf("handoffs = %d, want %d", got, n)
	}
	if got := srv.transferTokens.Load(); got != n*400 {
		t.Errorf("transfer tokens = %d, want %d", got, n*400)
	}
	// Prompt tokens are counted once, on the prefill tier; output tokens on
	// the decode tier (the first token of each request rides the prefill).
	if got := srv.prefillTokens.Load(); got != n*400 {
		t.Errorf("prefill tokens = %d, want %d", got, n*400)
	}
	if got := srv.decodeTokens.Load(); got != n*(6-1) {
		t.Errorf("decode tokens = %d, want %d", got, n*5)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{
		"qoserve_disagg_handoffs_total 12",
		"qoserve_disagg_transfer_tokens_total 4800",
		`qoserve_disagg_tier_replicas{tier="prefill"} 2`,
		`qoserve_disagg_tier_replicas{tier="decode"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDisaggPrefillTierPreemptsLongPrompt is the decoupled-granularity
// property: because the prefill tier runs the chunked EDF scheduler, a
// tight-deadline short prompt submitted behind a huge one overtakes it
// mid-prefill and finishes its whole pipeline before the huge prompt even
// produces a first token.
func TestDisaggPrefillTierPreemptsLongPrompt(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 2, PrefillReplicas: 1})
	giant, err := srv.Submit(Submission{Class: "Q3", PromptTokens: 8192, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the giant start prefilling
	short, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 256, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	drain(short)
	drain(giant)
	sres, gres := short.Result(), giant.Result()
	if sres.TTLT >= gres.TTFT {
		t.Fatalf("short request did not overtake the giant prefill: short TTLT %v, giant TTFT %v", sres.TTLT, gres.TTFT)
	}
}

// TestDebugLoadEndpoint checks /debug/load exposes per-replica roles,
// liveness, and every load-snapshot field.
func TestDebugLoadEndpoint(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 3, PrefillReplicas: 2})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/load", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, key := range []string{`"queued_requests":`, `"pending_prefill_tokens":`, `"active_decodes":`,
		`"sum_decode_ctx":`, `"max_decode_ctx":`, `"chunk_budget_tokens":`, `"index_epoch":`} {
		if strings.Count(string(body), key) != 3 {
			t.Errorf("/debug/load lacks %s on every replica: %s", key, body)
		}
	}
	var resp LoadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode /debug/load: %v\n%s", err, body)
	}
	if resp.Mode != "disagg" || len(resp.Replicas) != 3 {
		t.Fatalf("/debug/load mode %q with %d replicas, want disagg with 3", resp.Mode, len(resp.Replicas))
	}
	for i, want := range []string{"prefill", "prefill", "decode"} {
		r := resp.Replicas[i]
		if r.Replica != i || r.Role != want || !r.Up {
			t.Errorf("replica %d: %+v, want role %s and up", i, r, want)
		}
		// An idle gateway has no queued work and no decode contexts.
		if r.Load != 0 || r.QueuedRequests != 0 || r.PendingPrefillTokens != 0 ||
			r.ActiveDecodes != 0 || r.SumDecodeCtx != 0 || r.MaxDecodeCtx != 0 {
			t.Errorf("idle replica %d reports load: %+v", i, r)
		}
	}
}

// TestDisaggQueuesCountDecodeTier checks that decode-tier replicas run
// their own decode scheduler — the configured factory is called once per
// prefill replica only — and that Queues, behind /metrics and
// /debug/queues, counts a request waiting in the decode tier.
func TestDisaggQueuesCountDecodeTier(t *testing.T) {
	var built int
	srv := newDisaggServer(t, Config{
		Replicas:        3,
		PrefillReplicas: 1,
		Timescale:       1, // 300 decode iterations take seconds: the request stays queued
		SchedulerFactory: func() sched.Scheduler {
			built++
			return sched.NewSarathi(sched.EDF, 512)
		},
	})
	if built != 1 {
		t.Fatalf("SchedulerFactory called %d times, want once for the one prefill replica", built)
	}
	st, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 64, DecodeTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	// The first token is stamped when the decode tier admits the handoff,
	// after the request joined its decode queue.
	if _, ok := st.Recv(); !ok {
		t.Fatal("stream ended before its first token")
	}
	if q := srv.Queues(); !q.Reported || q.Decode != 1 {
		t.Fatalf("queues %+v, want the decode tier's one request reported", q)
	}
}
