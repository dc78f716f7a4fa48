package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoserve/internal/model"
	"qoserve/internal/sched"
)

// Chaos coverage for the disaggregated gateway: crash the prefill tier at
// the worst moments and assert the no-silent-drop contract — every
// accepted request either completes on the decode tier or fails with a
// reason and a final Done event. Nothing hangs, nothing vanishes.

// TestChaosPrefillCrashMidTransferNoSilentDrop crashes the only prefill
// replica while KV transfers are in flight. Requests already delivered to
// the decode tier finish; everything else — queued, mid-prefill, or
// mid-transfer — must fail with a reason (there is no healthy prefill
// replica to retry on). No stream may be left open.
func TestChaosPrefillCrashMidTransferNoSilentDrop(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	const prompt = 512
	// Stretch each KV transfer to ~200ms of wall time so the crash lands
	// while several are in flight.
	bandwidth := mc.Model.KVBytesPerToken() * prompt / 20
	srv := newDisaggServer(t, Config{
		Model:               mc,
		Replicas:            2,
		PrefillReplicas:     1,
		Timescale:           100,
		KVTransferBandwidth: bandwidth,
	})

	const n = 6
	type outcome struct {
		gotDone bool
		failed  string
		tokens  int
	}
	outcomes := make([]outcome, n)
	streams := make([]*Stream, n)
	for i := 0; i < n; i++ {
		st, err := srv.Submit(Submission{Class: "Q2", PromptTokens: prompt, DecodeTokens: 4})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}

	// Wait until at least two transfers have been launched, then kill the
	// replica they came from.
	deadline := time.Now().Add(5 * time.Second)
	for srv.handoffs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no handoffs after 5s (handoffs=%d)", srv.handoffs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Crash(0); err == nil {
		t.Fatal("double crash accepted")
	}

	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			_, last := drain(st)
			outcomes[i].tokens = last.Token
			outcomes[i].gotDone = last.Done
			outcomes[i].failed = st.Result().Failed
		}(i, st)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("streams never terminated after crash: requests silently dropped")
	}

	completed, failed := 0, 0
	for i, o := range outcomes {
		if !o.gotDone {
			t.Fatalf("request %d: stream closed without a Done event", i)
		}
		switch {
		case o.failed != "":
			failed++
			if !streams[i].Result().Violated {
				t.Errorf("request %d failed (%q) but is not reported as an SLO violation", i, o.failed)
			}
		case o.tokens == 4:
			completed++
		default:
			t.Errorf("request %d: neither failed nor complete (tokens=%d)", i, o.tokens)
		}
	}
	if completed+failed != n {
		t.Fatalf("completed %d + failed %d != %d submitted", completed, failed, n)
	}
	if failed == 0 {
		t.Fatal("crash with transfers in flight failed nothing — crash path untested")
	}
	if got := int(srv.failedReqs.Load()); got != failed {
		t.Errorf("failed counter %d, want %d", got, failed)
	}
	if srv.retries.Load() == 0 {
		t.Error("no retries recorded for crash-orphaned requests")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("gateway never drained after crash: %v (pending %d)", err, srv.inFlight.Load())
	}

	// The tier is gone: new submissions are refused, not queued forever.
	if _, err := srv.Submit(Submission{Class: "Q2", PromptTokens: 64, DecodeTokens: 2}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("submit after total prefill loss: err = %v, want ErrNoHealthyReplica", err)
	}
}

// TestChaosCrashFailsOverToHealthyPrefillReplica crashes one of two
// prefill replicas mid-transfer: orphaned requests must be re-prefilled on
// the survivor and still complete — retried, not lost, not failed.
func TestChaosCrashFailsOverToHealthyPrefillReplica(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	const prompt = 512
	bandwidth := mc.Model.KVBytesPerToken() * prompt / 20 // ~200ms per transfer
	srv := newDisaggServer(t, Config{
		Model:               mc,
		Replicas:            3,
		PrefillReplicas:     2,
		Timescale:           100,
		KVTransferBandwidth: bandwidth,
		// Round-robin so both prefill replicas hold work at crash time.
	})

	const n = 8
	var wg sync.WaitGroup
	var completed, failed atomic.Int64
	for i := 0; i < n; i++ {
		st, err := srv.Submit(Submission{Class: "Q2", PromptTokens: prompt, DecodeTokens: 3})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *Stream) {
			defer wg.Done()
			_, last := drain(st)
			switch {
			case st.Result().Failed != "":
				failed.Add(1)
			case last.Done && last.Token == 3:
				completed.Add(1)
			}
		}(st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.handoffs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no handoffs after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Crash(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("streams never terminated: requests lost in failover")
	}
	if got := completed.Load() + failed.Load(); got != n {
		t.Fatalf("completed %d + failed %d != %d submitted", completed.Load(), failed.Load(), n)
	}
	// With a healthy replica to fail over to, nothing should permanently
	// fail inside the retry budget.
	if failed.Load() != 0 {
		t.Errorf("%d requests failed despite a healthy prefill replica", failed.Load())
	}
	// The survivor still serves new work.
	st, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 128, DecodeTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, last := drain(st); !last.Done || last.Token != 2 {
		t.Fatalf("post-crash submission did not complete: %+v", last)
	}
}

// TestChaosCrashRejectedOutsideDisagg pins the API contract: crashes are a
// disagg prefill-tier fault model only.
func TestChaosCrashRejectedOutsideDisagg(t *testing.T) {
	colo := newTestServer(t, sched.NewSarathi(sched.FCFS, 512))
	if err := colo.Crash(0); err == nil {
		t.Fatal("colocated crash accepted")
	}
	srv := newDisaggServer(t, Config{Replicas: 2, PrefillReplicas: 1})
	if err := srv.Crash(1); err == nil {
		t.Fatal("decode-tier crash accepted")
	}
	if err := srv.Crash(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}
