package loadgen

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

func testSpec(mode Mode) Spec {
	return Spec{
		Seed:     42,
		Mode:     mode,
		Requests: 60,
		Workers:  6,
		Rate:     400,
		Classes: []Class{
			{Name: "Q1", Weight: 0.5, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 256, P90: 512, Max: 1024},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
			{Name: "Q2", Weight: 0.3, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 512, P90: 1024, Max: 2048},
				Decode: workload.TokenDist{P50: 16, P90: 32, Max: 64}},
			{Name: "Q3", Weight: 0.2, Priority: qos.Low,
				Prompt: workload.TokenDist{P50: 512, P90: 1024, Max: 2048},
				Decode: workload.TokenDist{P50: 16, P90: 32, Max: 64}},
		},
	}
}

func newGateway(t *testing.T, replicas int) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas: replicas,
		Classes:  qos.Table3(),
		// Modest acceleration: Q1's 6s TTFT budget is 30ms of wall time,
		// orders of magnitude above the queueing delay this load causes, so
		// wall-clock jitter cannot flip violation tallies between replays.
		Timescale: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestGenerateDeterministic pins the core replayability contract: the same
// spec materializes the identical request list.
func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(testSpec(Open))
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(testSpec(Open))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from the same spec differ")
	}
	classes := make(map[int]int)
	for _, r := range a {
		classes[r.class]++
		if r.prompt < 1 || r.decode < 1 {
			t.Fatalf("non-positive token counts: %+v", r)
		}
		if r.gap < 0 {
			t.Fatalf("negative arrival gap: %+v", r)
		}
	}
	if len(classes) != 3 {
		t.Fatalf("expected all 3 classes in the mix, got %v", classes)
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Requests: 0, Classes: testSpec(Closed).Classes},
		{Requests: 5},
		{Requests: 5, Classes: []Class{{Name: "Q1", Weight: 0}}},
		{Requests: 5, Mode: Open, Rate: 0, Classes: testSpec(Closed).Classes},
	}
	for i, spec := range bad {
		if _, err := generate(spec); err == nil {
			t.Errorf("spec %d: expected error", i)
		}
	}
}

// TestClosedLoopReplayIsDeterministic is the acceptance criterion: two runs
// with the same seed produce identical completion counts and violation
// tallies.
func TestClosedLoopReplayIsDeterministic(t *testing.T) {
	spec := testSpec(Closed)
	run := func() Report {
		srv := newGateway(t, 2)
		rep, err := Run(context.Background(), srv, spec)
		if err != nil {
			t.Fatal(err)
		}
		if dropped := srv.DroppedEvents(); dropped != 0 {
			t.Fatalf("%d events dropped; buffers should cover these decode lengths", dropped)
		}
		return rep
	}
	a, b := run(), run()
	if a.Completed != spec.Requests || a.Errors != 0 {
		t.Fatalf("run A: completed %d of %d, %d errors", a.Completed, spec.Requests, a.Errors)
	}
	if a.Completed != b.Completed || a.Violated != b.Violated || a.Relegated != b.Relegated {
		t.Fatalf("replay diverged: A completed=%d violated=%d relegated=%d, B completed=%d violated=%d relegated=%d",
			a.Completed, a.Violated, a.Relegated, b.Completed, b.Violated, b.Relegated)
	}
	if !reflect.DeepEqual(a.PerClass, b.PerClass) {
		t.Fatalf("per-class tallies diverged: %+v vs %+v", a.PerClass, b.PerClass)
	}
	if a.Tokens != b.Tokens {
		t.Fatalf("token tallies diverged: %d vs %d", a.Tokens, b.Tokens)
	}
}

// TestFrameDeliveryEquivalence replays the seeded closed-loop workload and
// requires exactly the tallies the gateway produced when it still
// delivered each token over its own channel: event frames change how
// events travel, never which requests complete, violate, or relegate.
func TestFrameDeliveryEquivalence(t *testing.T) {
	spec := testSpec(Closed)
	rep, err := Run(context.Background(), newGateway(t, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned from the per-token-channel gateway on this spec.
	want := Report{
		Completed: 60,
		Tokens:    25430,
		PerClass: []ClassReport{
			{Name: "Q1", Completed: 30},
			{Name: "Q2", Completed: 15},
			{Name: "Q3", Completed: 15},
		},
	}
	if rep.Completed != want.Completed || rep.Errors != 0 || rep.Violated != want.Violated ||
		rep.Relegated != want.Relegated || rep.Tokens != want.Tokens {
		t.Fatalf("tallies diverged from the pinned per-token run: completed=%d errors=%d violated=%d relegated=%d tokens=%d, want completed=%d errors=0 violated=%d relegated=%d tokens=%d",
			rep.Completed, rep.Errors, rep.Violated, rep.Relegated, rep.Tokens,
			want.Completed, want.Violated, want.Relegated, want.Tokens)
	}
	if !reflect.DeepEqual(rep.PerClass, want.PerClass) {
		t.Fatalf("per-class tallies = %+v, want %+v", rep.PerClass, want.PerClass)
	}
}

// TestOpenLoopCompletesAll exercises the Poisson pacer end to end.
func TestOpenLoopCompletesAll(t *testing.T) {
	spec := testSpec(Open)
	spec.Requests = 30
	srv := newGateway(t, 2)
	rep, err := Run(context.Background(), srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != spec.Requests || rep.Errors != 0 {
		t.Fatalf("completed %d of %d, %d errors", rep.Completed, spec.Requests, rep.Errors)
	}
	if rep.TTFTP99MS < rep.TTFTP50MS {
		t.Fatalf("quantiles out of order: p50 %v > p99 %v", rep.TTFTP50MS, rep.TTFTP99MS)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if q := quantile(vs, 0.5); q != 3 {
		t.Fatalf("p50 = %v, want 3", q)
	}
	if q := quantile(vs, 0.99); q != 4 {
		t.Fatalf("p99 of 5 samples = %v, want 4 (nearest rank below max)", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// The input slice must not be reordered.
	if vs[0] != 5 || vs[4] != 4 {
		t.Fatal("quantile mutated its input")
	}
}

func TestTokenDistSampleWithinClamp(t *testing.T) {
	d := workload.TokenDist{P50: 256, P90: 512, Max: 1024}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if n := d.Sample(rng); n < 1 || n > 1024 {
			t.Fatalf("sample %d outside [1,1024]", n)
		}
	}
}
