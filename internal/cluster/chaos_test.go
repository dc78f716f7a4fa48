package cluster

import (
	"reflect"
	"testing"

	"qoserve/internal/fault"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// The chaos harness replays deterministic fault schedules — explicit and
// seeded-random — against a shared cluster and asserts the recovery
// contract: no request is ever silently dropped (every request either
// completes or is permanently failed with a reason), retried requests keep
// their identity, and the whole run is reproducible bit-for-bit.

// chaosRun is one deterministic replay of a fault schedule.
type chaosRun struct {
	trace []*request.Request
	sum   *metrics.Summary
	stats FaultStats
}

// runChaos executes the scenario once on a fresh trace.
func runChaos(t *testing.T, replicas, n int, qps float64, seed int64, s fault.Schedule, rec Recovery) chaosRun {
	t.Helper()
	trace := gen(t, n, qps, seed)
	sum, stats, err := RunFaulty(model.Llama3_8B_A100_TP1(), replicas, sarathiFactory, trace, sim.Forever, s, rec)
	if err != nil {
		t.Fatal(err)
	}
	return chaosRun{trace: trace, sum: sum, stats: stats}
}

// assertNoSilentDrops enforces the recovery contract: every submitted
// request either produced all its tokens or carries a failure reason.
func assertNoSilentDrops(t *testing.T, run chaosRun) {
	t.Helper()
	for _, r := range run.trace {
		done := r.Phase() == request.Done
		switch {
		case done && r.Failed():
			t.Errorf("request %d both completed and failed (%q)", r.ID, r.FailedReason)
		case !done && !r.Failed():
			t.Errorf("request %d silently dropped: not completed, no failure reason "+
				"(prefilled %d/%d, decoded %d/%d, retries %d)",
				r.ID, r.PrefilledTokens, r.PromptTokens, r.DecodedTokens, r.DecodeTokens, r.Retries)
		}
	}
	if got := run.stats.FailedRequests; got != len(failedOf(run.trace)) {
		t.Errorf("FaultStats.FailedRequests = %d, trace has %d failed", got, len(failedOf(run.trace)))
	}
	if run.stats.Parked != 0 {
		t.Errorf("%d requests still parked after drain", run.stats.Parked)
	}
}

func failedOf(trace []*request.Request) []*request.Request {
	var out []*request.Request
	for _, r := range trace {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

func TestChaosSchedules(t *testing.T) {
	// ~120 requests at 12 QPS span ~10s of arrivals, so faults in the
	// first few seconds hit a cluster with work in flight. All runs are
	// deterministic: the expectations below are exact, not probabilistic.
	cases := []struct {
		name     string
		replicas int
		spec     string
		random   *fault.RandomConfig
		rec      Recovery
		check    func(t *testing.T, run chaosRun)
	}{
		{
			// The acceptance scenario: kill 1 of 4 replicas mid-run, no
			// repair. Orphans must be retried onto the survivors.
			name:     "kill one of four",
			replicas: 4,
			spec:     "crash@3s:1",
			check: func(t *testing.T, run chaosRun) {
				if run.stats.Crashes != 1 || run.stats.Restarts != 0 {
					t.Errorf("crashes/restarts = %d/%d, want 1/0", run.stats.Crashes, run.stats.Restarts)
				}
				if run.stats.Retries == 0 {
					t.Error("crash with work in flight caused no retries")
				}
				if run.stats.FailedRequests != 0 {
					t.Errorf("%d requests failed with 3 healthy replicas", run.stats.FailedRequests)
				}
				if run.sum.CompletionRate(metrics.All) != 1 {
					t.Errorf("completion rate = %v, want 1", run.sum.CompletionRate(metrics.All))
				}
				// The crashed replica's survivors picked up its load.
				reqs, retries := run.sum.RetriedCount(metrics.All)
				if reqs == 0 || retries != int(run.stats.Retries) {
					t.Errorf("summary retries = %d over %d requests, stats say %d", retries, reqs, run.stats.Retries)
				}
			},
		},
		{
			name:     "crash then restart",
			replicas: 4,
			spec:     "crash@2s:0,restart@6s:0,crash@4s:2,restart@8s:2",
			check: func(t *testing.T, run chaosRun) {
				if run.stats.Crashes != 2 || run.stats.Restarts != 2 {
					t.Errorf("crashes/restarts = %d/%d, want 2/2", run.stats.Crashes, run.stats.Restarts)
				}
				if run.stats.Down != 0 {
					t.Errorf("%d replicas still down after restarts", run.stats.Down)
				}
				if run.sum.CompletionRate(metrics.All) != 1 {
					t.Errorf("completion rate = %v, want 1", run.sum.CompletionRate(metrics.All))
				}
			},
		},
		{
			name:     "slow replica degrades but drops nothing",
			replicas: 2,
			spec:     "slow@1s:0x8,slow@6s:0x1",
			check: func(t *testing.T, run chaosRun) {
				if run.stats.Crashes != 0 || run.stats.Retries != 0 {
					t.Errorf("slowdown caused crashes=%d retries=%d", run.stats.Crashes, run.stats.Retries)
				}
				if run.sum.CompletionRate(metrics.All) != 1 {
					t.Errorf("completion rate = %v, want 1", run.sum.CompletionRate(metrics.All))
				}
			},
		},
		{
			// Whole-cluster outage: both replicas die, one comes back.
			// Requests arriving during the outage park and are flushed on
			// the restart; nothing is dropped.
			name:     "total outage parks then flushes",
			replicas: 2,
			spec:     "crash@2s:0,crash@2s:1,restart@5s:0",
			check: func(t *testing.T, run chaosRun) {
				if run.stats.Down != 1 {
					t.Errorf("down = %d, want 1 (replica 1 never restarts)", run.stats.Down)
				}
				if run.stats.FailedRequests != 0 {
					t.Errorf("%d requests failed despite the restart beating the park timeout", run.stats.FailedRequests)
				}
				if run.sum.CompletionRate(metrics.All) != 1 {
					t.Errorf("completion rate = %v, want 1", run.sum.CompletionRate(metrics.All))
				}
			},
		},
		{
			// Permanent total outage with a short park timeout: every
			// request still in the system must be failed with a reason,
			// not stranded.
			name:     "permanent outage fails loudly",
			replicas: 2,
			spec:     "crash@1s:0,crash@1s:1",
			rec:      Recovery{ParkTimeout: 2 * sim.Second},
			check: func(t *testing.T, run chaosRun) {
				if run.stats.FailedRequests == 0 {
					t.Error("permanent outage failed no requests")
				}
				for _, r := range failedOf(run.trace) {
					if r.FailedReason == "" {
						t.Errorf("request %d failed without a reason", r.ID)
					}
					if !r.ViolatedSLO(run.sum.End) {
						t.Errorf("failed request %d not counted as violated", r.ID)
					}
				}
			},
		},
		{
			// Tight retry budget under repeated crashes of the same
			// replica: some requests exhaust their retries and must be
			// failed, the rest complete.
			name:     "retry budget exhausts loudly",
			replicas: 1,
			spec:     "crash@1s:0,restart@1100ms:0,crash@1200ms:0,restart@1300ms:0,crash@1400ms:0,restart@1500ms:0,crash@1600ms:0,restart@1700ms:0",
			rec:      Recovery{MaxRetries: 2, Backoff: 10 * sim.Millisecond},
			check: func(t *testing.T, run chaosRun) {
				if run.stats.FailedRequests == 0 {
					t.Error("four crashes against MaxRetries=2 failed no requests")
				}
				for _, r := range failedOf(run.trace) {
					if r.Retries < 2 {
						t.Errorf("request %d failed after only %d retries (budget 2)", r.ID, r.Retries)
					}
				}
			},
		},
		{
			name:     "seeded random churn",
			replicas: 4,
			random:   &fault.RandomConfig{Seed: 42, Replicas: 4, Horizon: 15 * sim.Second, MTBF: 4 * sim.Second, MTTR: sim.Second},
			check: func(t *testing.T, run chaosRun) {
				if run.stats.Crashes == 0 {
					t.Error("15s horizon at 4s MTBF produced no crashes")
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			schedule, err := fault.ParseSchedule(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.random != nil {
				schedule, err = fault.Random(*tc.random)
				if err != nil {
					t.Fatal(err)
				}
			}

			run := runChaos(t, tc.replicas, 120, 12, 21, schedule, tc.rec)
			assertNoSilentDrops(t, run)
			if tc.check != nil {
				tc.check(t, run)
			}

			// Determinism: the identical scenario on a fresh trace must
			// reproduce every outcome and counter exactly.
			again := runChaos(t, tc.replicas, 120, 12, 21, schedule, tc.rec)
			if !reflect.DeepEqual(run.stats, again.stats) {
				t.Errorf("fault stats differ across runs:\n  %+v\n  %+v", run.stats, again.stats)
			}
			if !reflect.DeepEqual(run.sum.Outcomes, again.sum.Outcomes) {
				t.Error("per-request outcomes differ across identical runs")
			}
		})
	}
}

// TestChaosRetryPreservesIdentity checks the recovery semantics the design
// doc promises: a retried request keeps its arrival time (so its deadline
// and EDF/hybrid priority are unchanged) but loses all token progress.
func TestChaosRetryPreservesIdentity(t *testing.T) {
	trace := gen(t, 120, 12, 21)
	arrivals := make(map[uint64]sim.Time, len(trace))
	for _, r := range trace {
		arrivals[r.ID] = r.Arrival
	}
	schedule, err := fault.ParseSchedule("crash@3s:1")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunFaulty(model.Llama3_8B_A100_TP1(), 4, sarathiFactory, trace, sim.Forever, schedule, Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("scenario produced no retries")
	}
	if stats.LostTokens == 0 {
		t.Error("retries discarded no progress — crash hit only idle requests?")
	}
	retried := 0
	for _, r := range trace {
		if r.Retries == 0 {
			continue
		}
		retried++
		if r.Arrival != arrivals[r.ID] {
			t.Errorf("request %d arrival changed across retry: %v != %v", r.ID, r.Arrival, arrivals[r.ID])
		}
		if r.Phase() == request.Done && r.DecodedTokens != r.DecodeTokens {
			t.Errorf("request %d done with %d/%d tokens", r.ID, r.DecodedTokens, r.DecodeTokens)
		}
	}
	if retried == 0 {
		t.Error("stats counted retries but no request carries one")
	}
}

// TestChaosHealthAccounting checks the Health snapshots: downtime
// accumulates over closed outages and liveness reflects the schedule.
func TestChaosHealthAccounting(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(engine, model.Llama3_8B_A100_TP1(), 3, sarathiFactory)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := fault.ParseSchedule("crash@2s:1,restart@5s:1,crash@8s:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(engine, c, schedule); err != nil {
		t.Fatal(err)
	}
	if err := c.StartProbes(sim.Second, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	engine.Run()

	h := c.Health()
	if h[0].Crashes != 0 || !h[0].Up {
		t.Errorf("untouched replica 0: %+v", h[0])
	}
	if h[1].Up {
		t.Error("replica 1 up after final crash")
	}
	if h[1].Crashes != 2 || h[1].Restarts != 1 {
		t.Errorf("replica 1 crashes/restarts = %d/%d, want 2/1", h[1].Crashes, h[1].Restarts)
	}
	if h[1].Downtime != 3*sim.Second {
		t.Errorf("replica 1 downtime = %v, want 3s (2s..5s)", h[1].Downtime)
	}
	if h[2].Probes != 10 || h[2].LastProbe != 10*sim.Second {
		t.Errorf("replica 2 probes = %d at %v, want 10 at 10s", h[2].Probes, h[2].LastProbe)
	}
	if c.StartProbes(0, sim.Second) == nil {
		t.Error("non-positive probe interval accepted")
	}
}

// TestRoundRobinSurvivesShrinkingCluster covers the balancer against a
// replica set that shrinks between picks, as happens when health-aware
// routing passes only the live subset: the cursor from the larger set must
// not index past the smaller one.
func TestRoundRobinSurvivesShrinkingCluster(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(engine, model.Llama3_8B_A100_TP1(), 3, sarathiFactory)
	if err != nil {
		t.Fatal(err)
	}
	rr := &RoundRobin{}
	full := len(c.Replicas())
	for i := 0; i < 3; i++ {
		rr.PickIndex(full, nil) // cursor now wraps to 0 via 2
	}
	rr.PickIndex(full, nil) // cursor at 1
	rr.PickIndex(full, nil) // cursor at 2
	if got := rr.PickIndex(1, nil); got != 0 {
		t.Fatalf("pick on shrunk set = %d, want 0", got)
	}
	// And across many alternating sizes every pick stays in range.
	for _, n := range []int{3, 1, 2, 1, 3, 2} {
		if got := rr.PickIndex(n, nil); got < 0 || got >= n {
			t.Fatalf("pick = %d out of range for %d replicas", got, n)
		}
	}
}

// TestClusterRoutesAroundDownReplica checks Submit never targets a down
// replica and the load lands on the survivors.
func TestClusterRoutesAroundDownReplica(t *testing.T) {
	engine := sim.NewEngine()
	c, err := New(engine, model.Llama3_8B_A100_TP1(), 3, sarathiFactory)
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	trace := gen(t, 30, 10, 5)
	scheduleArrivals(engine, c, trace)
	engine.Run()
	reps := c.Replicas()
	if got := reps[1].Submitted(); got != 0 {
		t.Errorf("down replica served %d requests", got)
	}
	if got := reps[0].Submitted() + reps[2].Submitted(); got != 30 {
		t.Errorf("survivors served %d, want 30", got)
	}
}
