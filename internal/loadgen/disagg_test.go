package loadgen

import (
	"context"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
)

// deterministicCounters are the /metrics families fully determined by the
// workload — sums over completed requests, independent of how scheduling
// interleaved them — so two replays of the same seed must reproduce them
// bit-for-bit. Gauges and latency-derived metrics are deliberately
// excluded: wall-clock jitter moves those without breaking the replay
// contract. Trailing space pins the sample line, not the # HELP/# TYPE
// headers or longer metric names sharing the prefix.
var deterministicCounters = []string{
	"qoserve_requests_total ",
	"qoserve_tokens_total ",
	"qoserve_prefill_tokens_total ",
	"qoserve_decode_tokens_total ",
	"qoserve_disagg_handoffs_total ",
	"qoserve_disagg_transfer_tokens_total ",
	"qoserve_gateway_retries_total ",
	"qoserve_gateway_lost_tokens_total ",
	"qoserve_gateway_failed_requests_total ",
}

func counterLines(t *testing.T, srv *server.Server) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		for _, prefix := range deterministicCounters {
			if strings.HasPrefix(line, prefix) {
				out = append(out, line)
			}
		}
	}
	if len(out) != len(deterministicCounters) {
		t.Fatalf("expected %d deterministic counter lines, got %d:\n%s",
			len(deterministicCounters), len(out), strings.Join(out, "\n"))
	}
	return out
}

// TestDisaggReplayIsDeterministic extends the replay contract to the
// two-tier gateway: the same seeded closed-loop workload against a fresh
// disaggregated gateway (2 prefill + 2 decode replicas) must reproduce
// identical completion/violation tallies and identical workload-determined
// /metrics counters, even though KV-transfer timers make the decode-tier
// admission order nondeterministic.
func TestDisaggReplayIsDeterministic(t *testing.T) {
	spec := testSpec(Closed)
	run := func() (Report, []string) {
		srv, err := server.New(server.Config{
			Model:            model.Llama3_8B_A100_TP1(),
			SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.EDF, 512) },
			Mode:             "disagg",
			Replicas:         4,
			PrefillReplicas:  2,
			Classes:          qos.Table3(),
			// Same headroom argument as newGateway: at 200x the SLO budgets
			// are orders of magnitude above the queueing + transfer delay
			// this load causes, so wall-clock jitter cannot flip violation
			// tallies between replays.
			Timescale: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rep, err := Run(context.Background(), srv, spec)
		if err != nil {
			t.Fatal(err)
		}
		if dropped := srv.DroppedEvents(); dropped != 0 {
			t.Fatalf("%d events dropped; buffers should cover these decode lengths", dropped)
		}
		return rep, counterLines(t, srv)
	}
	a, am := run()
	b, bm := run()
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
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("deterministic /metrics counters diverged:\nA:\n%s\nB:\n%s",
			strings.Join(am, "\n"), strings.Join(bm, "\n"))
	}
	// Both replays must also match the tallies and counters recorded
	// before the decode tier ran on the shared replica core. A crash-free
	// run exercises no fault path, so those counters are zero.
	wantClass := []ClassReport{{Name: "Q1", Completed: 30}, {Name: "Q2", Completed: 15}, {Name: "Q3", Completed: 15}}
	if a.Completed != 60 || a.Violated != 0 || a.Relegated != 0 || a.Tokens != 25430 || !reflect.DeepEqual(a.PerClass, wantClass) {
		t.Errorf("tallies moved from the pinned replay: completed=%d violated=%d relegated=%d tokens=%d per-class %+v",
			a.Completed, a.Violated, a.Relegated, a.Tokens, a.PerClass)
	}
	wantCounters := []string{
		"qoserve_requests_total 60",
		"qoserve_tokens_total 25370",
		"qoserve_prefill_tokens_total 24620",
		"qoserve_decode_tokens_total 750",
		"qoserve_disagg_handoffs_total 60",
		"qoserve_disagg_transfer_tokens_total 24620",
		"qoserve_gateway_retries_total 0",
		"qoserve_gateway_lost_tokens_total 0",
		"qoserve_gateway_failed_requests_total 0",
	}
	if !reflect.DeepEqual(am, wantCounters) {
		t.Errorf("/metrics counters moved from the pinned replay:\n%s", strings.Join(am, "\n"))
	}
}
