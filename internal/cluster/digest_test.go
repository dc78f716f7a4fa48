package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"qoserve/internal/fault"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/session"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

// outcomeDigest hashes every request's fate in a summary: first-token and
// finish times, the relegated and violated flags, retries and the failure
// reason, plus the run's end time.
func outcomeDigest(sum *metrics.Summary) string {
	h := sha256.New()
	fmt.Fprintf(h, "end %d\n", sum.End)
	for _, o := range sum.Outcomes {
		fmt.Fprintf(h, "%d %t %d %t %d %d %d %t %t %d %q\n",
			o.ID, o.FirstToken, o.TTFT, o.Completed, o.TTLT, o.MaxTBT, o.TBTViolations,
			o.Relegated, o.Violated, o.Retries, o.FailedReason)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heavyTrace draws a Table 3 mix with long prompts and outputs, so a
// three-replica cluster saturates and QoServe relegates.
func heavyTrace(t *testing.T, n int, qps float64, seed int64) []*request.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.Spec{
		Dataset: workload.Dataset{Name: "heavy",
			Prompt: workload.TokenDist{P50: 2000, P90: 6000},
			Decode: workload.TokenDist{P50: 120, P90: 400},
		},
		Tiers:    workload.EqualTiers(qos.Table3()),
		Arrivals: workload.Poisson{QPS: qps},
		Requests: n,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// digestRun is one pinned simulation.
type digestRun struct {
	name string
	run  func(t *testing.T) *metrics.Summary
}

// smallKV returns the reference model with its KV cache cut to about
// tokens, so a modest trace both defers admissions and rejects oversized
// requests.
func smallKV(tokens int) model.Config {
	mc := model.Llama3_8B_A100_TP1()
	mc.ActivationReserve = mc.GPU.MemBytes*float64(mc.TP) - 2*mc.Model.Params -
		float64(tokens)*mc.Model.KVBytesPerToken()
	return mc
}

// TestSimOutcomeDigest pins the simulator's per-request outcomes to digests
// recorded before the replica core was shared with the gateway. Any change
// to event order, pricing, KV admission, prefix credit or crash recovery
// moves a digest. The digests must never be edited to make this pass.
func TestSimOutcomeDigest(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	oracle := predictor.Oracle{Config: mc}
	factories := map[string]SchedulerFactory{
		"qoserve":     qoserveFactory,
		"sarathi-edf": func() sched.Scheduler { return sched.NewSarathi(sched.EDF, 256) },
		"medha":       func() sched.Scheduler { return sched.NewMedha(oracle, 50*sim.Millisecond, 2048) },
	}
	var runs []digestRun
	for _, name := range []string{"qoserve", "sarathi-edf", "medha"} {
		factory := factories[name]
		runs = append(runs, digestRun{name: "shared/" + name, run: func(t *testing.T) *metrics.Summary {
			sum, err := RunShared(mc, 3, factory, heavyTrace(t, 300, 20, 11), sim.Forever)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}})
	}
	runs = append(runs, digestRun{name: "faulty", run: func(t *testing.T) *metrics.Summary {
		faults, err := fault.ParseSchedule("slow@1s:0x3,crash@2s:1,crash@3s:2,restart@5s:1,slow@6s:0x1,restart@9s:2")
		if err != nil {
			t.Fatal(err)
		}
		sum, stats, err := RunFaulty(mc, 3, qoserveFactory, heavyTrace(t, 200, 6, 12), sim.Forever, faults, Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retries == 0 {
			t.Error("fault schedule caused no retries")
		}
		return sum
	}}, digestRun{name: "kv-pressure", run: func(t *testing.T) *metrics.Summary {
		trace := gen(t, 120, 12, 13)
		for i := 5; i < len(trace); i += 40 {
			trace[i].PromptTokens = 7000 // beyond the whole cache: rejected
		}
		engine := sim.NewEngine()
		c, err := New(engine, smallKV(6000), 2, sarathiFactory)
		if err != nil {
			t.Fatal(err)
		}
		scheduleArrivals(engine, c, trace)
		end := engine.Run()
		var deferred, rejected uint64
		for _, rep := range c.Replicas() {
			deferred += rep.KVDeferrals()
			rejected += rep.Rejected()
		}
		if deferred == 0 || rejected != 3 {
			t.Errorf("kv pressure: %d deferrals, %d rejects; want some and 3", deferred, rejected)
		}
		return metrics.NewSummary(trace, end, 2)
	}}, digestRun{name: "session-prefix", run: func(t *testing.T) *metrics.Summary {
		return sessionRun(t, mc, true).Summary
	}})

	want := map[string]string{
		"shared/qoserve":     "2f81d935de315360e8fb2c9fefc0c231aad4f5f146305c61e8baf116e3bd5169",
		"shared/sarathi-edf": "bf236d632c8d907f896c35247d01e26737df5e5846c822471a102f778f9a0f5b",
		"shared/medha":       "b9d7bfd184a6acaa657ce8f2372723bfeac399044e8d1f640c4c7feecf3c905c",
		"faulty":             "46a33d578419e28e17eb94c728e5a47802ea2e957fd2f86c745f705ef098bfa2",
		"kv-pressure":        "6abd060f7b6e7d6def162a34d136bb7d3014787532cba7bb6cd2fe4d61a0fe84",
		"session-prefix":     "2f43d1c77629d3a403e867ed4e1f1794964845ceccec2b91b69ba2ceed7aff9d",
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if got := outcomeDigest(r.run(t)); got != want[r.name] {
				t.Errorf("outcome digest %s, want %s", got, want[r.name])
			}
		})
	}

	// The session run must actually hit the prefix cache: the same spec
	// without shared prefixes produces different outcomes.
	if outcomeDigest(sessionRun(t, mc, false).Summary) == want["session-prefix"] {
		t.Error("session trace shows no prefix-cache effect")
	}
}

// sessionRun drives closed-loop multi-turn sessions through one replica.
func sessionRun(t *testing.T, mc model.Config, shared bool) *session.Result {
	t.Helper()
	res, err := session.Run(mc, sched.NewSarathi(sched.FCFS, 256), session.Spec{
		Profile: session.Profile{
			Class: qos.Class{Name: "Q1", Kind: qos.Interactive,
				SLO: qos.SLO{TTFT: 2 * sim.Second, TBT: 50 * sim.Millisecond}},
			FirstPrompt:  workload.TokenDist{P50: 1500, P90: 3000},
			FollowUp:     workload.TokenDist{P50: 60, P90: 200},
			Decode:       workload.TokenDist{P50: 10, P90: 20},
			MeanTurns:    4,
			ThinkTime:    sim.Second,
			SharedPrefix: shared,
		},
		SessionQPS: 4,
		Sessions:   40,
		Seed:       9,
	}, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
