package core

import (
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// Each test below pins one dynamic-chunking heuristic that PAPER §1 does
// not have: a one-decode batch with one queued prompt, where that
// heuristic alone decides the planned chunk. The expected chunk is the
// largest that fits the heuristic's budget.

// decoding returns a request of class c, past its prefill and in decode.
func decoding(c qos.Class) *request.Request {
	r := req(1, 0, 64, 100, c)
	r.RecordPrefill(r.PromptTokens, 10*sim.Millisecond)
	return r
}

// planOne plans one batch at now for the decode d and the queued prompt p,
// returning the batch's single prefill allocation and the iteration budget
// the plan used.
func planOne(t *testing.T, s *Scheduler, d, p *request.Request, now sim.Time) (int, sim.Time) {
	t.Helper()
	s.EnableChunkLog()
	s.decodes = append(s.decodes, d)
	s.Add(p, now)
	b := s.PlanBatch(now)
	if len(b.Prefill) != 1 || b.Prefill[0].Req != p {
		t.Fatalf("prefill = %+v, want one allocation for request %d", b.Prefill, p.ID)
	}
	return b.Prefill[0].Tokens, s.ChunkLog()[0].Budget
}

// fitting is the largest chunk of a fresh prompt that fits budget next to
// decode d, as pred prices it.
func fitting(pred predictor.SafePredictor, d *request.Request, budget sim.Time) int {
	return predictor.ChunkBudget(pred, []int{d.ContextLen()}, 0, budget, defaultMaxChunk)
}

// TestSlackSafetyChunkSpendsNinetyPercentOfSlack: a decode 150 ms ahead of
// its next-token deadline donates 135 ms, not 150 ms.
func TestSlackSafetyChunkSpendsNinetyPercentOfSlack(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	exact := predictor.Oracle{Config: mc}
	s := New(exact, DefaultOptions())
	d := decoding(q1())
	now := d.NextTokenDeadline() - 150*sim.Millisecond
	p := req(2, now, 10000, 2, q3())

	chunk, budget := planOne(t, s, d, p, now)
	if want := 135 * sim.Millisecond; budget != want {
		t.Fatalf("budget = %v, want %v (0.9 of the slack)", budget, want)
	}
	if want := fitting(exact, d, budget); chunk != want {
		t.Fatalf("chunk = %d, want %d", chunk, want)
	}
	if whole := fitting(exact, d, 150*sim.Millisecond); chunk >= whole {
		t.Fatalf("chunk %d spends the whole slack (fits %d)", chunk, whole)
	}
}

// TestLatePacingFloorsLateNonInteractiveBudget: a non-interactive decode
// past its deadline has no TBT to floor its budget, so latePacing does.
func TestLatePacingFloorsLateNonInteractiveBudget(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	exact := predictor.Oracle{Config: mc}
	s := New(exact, DefaultOptions())
	d := decoding(q2())
	now := d.NextTokenDeadline() + sim.Second
	p := req(2, now, 10000, 2, q3())

	chunk, budget := planOne(t, s, d, p, now)
	if want := 100 * sim.Millisecond; budget != want {
		t.Fatalf("budget = %v, want latePacing %v", budget, want)
	}
	if want := fitting(exact, d, budget); chunk != want || chunk <= minChunk {
		t.Fatalf("chunk = %d, want %d", chunk, want)
	}
}

// TestFloorRegimePlansWithoutMargin: at the TBT floor the chunk is priced
// by the raw prediction; with slack left it keeps the margin.
func TestFloorRegimePlansWithoutMargin(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	raw := predictor.Oracle{Config: mc}
	margined := predictor.Oracle{Config: mc, Margin: 0.1}
	tbt := q1().SLO.TBT

	s := New(margined, DefaultOptions())
	d := decoding(q1())
	now := d.NextTokenDeadline() // no slack: the 50 ms TBT floor applies
	chunk, budget := planOne(t, s, d, req(2, now, 10000, 2, q3()), now)
	if budget != tbt {
		t.Fatalf("floor budget = %v, want the TBT %v", budget, tbt)
	}
	want, safe := fitting(raw, d, tbt), fitting(margined, d, tbt)
	if chunk != want || chunk <= safe {
		t.Fatalf("floor chunk = %d, want the unmargined %d (margined fits %d)", chunk, want, safe)
	}

	s = New(margined, DefaultOptions())
	d = decoding(q1())
	now = d.NextTokenDeadline() - 100*sim.Millisecond
	chunk, budget = planOne(t, s, d, req(2, now, 10000, 2, q3()), now)
	if want := fitting(margined, d, budget); chunk != want {
		t.Fatalf("slack chunk = %d, want the margined %d", chunk, want)
	}
}

// TestTTFTRushRaisesFloorBudget: at the TBT floor, a front interactive
// prompt that the achieved prefill rate would finish past its TTFT gets the
// ttftRush budget; one that is on time gets the floor.
func TestTTFTRushRaisesFloorBudget(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	exact := predictor.Oracle{Config: mc}
	tbt := q1().SLO.TBT
	for _, tc := range []struct {
		name   string
		ttftIn sim.Time // time left until the prompt's TTFT deadline
		budget sim.Time
	}{
		{"late", 500 * sim.Millisecond, 200 * sim.Millisecond},
		{"on time", 5 * sim.Second, tbt},
	} {
		s := New(exact, DefaultOptions())
		// A history of small chunks has pulled the achieved rate down to
		// 2k tokens/s: 2000 tokens take a second there, though the
		// dedicated-rate doom check (bestRate) still finds them savable.
		s.prefillRate = 2000
		d := decoding(q1())
		now := d.NextTokenDeadline()
		p := req(2, now+tc.ttftIn-q1().SLO.TTFT, 2000, 2, q1())

		chunk, budget := planOne(t, s, d, p, now)
		if budget != tc.budget {
			t.Fatalf("%s: budget = %v, want %v", tc.name, budget, tc.budget)
		}
		want := min(fitting(exact, d, tc.budget), p.PromptTokens)
		if chunk != want {
			t.Fatalf("%s: chunk = %d, want %d", tc.name, chunk, want)
		}
		if p.Relegated {
			t.Fatalf("%s: prompt relegated", tc.name)
		}
	}
}
