package replica

import (
	"testing"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// PlanImport imports from the best holder only when enough tokens move
// and the link beats recomputing them, clips the match to leave a prompt
// token to prefill, and stamps the plan with the planning instant. It
// runs on every submission, so it allocates nothing.
func TestPlanImport(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	idx := kvcache.NewGlobalIndex(3)
	newCore := func(slot int, bandwidth float64) *Core {
		kv, err := kvcache.NewManager(mc.KVCapacityTokens(), 16)
		if err != nil {
			t.Fatal(err)
		}
		return NewCore(mc, sched.NewSarathi(sched.FCFS, 256), kv, CoreOptions{Index: idx, Slot: slot, ImportBandwidth: bandwidth})
	}
	chain := kvcache.SyntheticChain(21, 0, kvcache.ChainBlocks(800, 16))
	cached := len(chain) * 16
	warm := func(c *Core, id uint64, chain []uint64, now *sim.Time) {
		serve(c, &request.Request{ID: id, App: "Q1", Class: qos.Table3()[0],
			PromptTokens: 800, DecodeTokens: 4, PrefixHashes: chain}, now, 0, *now)
	}
	var now sim.Time
	// Slot 1 holds the whole chain; slot 2 all of it but the last three
	// blocks, fewer than MinImportTokens short of slot 1.
	holder := newCore(1, 64e9)
	warm(holder, 1, chain, &now)
	partial := newCore(2, 64e9)
	warm(partial, 2, chain[:len(chain)-3], &now)
	if now == 0 {
		t.Fatal("serving the warm-up turns took no time")
	}

	for _, tc := range []struct {
		name   string
		core   *Core
		prompt int
		want   ImportPlan
	}{
		{"imports from the holder, stamped now", newCore(0, 64e9), 800, ImportPlan{From: 1, Tokens: cached, At: now}},
		{"the holder is the chosen replica", holder, 800, ImportPlan{}},
		{"fewer than MinImportTokens would move", partial, 800, ImportPlan{}},
		{"a slow link loses to recompute", newCore(0, 1e3), 800, ImportPlan{}},
		{"no link", newCore(0, 0), 800, ImportPlan{}},
		{"the match is clipped to prompt-1", newCore(0, 64e9), 700, ImportPlan{From: 1, Tokens: 699, At: now}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &request.Request{ID: 9, App: "Q1", Class: qos.Table3()[0],
				PromptTokens: tc.prompt, DecodeTokens: 4, PrefixHashes: chain}
			if got := tc.core.PlanImport(r, 3, now); got != tc.want {
				t.Fatalf("planned %+v, want %+v", got, tc.want)
			}
			if n := testing.AllocsPerRun(10, func() { tc.core.PlanImport(r, 3, now) }); n != 0 {
				t.Fatalf("planning allocated %v times", n)
			}
		})
	}
}
