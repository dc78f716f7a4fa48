package replica

import (
	"testing"

	"qoserve/internal/kvcache"
	"qoserve/internal/metrics"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"

	"qoserve/internal/model"
)

// Sequential turns of one conversation served by one replica: every turn
// after the first must be served from the prefix cache, skipping that much
// prefill.
func TestPrefixHitsSkipPrefill(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	chain := kvcache.SyntheticChain(9, 0, kvcache.ChainBlocks(800, 16))
	var reqs []*request.Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, &request.Request{
			ID: uint64(i + 1), App: "Q1", Class: qos.Table3()[0],
			// Seconds apart, so turn i completes (and unpins) before i+1.
			Arrival:      sim.Time(i) * 10 * sim.Second,
			PromptTokens: 800, DecodeTokens: 10,
			PrefixHashes: chain,
		})
	}
	sum, rep, err := Run(mc, sched.NewSarathi(sched.FCFS, 256), reqs, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	perTurn := uint64(len(chain) * 16)
	if got := rep.PrefixHitTokens(); got != 2*perTurn {
		t.Fatalf("prefix hit tokens = %d, want %d (turns 2 and 3 fully cached)", got, 2*perTurn)
	}
	// The first hit request started with PrefilledTokens == hit, so its
	// recorded prefill work shrank accordingly.
	if reqs[1].PrefixHitTokens != int(perTurn) {
		t.Fatalf("request hit = %d, want %d", reqs[1].PrefixHitTokens, perTurn)
	}
	if n := rep.core.kv.Holders(); n != 0 {
		t.Errorf("%d KV holders leaked", n)
	}
}

// discard is a Delivery that drops every token.
type discard struct{}

func (discard) Token(*request.Request, sim.Time, bool) {}

// serve admits r into c at *now, with any import planned at start, and
// runs the core's loop until it idles, advancing *now by each batch's
// price. It returns the debt the batches paid on top of execution.
func serve(c *Core, r *request.Request, now *sim.Time, peer int, start sim.Time) (Admission, sim.Time) {
	a := c.Admit(r, *now, peer, start)
	var paid sim.Time
	for {
		b := c.Plan(*now)
		if b.Empty() {
			return a, paid
		}
		exec, debt, _ := c.Price(b, *now)
		paid += debt
		*now += exec + debt
		c.Complete(b, *now, discard{})
		c.Release()
	}
}

// A core over a tiered cache charges reload time when a prefix demoted to
// DRAM comes back, on the batch after the admission.
func TestConfigureKVAndReload(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	// Tiny HBM with a DRAM tier big enough to keep demoted blocks.
	kv, err := kvcache.NewTiered(kvcache.Config{CapacityTokens: 1504, DRAMTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(mc, sched.NewSarathi(sched.FCFS, 256), kv, CoreOptions{})
	mk := func(id uint64, key uint64, prompt int) *request.Request {
		return &request.Request{
			ID: id, App: "Q1", Class: qos.Table3()[0],
			PromptTokens: prompt, DecodeTokens: 8,
			PrefixHashes: kvcache.SyntheticChain(key, 0, kvcache.ChainBlocks(prompt, 16)),
		}
	}
	var now sim.Time
	reqs := []*request.Request{
		mk(1, 4, 640),
		// A fat request with its own chain squeezes the cache, demoting
		// turn 1's blocks.
		mk(2, 5, 1200),
		// Turn 2 re-sends the prefix: hits must be reloaded from DRAM.
		mk(3, 4, 640),
	}
	var last Admission
	var paid sim.Time
	for _, r := range reqs {
		last, paid = serve(c, r, &now, 0, now)
		if r.Phase() != request.Done {
			t.Fatalf("request %d stuck in %v", r.ID, r.Phase())
		}
	}
	if kv.Demotions() == 0 {
		t.Fatal("no demotions despite cache pressure")
	}
	if last.Hit == 0 || last.Reloaded == 0 {
		t.Fatalf("returning prefix admitted as %+v, want a DRAM reload", last)
	}
	if want := sim.FromSeconds(kv.ReloadSeconds(last.Reloaded)); paid != want {
		t.Fatalf("reload debt paid %v, want %v", paid, want)
	}
	if c.Fits(1505) || !c.Fits(1504) {
		t.Error("Fits does not bound requests by the HBM tier")
	}
}

// Publish exports membership into a global index only when it changed,
// KV imported from a peer stalls the next batch for the part of the
// transfer its planning did not cover, and a restart force-republishes
// the empty cache.
func TestPublishIndexAndTransferDebt(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	kv, err := kvcache.NewManager(mc.KVCapacityTokens(), 16)
	if err != nil {
		t.Fatal(err)
	}
	idx := kvcache.NewGlobalIndex(1)
	const bandwidth = 1e9
	c := NewCore(mc, sched.NewSarathi(sched.FCFS, 256), kv, CoreOptions{Index: idx, ImportBandwidth: bandwidth})
	c.Publish() // an empty cache is what a fresh index already says
	if e := idx.Epoch(0); e != 0 {
		t.Fatalf("epoch %d after publishing an unchanged cache, want 0", e)
	}

	chain := kvcache.SyntheticChain(11, 0, kvcache.ChainBlocks(800, 16))
	var now sim.Time
	serve(c, &request.Request{ID: 1, App: "Q1", Class: qos.Table3()[0],
		PromptTokens: 800, DecodeTokens: 4, PrefixHashes: chain}, &now, 0, now)
	if e := idx.Epoch(0); e != 1 {
		t.Fatalf("epoch %d after caching a chain, want 1", e)
	}
	if got := idx.MatchTokens(0, chain); got != len(chain)*16 {
		t.Fatalf("published index matches %d tokens, want %d", got, len(chain)*16)
	}
	c.Publish() // membership unchanged: must not republish
	if e := idx.Epoch(0); e != 1 {
		t.Fatalf("quiescent republish bumped epoch to %d", e)
	}

	// A peer holds 320 tokens of a prefix this core has never seen. The
	// import was planned a quarter of a transfer before admission, so the
	// first batch waits for the other three quarters.
	xfer := sim.FromSeconds(320 * mc.Model.KVBytesPerToken() / bandwidth)
	other := kvcache.SyntheticChain(12, 0, kvcache.ChainBlocks(800, 16))
	a, paid := serve(c, &request.Request{ID: 2, App: "Q1", Class: qos.Table3()[0],
		PromptTokens: 800, DecodeTokens: 4, PrefixHashes: other}, &now, 320, now-xfer/4)
	if a != (Admission{Hit: 320, Imported: 320, ImportTime: xfer}) || xfer == 0 {
		t.Fatalf("import admitted as %+v, want 320 tokens over %v", a, xfer)
	}
	if want := xfer - xfer/4; paid != want {
		t.Fatalf("import stall paid %v, want %v", paid, want)
	}
	// Planned a whole transfer before admission, a third chain's import
	// has landed by the first batch and stalls nothing.
	third := kvcache.SyntheticChain(13, 0, kvcache.ChainBlocks(800, 16))
	if _, paid := serve(c, &request.Request{ID: 3, App: "Q1", Class: qos.Table3()[0],
		PromptTokens: 800, DecodeTokens: 4, PrefixHashes: third}, &now, 320, now-xfer); paid != 0 {
		t.Fatalf("landed import stalled %v", paid)
	}

	// Restart force-republishes the (now empty) membership.
	fresh, err := kvcache.NewManager(mc.KVCapacityTokens(), 16)
	if err != nil {
		t.Fatal(err)
	}
	c.restart(sched.NewSarathi(sched.FCFS, 256), fresh)
	c.Publish()
	if e := idx.Epoch(0); e != 4 {
		t.Fatalf("epoch %d after restart republish, want 4", e)
	}
	if got := idx.MatchTokens(0, chain); got != 0 {
		t.Fatalf("restarted core still advertises %d tokens", got)
	}
}

// An import runs on the destination's inbound link from its planning on,
// so the first batch after admission stalls only for the part still in
// flight, and imports admitted in one cycle queue on the link.
func TestImportStallIsWhatRemains(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	const bandwidth = 1e9
	xfer := sim.FromSeconds(320 * mc.Model.KVBytesPerToken() / bandwidth)
	now := 10 * sim.Second
	for _, tc := range []struct {
		name   string
		starts []sim.Time // when each 320-token import was planned
		stall  sim.Time
	}{
		{"planned at admission", []sim.Time{now}, xfer},
		{"planned half a transfer earlier", []sim.Time{now - xfer/2}, xfer - xfer/2},
		{"planned a transfer and more earlier", []sim.Time{now - 3*xfer}, 0},
		{"two in one cycle serialize", []sim.Time{now - xfer/2, now - xfer/2}, 2*xfer - xfer/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv, err := kvcache.NewManager(mc.KVCapacityTokens(), 16)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCore(mc, sched.NewSarathi(sched.FCFS, 256), kv, CoreOptions{ImportBandwidth: bandwidth})
			for i, start := range tc.starts {
				r := &request.Request{ID: uint64(i + 1), App: "Q1", Class: qos.Table3()[0],
					PromptTokens: 800, DecodeTokens: 4,
					PrefixHashes: kvcache.SyntheticChain(uint64(i+1), 0, kvcache.ChainBlocks(800, 16))}
				if a := c.Admit(r, now, 320, start); a.Imported != 320 || a.ImportTime != xfer {
					t.Fatalf("import %d admitted as %+v, want 320 tokens over %v", i, a, xfer)
				}
			}
			b := c.Plan(now)
			exec, debt, stall := c.Price(b, now)
			if stall != tc.stall || debt != tc.stall {
				t.Fatalf("stall %v, debt %v; want both %v", stall, debt, tc.stall)
			}
			// The stall is paid once: the next batch finds the link idle.
			if _, debt, stall := c.Price(b, now+exec+debt); debt != 0 || stall != 0 {
				t.Fatalf("next batch owes debt %v, stall %v", debt, stall)
			}
		})
	}
}
