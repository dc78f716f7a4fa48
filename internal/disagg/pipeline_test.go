package disagg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

func pipelineConfig(t *testing.T) PipelineConfig {
	t.Helper()
	mc := model.Llama3_8B_A100_TP1()
	return PipelineConfig{
		Model:           mc,
		PrefillReplicas: 1,
		PrefillFactory: func() sched.Scheduler {
			return sched.NewSarathi(sched.EDF, DefaultChunk)
		},
		DecodeReplicas: 2,
		StrictestTBT:   50 * sim.Millisecond,
	}
}

func TestDeriveDecodeBatch(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	b := DeriveDecodeBatch(mc, 50*sim.Millisecond, 2048)
	if b < 8 || b > 4096 {
		t.Fatalf("derived batch = %d", b)
	}
	// The derived batch fits, batch+1 does not (or the cap was hit).
	if got := mc.BatchTime(decodeShape(b, 2048)); got > 50*sim.Millisecond {
		t.Errorf("batch %d takes %v > 50ms", b, got)
	}
	if b < 4096 {
		if got := mc.BatchTime(decodeShape(b+1, 2048)); got <= 50*sim.Millisecond {
			t.Errorf("batch %d+1 still fits (%v); not maximal", b, got)
		}
	}
	// Degenerate TBT falls back to a safe default; impossible TBT gives 1.
	if DeriveDecodeBatch(mc, 0, 2048) != 64 {
		t.Error("zero TBT default not applied")
	}
	if DeriveDecodeBatch(mc, sim.Microsecond, 2048) != 1 {
		t.Error("impossible TBT should cap at batch 1")
	}
}

func TestPipelineDrainsAndPacesTBT(t *testing.T) {
	trace := gen(t, 40, 1.5)
	res, err := RunPipeline(pipelineConfig(t), trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if got := sum.CompletionRate(metrics.All); got != 1 {
		t.Fatalf("completion rate = %v", got)
	}
	if res.MaxDecodeBatch <= 0 {
		t.Fatal("no decode batch derived")
	}
	if res.TransferTimeP50 <= 0 {
		t.Fatal("no transfer latency recorded")
	}
	// Decode pacing: every inter-token gap is produced by a batch capped
	// for 50 ms, so worst TBT should stay in that regime (allowing
	// admission waits at the decode tier).
	if worst := sum.MaxTBTQuantile(metrics.All, 0.5); worst > 0.2 {
		t.Errorf("median worst TBT %vs implausibly high", worst)
	}
	// End-to-end TTFT includes the transfer: it must exceed the pure
	// prefill-side TTFT of the same trace.
	prefOnly, err := Run(pipelineConfig(t).Model, 1, func() sched.Scheduler {
		return sched.NewSarathi(sched.EDF, DefaultChunk)
	}, gen(t, 40, 1.5), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TTFTQuantile(metrics.All, 0.5) <= prefOnly.TTFTQuantile(metrics.All, 0.5) {
		t.Error("end-to-end TTFT not above prefill-only TTFT (transfer missing?)")
	}
}

func TestPipelineTransferBandwidthMatters(t *testing.T) {
	fast := pipelineConfig(t)
	fast.TransferBandwidth = 200e9
	slow := pipelineConfig(t)
	slow.TransferBandwidth = 2e9

	fastRes, err := RunPipeline(fast, gen(t, 30, 1), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := RunPipeline(slow, gen(t, 30, 1), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.TransferTimeP50 <= fastRes.TransferTimeP50 {
		t.Errorf("slow link transfer %v not above fast link %v",
			slowRes.TransferTimeP50, fastRes.TransferTimeP50)
	}
	slowTTFT := slowRes.Summary.TTFTQuantile(metrics.All, 0.5)
	fastTTFT := fastRes.Summary.TTFTQuantile(metrics.All, 0.5)
	if slowTTFT <= fastTTFT {
		t.Errorf("slow-link TTFT %v not above fast-link %v", slowTTFT, fastTTFT)
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := pipelineConfig(t)
	cfg.PrefillReplicas = 0
	if _, err := RunPipeline(cfg, gen(t, 5, 1), sim.Forever); err == nil {
		t.Error("zero prefill replicas accepted")
	}
	cfg = pipelineConfig(t)
	cfg.PrefillFactory = nil
	if _, err := RunPipeline(cfg, gen(t, 5, 1), sim.Forever); err == nil {
		t.Error("nil factory accepted")
	}
	cfg = pipelineConfig(t)
	cfg.Model.TP = 0
	if _, err := RunPipeline(cfg, gen(t, 5, 1), sim.Forever); err == nil {
		t.Error("bad model config accepted")
	}
}

func TestPipelineInteractiveTTFT(t *testing.T) {
	// A single interactive request should get its first token well within
	// its 6s TTFT: prefill (~0.2s at 8K chunk) + transfer (~ms).
	trace := gen(t, 1, 1)
	trace[0].Class = qos.Table3()[0]
	trace[0].PromptTokens = 2000
	trace[0].DecodeTokens = 10
	res, err := RunPipeline(pipelineConfig(t), trace, sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Summary.ViolationRate(metrics.All); v != 0 {
		t.Errorf("lone request violated: %v", v)
	}
	ttft, ok := trace[0].TTFT()
	if !ok || ttft > sim.Second {
		t.Errorf("TTFT = %v ok=%v", ttft, ok)
	}
}

// TestPipelineOutcomeDigest pins the end-to-end pipeline's per-request
// outcomes (first-token and finish times, violation flags) to a digest
// recorded before the decode nodes ran on the shared replica core. A
// four-request decode cap keeps decode queues waiting behind full batches.
// The digest must never be edited to make this pass.
func TestPipelineOutcomeDigest(t *testing.T) {
	cfg := pipelineConfig(t)
	cfg.MaxDecodeBatch = 4
	res, err := RunPipeline(cfg, gen(t, 120, 6), sim.Forever)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "end %d transfer %d\n", res.Summary.End, res.TransferTimeP50)
	for _, o := range res.Summary.Outcomes {
		fmt.Fprintf(h, "%d %t %d %t %d %d %d %t\n",
			o.ID, o.FirstToken, o.TTFT, o.Completed, o.TTLT, o.MaxTBT, o.TBTViolations, o.Violated)
	}
	const want = "ba614d6d5c5c22c6a8b5e56e6bfb4e20c9d33e1d2c8297ca00f08a797ab6751a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("outcome digest %s, want %s", got, want)
	}
}
