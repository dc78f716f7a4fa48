package qoserve_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"qoserve"
)

func smallWorkload(t *testing.T, qps float64, dur time.Duration) []qoserve.Request {
	t.Helper()
	reqs, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset:  qoserve.DatasetAzureCode,
		QPS:      qps,
		Duration: dur,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestServeQoServeLightLoad(t *testing.T) {
	reqs := smallWorkload(t, 2, 2*time.Minute)
	report, err := qoserve.Serve(qoserve.Options{Policy: qoserve.PolicyQoServe}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != len(reqs) {
		t.Fatalf("outcomes %d != requests %d", len(report.Outcomes), len(reqs))
	}
	if report.ViolationRate > 0.02 {
		t.Errorf("violation rate %.3f at light load", report.ViolationRate)
	}
	if report.GPUs != 1 || report.Replicas != 1 {
		t.Errorf("GPUs=%d replicas=%d", report.GPUs, report.Replicas)
	}
	if report.Goodput <= 0 {
		t.Error("no goodput")
	}
	if p := report.TTFTPercentile("Q1", 0.5); p <= 0 || p > 10*time.Second {
		t.Errorf("Q1 median TTFT = %v", p)
	}
}

func TestServeAllPolicies(t *testing.T) {
	reqs := smallWorkload(t, 1, time.Minute)
	for _, p := range []qoserve.Policy{
		qoserve.PolicyQoServe, qoserve.PolicySarathiFCFS, qoserve.PolicySarathiEDF,
		qoserve.PolicySarathiSJF, qoserve.PolicySarathiSRPF, qoserve.PolicyMedha,
		qoserve.PolicyVLLM,
	} {
		report, err := qoserve.Serve(qoserve.Options{Policy: p}, reqs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		completed := 0
		for _, o := range report.Outcomes {
			if o.Completed {
				completed++
			}
		}
		if completed != len(reqs) {
			t.Errorf("%s: completed %d of %d", p, completed, len(reqs))
		}
	}
	if _, err := qoserve.Serve(qoserve.Options{Policy: "nope"}, reqs); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestServeSiloed(t *testing.T) {
	reqs := smallWorkload(t, 2, 2*time.Minute)
	report, err := qoserve.Serve(qoserve.Options{
		Silos: map[string]int{"Q1": 2, "Q2": 1, "Q3": 1},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replicas != 4 {
		t.Errorf("replicas = %d, want 4", report.Replicas)
	}
}

func TestServeHardwarePresets(t *testing.T) {
	reqs := smallWorkload(t, 1, time.Minute)
	for hw, gpus := range map[qoserve.Hardware]int{
		qoserve.Llama3_8B_A100:    1,
		qoserve.Qwen_7B_2xA100:    2,
		qoserve.Llama3_70B_4xH100: 4,
	} {
		report, err := qoserve.Serve(qoserve.Options{Hardware: hw}, reqs)
		if err != nil {
			t.Fatalf("%v: %v", hw, err)
		}
		if report.GPUs != gpus {
			t.Errorf("%v: GPUs = %d, want %d", hw, report.GPUs, gpus)
		}
	}
	if qoserve.Llama3_8B_A100.String() != "Llama3-8B/A100-TP1" {
		t.Errorf("hardware string = %q", qoserve.Llama3_8B_A100.String())
	}
}

// TestConcurrentServe runs Serve for every hardware preset from several
// goroutines at once; under -race it checks that the predictive policies
// share no unsynchronized state. Each run must match a sequential one
// made afterwards.
func TestConcurrentServe(t *testing.T) {
	reqs := smallWorkload(t, 1, time.Minute)
	hws := []qoserve.Hardware{qoserve.Llama3_8B_A100, qoserve.Qwen_7B_2xA100, qoserve.Llama3_70B_4xH100}
	// ttftSum fingerprints a run: it differs across the presets.
	ttftSum := func(hw qoserve.Hardware) (time.Duration, error) {
		report, err := qoserve.Serve(qoserve.Options{Hardware: hw}, reqs)
		if err != nil {
			return 0, err
		}
		var sum time.Duration
		for _, o := range report.Outcomes {
			sum += o.TTFT
		}
		return sum, nil
	}
	got := make([]time.Duration, 2*len(hws))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = ttftSum(hws[i%len(hws)]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, hw := range hws {
		want, err := ttftSum(hw)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(got); j += len(hws) {
			if got[j] != want {
				t.Errorf("%v: concurrent TTFT sum %v, sequential %v", hw, got[j], want)
			}
		}
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := qoserve.Serve(qoserve.Options{}, nil); err == nil {
		t.Error("empty request list accepted")
	}
	bad := []qoserve.Request{{Class: "missing", Arrival: 0, PromptTokens: 10, DecodeTokens: 1}}
	if _, err := qoserve.Serve(qoserve.Options{}, bad); err == nil {
		t.Error("unknown class accepted")
	}
	dup := []qoserve.Request{
		{ID: 5, Class: "Q1", PromptTokens: 10, DecodeTokens: 1},
		{ID: 5, Class: "Q1", PromptTokens: 10, DecodeTokens: 1},
	}
	if _, err := qoserve.Serve(qoserve.Options{}, dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
	badClass := qoserve.Options{Classes: []qoserve.Class{{Name: "X", Kind: qoserve.Interactive}}}
	good := []qoserve.Request{{Class: "X", PromptTokens: 10, DecodeTokens: 1}}
	if _, err := qoserve.Serve(badClass, good); err == nil {
		t.Error("interactive class without TTFT accepted")
	}
	dupClass := qoserve.Options{Classes: append(qoserve.DefaultClasses(), qoserve.DefaultClasses()...)}
	if _, err := qoserve.Serve(dupClass, smallWorkload(t, 1, time.Minute)); err == nil {
		t.Error("duplicate class names accepted")
	}
}

func TestServeAssignsIDs(t *testing.T) {
	reqs := []qoserve.Request{
		{Class: "Q1", PromptTokens: 100, DecodeTokens: 2},
		{Class: "Q2", Arrival: time.Second, PromptTokens: 100, DecodeTokens: 2},
		{ID: 1, Class: "Q3", Arrival: 2 * time.Second, PromptTokens: 100, DecodeTokens: 2},
	}
	report, err := qoserve.Serve(qoserve.Options{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, o := range report.Outcomes {
		if seen[o.ID] {
			t.Fatalf("duplicate assigned ID %d", o.ID)
		}
		seen[o.ID] = true
	}
}

func TestGenerateWorkloadShapes(t *testing.T) {
	reqs, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset:             qoserve.DatasetAzureConv,
		QPS:                 5,
		Duration:            2 * time.Minute,
		LowPriorityFraction: 0.5,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 600 {
		t.Fatalf("generated %d requests, want 600", len(reqs))
	}
	low := 0
	for _, r := range reqs {
		if r.PromptTokens <= 0 || r.DecodeTokens <= 0 {
			t.Fatal("non-positive token counts")
		}
		if r.Priority == qoserve.Low {
			low++
		}
	}
	if frac := float64(low) / float64(len(reqs)); frac < 0.4 || frac > 0.6 {
		t.Errorf("low-priority fraction %.2f, want ~0.5", frac)
	}
}

func TestGenerateWorkloadBursty(t *testing.T) {
	reqs, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset:     qoserve.DatasetAzureCode,
		QPS:         1,
		BurstQPS:    4,
		BurstPeriod: time.Minute,
		Duration:    4 * time.Minute,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count arrivals in the first low minute vs the following high minute.
	lowCount, highCount := 0, 0
	for _, r := range reqs {
		switch {
		case r.Arrival < time.Minute:
			lowCount++
		case r.Arrival < 2*time.Minute:
			highCount++
		}
	}
	if highCount <= lowCount {
		t.Errorf("burst minute (%d) not busier than low minute (%d)", highCount, lowCount)
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	if _, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{Duration: time.Minute}); err == nil {
		t.Error("zero QPS accepted")
	}
	if _, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{QPS: 1}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		QPS: 1, Duration: time.Minute, BurstQPS: 2,
	}); err == nil {
		t.Error("burst without period accepted")
	}
	if _, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		QPS: 1, Duration: time.Minute, Weights: []float64{1},
	}); err == nil {
		t.Error("weights/classes mismatch accepted")
	}
}

func TestQoServeBeatsFCFSUnderOverload(t *testing.T) {
	// The headline behaviour through the public API: under overload,
	// QoServe's violation rate is far below FCFS's.
	reqs, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset:  qoserve.DatasetAzureCode,
		QPS:      6,
		Duration: 5 * time.Minute,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := qoserve.Serve(qoserve.Options{Policy: qoserve.PolicySarathiFCFS}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	qsv, err := qoserve.Serve(qoserve.Options{Policy: qoserve.PolicyQoServe}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if qsv.ViolationRate >= fcfs.ViolationRate/2 {
		t.Errorf("QoServe %.3f not well below FCFS %.3f", qsv.ViolationRate, fcfs.ViolationRate)
	}
}

func TestQoServeTuningAblation(t *testing.T) {
	reqs := smallWorkload(t, 4, 3*time.Minute)
	full, err := qoserve.Serve(qoserve.Options{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := qoserve.Serve(qoserve.Options{
		QoServe: qoserve.QoServeTuning{
			DisableDynamicChunking: true,
			DisableEagerRelegation: true,
			DisableHybridPriority:  true,
		},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if full.ViolationRate > stripped.ViolationRate {
		t.Errorf("full QoServe (%.3f) worse than stripped (%.3f)",
			full.ViolationRate, stripped.ViolationRate)
	}
}

func TestFindMaxGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search is slow")
	}
	spec := qoserve.WorkloadSpec{Dataset: qoserve.DatasetAzureCode, Seed: 3}
	opts := qoserve.CapacityOptions{ProbeDuration: 3 * time.Minute, Seed: 3}
	edf, err := qoserve.FindMaxGoodput(qoserve.Options{Policy: qoserve.PolicySarathiEDF}, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	qsv, err := qoserve.FindMaxGoodput(qoserve.Options{Policy: qoserve.PolicyQoServe}, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if edf <= 0 || qsv <= edf {
		t.Errorf("goodput: EDF %.2f, QoServe %.2f — QoServe should exceed EDF", edf, qsv)
	}
	// Siloed deployments are rejected.
	if _, err := qoserve.FindMaxGoodput(qoserve.Options{Silos: map[string]int{"Q1": 1}}, spec, opts); err == nil {
		t.Error("silo goodput search accepted")
	}
}

func TestFindMinReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search is slow")
	}
	spec := qoserve.WorkloadSpec{Dataset: qoserve.DatasetAzureCode, QPS: 12, Seed: 4}
	opts := qoserve.CapacityOptions{ProbeDuration: 3 * time.Minute, Seed: 4}
	n, err := qoserve.FindMinReplicas(qoserve.Options{Policy: qoserve.PolicyQoServe}, spec, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 16 {
		t.Fatalf("replicas = %d", n)
	}
	if _, err := qoserve.FindMinReplicas(qoserve.Options{}, qoserve.WorkloadSpec{}, 4, opts); err == nil {
		t.Error("zero-QPS spec accepted")
	}
}

func TestGenerateWorkloadBurstinessCV(t *testing.T) {
	smooth, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset: qoserve.DatasetAzureCode, QPS: 5, Duration: 4 * time.Minute,
		BurstinessCV: 0.3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := qoserve.GenerateWorkload(qoserve.WorkloadSpec{
		Dataset: qoserve.DatasetAzureCode, QPS: 5, Duration: 4 * time.Minute,
		BurstinessCV: 3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cv := func(reqs []qoserve.Request) float64 {
		var sum, sumSq float64
		for i := 1; i < len(reqs); i++ {
			gap := (reqs[i].Arrival - reqs[i-1].Arrival).Seconds()
			sum += gap
			sumSq += gap * gap
		}
		n := float64(len(reqs) - 1)
		mean := sum / n
		return math.Sqrt(sumSq/n-mean*mean) / mean
	}
	if cv(bursty) <= cv(smooth) {
		t.Errorf("bursty CV %.2f not above smooth CV %.2f", cv(bursty), cv(smooth))
	}
}

func TestServeHorizonOverride(t *testing.T) {
	reqs := smallWorkload(t, 2, 2*time.Minute)
	report, err := qoserve.Serve(qoserve.Options{Horizon: 30 * time.Second}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Duration != 30*time.Second {
		t.Fatalf("duration = %v, want 30s", report.Duration)
	}
	completed := 0
	for _, o := range report.Outcomes {
		if o.Completed {
			completed++
		}
	}
	if completed >= len(reqs) {
		t.Error("everything completed despite a tight horizon")
	}
}

func TestQoServeTuningKnobs(t *testing.T) {
	reqs := smallWorkload(t, 2, time.Minute)
	report, err := qoserve.Serve(qoserve.Options{
		QoServe: qoserve.QoServeTuning{
			Alpha:                4 * time.Millisecond,
			DisableAdaptiveAlpha: true,
			MaxChunk:             1024,
		},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if report.ViolationRate > 0.05 {
		t.Errorf("tuned run violations %.3f", report.ViolationRate)
	}
}

func TestReportPercentilesAndOutcomes(t *testing.T) {
	reqs := smallWorkload(t, 2, 2*time.Minute)
	report, err := qoserve.Serve(qoserve.Options{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if p50, p99 := report.TTLTPercentile("Q2", 0.5), report.TTLTPercentile("Q2", 0.99); p50 <= 0 || p99 < p50 {
		t.Errorf("Q2 TTLT p50=%v p99=%v", p50, p99)
	}
	if v := report.ViolationRateOf("Q3"); v < 0 || v > 1 {
		t.Errorf("Q3 violation rate = %v", v)
	}
	for _, o := range report.Outcomes {
		if o.Completed && (o.TTFT <= 0 || o.TTLT < o.TTFT) {
			t.Fatalf("inconsistent outcome %+v", o)
		}
		if o.Completed && o.MaxTBT < 0 {
			t.Fatalf("negative MaxTBT in %+v", o)
		}
	}
}

func TestServeSiloedStrictestClassGetsSmallChunk(t *testing.T) {
	// Two interactive tiers with different TBTs: the strictest gets the
	// 256 chunk silo; the run must complete cleanly either way.
	classes := []qoserve.Class{
		{Name: "strict", Kind: qoserve.Interactive, TTFT: 6 * time.Second, TBT: 50 * time.Millisecond},
		{Name: "loose", Kind: qoserve.Interactive, TTFT: 6 * time.Second, TBT: 200 * time.Millisecond},
	}
	reqs := []qoserve.Request{
		{Class: "strict", PromptTokens: 500, DecodeTokens: 5},
		{Class: "loose", Arrival: time.Second, PromptTokens: 500, DecodeTokens: 5},
	}
	report, err := qoserve.Serve(qoserve.Options{
		Classes: classes,
		Silos:   map[string]int{"strict": 1, "loose": 1},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if report.ViolationRate != 0 {
		t.Errorf("violations %.3f on an idle silo pair", report.ViolationRate)
	}
}
