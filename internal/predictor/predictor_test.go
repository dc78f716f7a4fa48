package predictor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/profile"
	"qoserve/internal/sim"
)

func trainedForest(t testing.TB) (*Forest, model.Config) {
	t.Helper()
	mc := model.Llama3_8B_A100_TP1()
	samples, err := profile.Collect(mc, profile.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Train(samples, ForestConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f, mc
}

func TestTreeFitsSimpleFunction(t *testing.T) {
	// y = 2*x0: a tree should recover this within leaf-granularity error.
	var samples []profile.Sample
	for i := 0; i < 400; i++ {
		var f [profile.FeatureCount]float64
		f[0] = float64(i)
		samples = append(samples, profile.Sample{Features: f, Latency: 2 * float64(i)})
	}
	tree := FitTree(samples, nil, TreeConfig{}, nil)
	for _, x := range []float64{10, 100, 250, 399} {
		var f [profile.FeatureCount]float64
		f[0] = x
		got := tree.Predict(f)
		if math.Abs(got-2*x) > 25 { // leaves average ~4+ points
			t.Errorf("tree(%v) = %v, want ~%v", x, got, 2*x)
		}
	}
	if tree.Depth() < 3 {
		t.Errorf("tree suspiciously shallow: %v", tree)
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	var samples []profile.Sample
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		var f [profile.FeatureCount]float64
		f[0] = rng.Float64()
		samples = append(samples, profile.Sample{Features: f, Latency: rng.Float64()})
	}
	tree := FitTree(samples, nil, TreeConfig{MinLeaf: 50}, nil)
	// With min leaf 50 over 100 samples, at most one split.
	if tree.Nodes() > 3 {
		t.Errorf("tree has %d nodes, expected <= 3", tree.Nodes())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	var samples []profile.Sample
	for i := 0; i < 50; i++ {
		var f [profile.FeatureCount]float64
		f[0] = float64(i)
		samples = append(samples, profile.Sample{Features: f, Latency: 7})
	}
	tree := FitTree(samples, nil, TreeConfig{}, nil)
	if tree.Nodes() != 1 {
		t.Errorf("constant-target tree has %d nodes, want 1", tree.Nodes())
	}
	var f [profile.FeatureCount]float64
	if got := tree.Predict(f); got != 7 {
		t.Errorf("predict = %v, want 7", got)
	}
}

// TestForestAccuracy is the paper's <10% error-margin claim: the forest
// should predict batch latency within ~10% on unseen shapes.
func TestForestAccuracy(t *testing.T) {
	f, mc := trainedForest(t)
	rng := rand.New(rand.NewSource(99))
	var worst, sumErr float64
	const trials = 300
	for i := 0; i < trials; i++ {
		shape := model.BatchShape{}
		if rng.Intn(4) > 0 {
			shape.Prefill = []model.ChunkShape{{
				Tokens:   64 + rng.Intn(3000),
				CtxStart: rng.Intn(6000),
			}}
		}
		for d := rng.Intn(40); d > 0; d-- {
			shape.DecodeCtx = append(shape.DecodeCtx, rng.Intn(8000))
		}
		if shape.TotalNewTokens() == 0 {
			continue
		}
		truth := mc.BatchTime(shape).Seconds()
		pred := f.Predict(shape).Seconds()
		rel := math.Abs(pred-truth) / truth
		sumErr += rel
		if rel > worst {
			worst = rel
		}
	}
	if avg := sumErr / trials; avg > 0.10 {
		t.Errorf("mean relative error %.3f, want < 0.10", avg)
	}
	if worst > 0.60 {
		t.Errorf("worst relative error %.3f unreasonably high", worst)
	}
}

func TestPredictSafeInflates(t *testing.T) {
	f, _ := trainedForest(t)
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 512}},
		DecodeCtx: []int{1000, 2000},
	}
	raw := f.Predict(shape)
	safe := f.PredictSafe(shape)
	ratio := float64(safe) / float64(raw)
	if math.Abs(ratio-1.10) > 1e-6 {
		t.Errorf("safe/raw = %v, want 1.10", ratio)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, ForestConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	samples := make([]profile.Sample, 100)
	if _, err := Train(samples, ForestConfig{SampleFrac: 2}); err == nil {
		t.Error("sample fraction > 1 accepted")
	}
	if _, err := Train(samples, ForestConfig{SafetyMargin: 1.5}); err == nil {
		t.Error("margin > 1 accepted")
	}
}

func TestOraclePredictsExactly(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 777, CtxStart: 123}},
		DecodeCtx: []int{50, 60},
	}
	if o.Predict(shape) != mc.BatchTime(shape) {
		t.Error("oracle deviates from cost model")
	}
	om := Oracle{Config: mc, Margin: 0.2}
	want := sim.Time(float64(mc.BatchTime(shape)) * 1.2)
	if got := om.PredictSafe(shape); got != want {
		t.Errorf("margined oracle = %v, want %v", got, want)
	}
}

// TestChunkBudgetRespectsBudget verifies the inverse query: the chunk
// returned always fits the budget under the safe prediction, and chunk+1
// would not (or the cap was hit).
func TestChunkBudgetRespectsBudget(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	decodes := []int{1000, 2000, 500}
	for _, budgetMS := range []int{30, 50, 80, 120, 250} {
		budget := sim.Time(budgetMS) * sim.Millisecond
		chunk := ChunkBudget(o, decodes, 0, budget, 4096)
		shape := model.BatchShape{DecodeCtx: decodes}
		if chunk > 0 {
			shape.Prefill = []model.ChunkShape{{Tokens: chunk}}
		}
		if got := o.PredictSafe(shape); got > budget {
			t.Errorf("budget %v: chunk %d predicted %v over budget", budget, chunk, got)
		}
		if chunk < 4096 {
			shape.Prefill = []model.ChunkShape{{Tokens: chunk + 1}}
			if got := o.PredictSafe(shape); got <= budget {
				t.Errorf("budget %v: chunk %d+1 still fits (%v); not maximal", budget, chunk, got)
			}
		}
	}
}

func TestChunkBudgetEdges(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	// Budget below the fixed overhead: nothing fits.
	if got := ChunkBudget(o, nil, 0, sim.Millisecond, 4096); got != 0 {
		t.Errorf("tiny budget chunk = %d, want 0", got)
	}
	// Huge budget: cap wins.
	if got := ChunkBudget(o, nil, 0, sim.Hour, 2500); got != 2500 {
		t.Errorf("huge budget chunk = %d, want 2500", got)
	}
	// Degenerate caps/budgets.
	if got := ChunkBudget(o, nil, 0, 0, 2500); got != 0 {
		t.Errorf("zero budget chunk = %d", got)
	}
	if got := ChunkBudget(o, nil, 0, sim.Second, 0); got != 0 {
		t.Errorf("zero cap chunk = %d", got)
	}
}

// TestChunkBudgetForestFits checks the invariant ChunkBudget promises for
// the three qoserved forests (profile seed 1, forest seed 1), which are not
// monotone in chunk size: the chunk is within [0, maxChunk], a non-zero
// chunk's safe prediction is within budget, and maxChunk is returned
// whenever it fits.
func TestChunkBudgetForestFits(t *testing.T) {
	for _, hw := range hardware {
		samples, err := profile.Collect(hw.mc, profile.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Train(samples, ForestConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		safe := func(x [profile.FeatureCount]float64, chunk, prefillCtx int) sim.Time {
			x[profile.FeatChunkTokens] = float64(chunk)
			x[profile.FeatPrefillCtx] = float64(prefillCtx)
			return f.PredictSafeFeats(x)
		}
		for _, nDec := range []int{0, 1, 4, 16, 64} {
			for _, ctx := range []int{0, 1024, 4096, 12800} {
				decodes := make([]int, nDec)
				for i := range decodes {
					decodes[i] = ctx
				}
				x := DecodeFeats(decodes)
				for _, prefillCtx := range []int{0, 2048} {
					for _, budget := range []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 25 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond, 400 * sim.Millisecond} {
						for _, maxChunk := range []int{1, 256, 4096} {
							got := ChunkBudget(f, decodes, prefillCtx, budget, maxChunk)
							switch {
							case got < 0 || got > maxChunk:
								t.Fatalf("%s: chunk %d outside [0, %d]", hw.name, got, maxChunk)
							case got > 0 && safe(x, got, prefillCtx) > budget:
								t.Fatalf("%s: %d decodes at %d, prefill ctx %d: chunk %d predicted %v over budget %v",
									hw.name, nDec, ctx, prefillCtx, got, safe(x, got, prefillCtx), budget)
							case got != maxChunk && safe(x, maxChunk, prefillCtx) <= budget:
								t.Fatalf("%s: chunk %d, but maxChunk %d fits budget %v", hw.name, got, maxChunk, budget)
							}
						}
					}
				}
			}
		}
	}
}

// TestChunkBudgetUnderPredictionBias: with a forest, the margin must make
// the realized (true) latency of the chosen chunk exceed the budget only
// rarely and mildly. This is the "err on the side of under-predicting"
// requirement.
func TestChunkBudgetUnderPredictionBias(t *testing.T) {
	f, mc := trainedForest(t)
	rng := rand.New(rand.NewSource(17))
	over := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		var decodes []int
		for d := rng.Intn(20); d > 0; d-- {
			decodes = append(decodes, rng.Intn(4000))
		}
		budget := sim.Time(30+rng.Intn(200)) * sim.Millisecond
		chunk := ChunkBudget(f, decodes, rng.Intn(4000), budget, 4096)
		if chunk == 0 {
			continue
		}
		shape := model.BatchShape{
			Prefill:   []model.ChunkShape{{Tokens: chunk}},
			DecodeCtx: decodes,
		}
		truth := mc.BatchTime(shape)
		if truth > budget+budget/10 { // >10% over budget counts as a blown target
			over++
		}
	}
	if frac := float64(over) / trials; frac > 0.05 {
		t.Errorf("blown budgets in %.1f%% of trials, want <= 5%%", 100*frac)
	}
}

func TestForestTreeCount(t *testing.T) {
	f, _ := trainedForest(t)
	if f.Trees() != 20 {
		t.Errorf("forest has %d trees, want default 20", f.Trees())
	}
}

func BenchmarkForestPredict(b *testing.B) {
	f, _ := trainedForest(b)
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 512, CtxStart: 800}},
		DecodeCtx: []int{100, 2000, 512, 4096, 900, 1500, 777, 3000},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(shape)
	}
}

func BenchmarkChunkBudget(b *testing.B) {
	f, _ := trainedForest(b)
	decodes := []int{100, 2000, 512, 4096, 900, 1500, 777, 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ChunkBudget(f, decodes, 1000, 80*sim.Millisecond, 4096)
	}
}

// BenchmarkTrainForest times one default forest and reports, as
// fallback/split, the share of split searches that ran the exact search
// instead of taking a certified histogram answer.
func BenchmarkTrainForest(b *testing.B) {
	b.ReportAllocs()
	mc := model.Llama3_8B_A100_TP1()
	samples, err := profile.Collect(mc, profile.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var paths splitPaths
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, paths, err = train(samples, ForestConfig{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(paths.fallbacks())/float64(paths.certified+paths.fallbacks()), "fallback/split")
}

// TestForestSaveLoadRoundTrip round-trips a trained forest and a
// hand-built one holding the NaN and ±Inf thresholds and leaves that
// non-finite training data produces; both must come back bit for bit.
func TestForestSaveLoadRoundTrip(t *testing.T) {
	trained, _ := trainedForest(t)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	nonFinite := &Forest{margin: 0.25, trees: []*Tree{
		{nodes: []treeNode{
			{feature: 0, threshold: nan, left: 1, right: 2},
			{feature: 3, threshold: math.Inf(-1), left: 3, right: 4},
			{feature: 4, threshold: math.Inf(1), left: 5, right: 6},
			{feature: -1, value: nan},
			{feature: -1, value: math.Inf(1)},
			{feature: -1, value: math.Inf(-1)},
			{feature: -1, value: math.Copysign(0, -1)},
		}},
		{nodes: []treeNode{{feature: -1, value: 1e-300}}},
	}}
	nonFinite.finalize()
	for name, f := range map[string]*Forest{"trained": trained, "non-finite": nonFinite} {
		back, err := Load(bytes.NewReader(saveBytes(t, f)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(forestBits(back), forestBits(f)) {
			t.Fatalf("%s: forest differs after round trip", name)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 100; i++ {
			shape := model.BatchShape{
				Prefill:   []model.ChunkShape{{Tokens: 1 + rng.Intn(3000), CtxStart: rng.Intn(4000)}},
				DecodeCtx: []int{rng.Intn(5000), rng.Intn(5000)},
			}
			if back.PredictSafe(shape) != f.PredictSafe(shape) {
				t.Fatalf("%s: prediction differs after round trip on %+v", name, shape)
			}
		}
	}
}

// encodeTrees saves a hand-built forest, valid or not, of the given trees.
func encodeTrees(tb testing.TB, margin float64, trees ...[]treeNode) []byte {
	f := &Forest{margin: margin}
	for _, nodes := range trees {
		f.trees = append(f.trees, &Tree{nodes: nodes})
	}
	return saveBytes(tb, f)
}

func TestLoadRejectsCorruptForests(t *testing.T) {
	leaf := treeNode{feature: -1, value: 1}
	valid := encodeTrees(t, 0.1, []treeNode{{feature: 0, threshold: 100, left: 1, right: 2}, leaf, leaf})
	badVersion := bytes.Clone(valid)
	badVersion[4] = 9
	cases := map[string][]byte{
		"garbage":     []byte("{not a forest, but long enough"),
		"bad magic":   append([]byte("QSRX"), valid[4:]...),
		"bad version": badVersion,
		"bad margin":  encodeTrees(t, 7, []treeNode{leaf}),
		"nan margin":  encodeTrees(t, math.NaN(), []treeNode{leaf}),
		"no trees":    encodeTrees(t, 0.1),
		"empty tree":  encodeTrees(t, 0.1, []treeNode{}),
		"bad feature": encodeTrees(t, 0.1, []treeNode{{feature: 99, left: 1, right: 2}, leaf, leaf}),
		"self cycle":  encodeTrees(t, 0.1, []treeNode{{feature: 0, left: 0, right: 0}}),
		"back edge":   encodeTrees(t, 0.1, []treeNode{{feature: 0, left: 1, right: 2}, {feature: 1, left: 0, right: 2}, leaf}),
		"oob child":   encodeTrees(t, 0.1, []treeNode{{feature: 0, left: 5, right: 6}}),
		"trailing":    append(bytes.Clone(valid), 0),
	}
	for n := 0; n < len(valid); n++ {
		cases[fmt.Sprintf("truncated to %d bytes", n)] = valid[:n]
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	for name, payload := range cases {
		if _, err := Load(bytes.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
