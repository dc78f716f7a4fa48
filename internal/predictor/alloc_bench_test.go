package predictor

import (
	"bytes"
	"os"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/profile"
)

// predictShape is a representative mixed batch for the allocation guards.
func predictShape() model.BatchShape {
	return model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 1024, CtxStart: 2048}},
		DecodeCtx: []int{128, 512, 1024, 4096, 256, 768, 2048, 96},
	}
}

// TestForestPredictAllocFree pins ensemble prediction — both the shape entry
// point and the raw feature path the scheduler probes — at zero allocations.
// A regression here fails CI.
func TestForestPredictAllocFree(t *testing.T) {
	f, _ := trainedForest(t)
	b := predictShape()
	x := profile.Features(b)
	if avg := testing.AllocsPerRun(200, func() { f.Predict(b) }); avg != 0 {
		t.Errorf("Predict allocates %.2f objects/run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { f.PredictSafeFeats(x) }); avg != 0 {
		t.Errorf("PredictSafeFeats allocates %.2f objects/run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		ChunkBudgetFeats(f, DecodeFeats(b.DecodeCtx), 2048, f.PredictSafe(b), 2500)
	}); avg != 0 {
		t.Errorf("ChunkBudgetFeats allocates %.2f objects/run, want 0", avg)
	}
}

// BenchmarkChunkBudgetFeats measures the full allocation-free budget
// inversion (the ~12-probe binary search run once per planned batch).
func BenchmarkChunkBudgetFeats(b *testing.B) {
	f, _ := trainedForest(b)
	shape := predictShape()
	decode := DecodeFeats(shape.DecodeCtx)
	budget := f.PredictSafe(shape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChunkBudgetFeats(f, decode, 2048, budget, 2500)
	}
}

// TestTrainAllocCeiling caps forest training's allocations. Growth reuses
// one set of scratch buffers for every node of every tree, so a default
// 20-tree forest costs about 76 allocations — the column view and its
// level tables, the scratch, the PRNG, and each finished tree's node
// slice — where the sort.Slice trainer it replaced made about 61,700. A
// per-node allocation creeping back in would add thousands.
func TestTrainAllocCeiling(t *testing.T) {
	samples, err := profile.Collect(model.Llama3_8B_A100_TP1(), profile.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 100
	if avg := testing.AllocsPerRun(3, func() {
		if _, err := Train(samples, ForestConfig{Seed: 2}); err != nil {
			t.Fatal(err)
		}
	}); avg > ceiling {
		t.Errorf("Train allocates %.0f objects/run, want <= %d", avg, ceiling)
	}
}

// shippedForest reads the llama3-8b forest the serving processes load.
func shippedForest(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("forests/llama3-8b.forest")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkLoad times decoding a shipped forest, the predictor's share of
// a serving process's cold start.
func BenchmarkLoad(b *testing.B) {
	data := shippedForest(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocCeiling caps the loader's allocations. Decoding a shipped
// 20-tree forest costs 62: one node slice and one Tree per tree, the
// flattened arrays, and io.ReadAll growing the input buffer for most of
// the rest. A per-node allocation would add thousands.
func TestLoadAllocCeiling(t *testing.T) {
	data := shippedForest(t)
	const ceiling = 80
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}); avg > ceiling {
		t.Errorf("Load allocates %.0f objects/run, want <= %d", avg, ceiling)
	}
}
