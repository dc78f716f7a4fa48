package predictor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/profile"
)

// The trained forest is part of the repo's reproducible outcome: the
// simulator's golden tallies and the experiment outputs depend on every
// split, threshold and leaf. The functions below are a frozen copy of the
// trainer as it stood before the allocation-free rewrite — sort.Slice per
// node and feature, fresh slices per partition, rng.Perm per split — kept
// as the oracle the current trainer must match byte for byte. Do not
// "fix" or speed them up.

type legacyTrainSet struct {
	feats   [][profile.FeatureCount]float64
	targets []float64
}

func legacyTrain(samples []profile.Sample, cfg ForestConfig) (*Forest, error) {
	cfg = cfg.withDefaults()
	if len(samples) < 2*cfg.Tree.withDefaults().MinLeaf {
		return nil, fmt.Errorf("predictor: %d samples is too few to train", len(samples))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	treeCfg := cfg.Tree
	treeCfg.FeatureSubset = cfg.FeatureSubset

	f := &Forest{margin: cfg.SafetyMargin}
	perTree := int(cfg.SampleFrac * float64(len(samples)))
	if perTree < 1 {
		perTree = 1
	}
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, perTree)
		for i := range idx {
			idx[i] = rng.Intn(len(samples))
		}
		pick := func(n int) []int {
			perm := rng.Perm(profile.FeatureCount)
			return perm[:n]
		}
		f.trees = append(f.trees, legacyFitTree(samples, idx, treeCfg, pick))
	}
	f.finalize()
	return f, nil
}

func legacyFitTree(samples []profile.Sample, idx []int, cfg TreeConfig, featPick func(n int) []int) *Tree {
	cfg = cfg.withDefaults()
	ts := legacyTrainSet{
		feats:   make([][profile.FeatureCount]float64, len(samples)),
		targets: make([]float64, len(samples)),
	}
	for i, s := range samples {
		ts.feats[i] = s.Features
		ts.targets[i] = s.Latency
	}
	if idx == nil {
		idx = make([]int, len(samples))
		for i := range idx {
			idx[i] = i
		}
	}
	t := &Tree{}
	legacyGrow(t, ts, idx, 0, cfg, featPick)
	return t
}

func legacyGrow(t *Tree, ts legacyTrainSet, idx []int, depth int, cfg TreeConfig, featPick func(n int) []int) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1, value: legacyMean(ts.targets, idx)})

	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || legacyConstantTargets(ts.targets, idx) {
		return self
	}

	feats := make([]int, profile.FeatureCount)
	for i := range feats {
		feats[i] = i
	}
	if featPick != nil && cfg.FeatureSubset > 0 && cfg.FeatureSubset < profile.FeatureCount {
		feats = featPick(cfg.FeatureSubset)
	}

	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	for _, f := range feats {
		thresh, gain, ok := legacyBestSplit(ts, idx, f, cfg.MinLeaf)
		if ok && gain > bestGain {
			bestFeat, bestThresh, bestGain = f, thresh, gain
		}
	}
	if bestFeat < 0 {
		return self
	}

	var left, right []int
	for _, i := range idx {
		if ts.feats[i][bestFeat] <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return self
	}

	l := legacyGrow(t, ts, left, depth+1, cfg, featPick)
	r := legacyGrow(t, ts, right, depth+1, cfg, featPick)
	t.nodes[self] = treeNode{feature: bestFeat, threshold: bestThresh, left: l, right: r}
	return self
}

func legacyBestSplit(ts legacyTrainSet, idx []int, f, minLeaf int) (thresh, gain float64, ok bool) {
	order := make([]int, len(idx))
	copy(order, idx)
	sort.Slice(order, func(a, b int) bool {
		return ts.feats[order[a]][f] < ts.feats[order[b]][f]
	})

	n := float64(len(order))
	var total, totalSq float64
	for _, i := range order {
		y := ts.targets[i]
		total += y
		totalSq += y * y
	}
	parentSSE := totalSq - total*total/n

	var leftSum, leftSq float64
	bestGain := 0.0
	for k := 0; k < len(order)-1; k++ {
		y := ts.targets[order[k]]
		leftSum += y
		leftSq += y * y
		cur, next := ts.feats[order[k]][f], ts.feats[order[k+1]][f]
		if cur == next {
			continue
		}
		nl := float64(k + 1)
		nr := n - nl
		if int(nl) < minLeaf || int(nr) < minLeaf {
			continue
		}
		rightSum := total - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
		if g := parentSSE - sse; g > bestGain {
			bestGain = g
			thresh = (cur + next) / 2
			ok = true
		}
	}
	return thresh, bestGain, ok
}

func legacyMean(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func legacyConstantTargets(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if math.Abs(y[i]-y[idx[0]]) > 1e-12 {
			return false
		}
	}
	return true
}

func saveBytes(t testing.TB, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var hardware = []struct {
	name string
	mc   model.Config
}{
	{"llama3-8b", model.Llama3_8B_A100_TP1()},
	{"qwen-7b", model.Qwen_7B_A100_TP2()},
	{"llama3-70b", model.Llama3_70B_H100_TP4()},
}

// TestTrainMatchesLegacyTrainer requires forests bit-identical to the
// frozen trainer's over 200 (profile seed, forest seed) pairs spread over
// the three hardware presets and a range of forest settings. Forests are
// small (1–3 trees) to keep the test fast; every tree still draws its
// bootstrap and feature subsets from the shared stream, so a drift in the
// random stream shows on the second tree.
func TestTrainMatchesLegacyTrainer(t *testing.T) {
	for ps := int64(1); ps <= 10; ps++ {
		hw := hardware[ps%int64(len(hardware))]
		samples, err := profile.Collect(hw.mc, profile.Config{Seed: ps})
		if err != nil {
			t.Fatal(err)
		}
		for fs := int64(1); fs <= 20; fs++ {
			cfg := ForestConfig{
				Trees:         1 + int(fs%3),
				Seed:          fs * 7919,
				FeatureSubset: []int{0, 1, 2, 4, 5}[fs%5],
				SampleFrac:    []float64{0, 0.3, 0.5, 1}[fs%4],
				Tree: TreeConfig{
					MaxDepth: []int{0, 4, 20}[(fs/3)%3],
					MinLeaf:  []int{0, 1, 2, 9}[(fs/2)%4],
				},
			}
			got, err := Train(samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyTrain(samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(forestBits(got), forestBits(want)) {
				t.Fatalf("%s profile seed %d, forest %+v: forest differs from the legacy trainer", hw.name, ps, cfg)
			}
		}
	}
}

// TestFitTreeMatchesLegacyOnTies covers FitTree's own entry point (caller
// index lists with repeats, caller feature picks) on synthetic data built
// to stress tie handling: features drawn from a handful of values, so
// most sorted columns are long runs of equal values whose internal order
// is whatever pdqsort leaves, and duplicated rows.
func TestFitTreeMatchesLegacyOnTies(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		levels := 1 + rng.Intn(6)
		samples := make([]profile.Sample, n)
		for i := range samples {
			if i > 0 && rng.Intn(5) == 0 {
				samples[i] = samples[rng.Intn(i)]
				continue
			}
			for f := range samples[i].Features {
				samples[i].Features[f] = float64(rng.Intn(levels))
			}
			samples[i].Latency = float64(rng.Intn(4)) + rng.Float64()
		}
		var idx []int
		if seed%2 == 1 {
			idx = make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
		}
		cfg := TreeConfig{MinLeaf: 1 + int(seed%3), FeatureSubset: int(seed % 4)}
		pickFor := func() func(int) []int {
			if seed%3 == 0 {
				return nil
			}
			r := rand.New(rand.NewSource(seed))
			return func(k int) []int { return r.Perm(profile.FeatureCount)[:k] }
		}
		var idxCopy []int
		if idx != nil {
			idxCopy = append([]int(nil), idx...)
		}
		got := FitTree(samples, idx, cfg, pickFor())
		want := legacyFitTree(samples, idxCopy, cfg, pickFor())
		if !bytes.Equal(treeBits(got), treeBits(want)) {
			t.Fatalf("seed %d: tree differs from the legacy trainer", seed)
		}
		for i := range idx {
			if idx[i] != idxCopy[i] {
				t.Fatalf("seed %d: FitTree reordered the caller's index list", seed)
			}
		}
	}
}

// TestFitTreeMatchesLegacyOnMixedData extends the legacy equivalence to
// the data the histogram search must hand back to the exact one or get
// right on its own: continuous columns (more levels than small nodes have
// samples), -0 beside +0, duplicated columns (exact ties between
// features), targets of both signs and mixed magnitudes, and — in every
// third set — NaN and ±Inf in features or targets.
func TestFitTreeMatchesLegacyOnMixedData(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := mixedSamples(rng, 8+rng.Intn(300), seed%3 == 2)
		cfg := TreeConfig{MinLeaf: 1 + int(seed%4), FeatureSubset: int(seed % 5)}
		pickFor := func() func(int) []int {
			r := rand.New(rand.NewSource(seed))
			return func(k int) []int { return r.Perm(profile.FeatureCount)[:k] }
		}
		got := FitTree(samples, nil, cfg, pickFor())
		want := legacyFitTree(samples, nil, cfg, pickFor())
		if !bytes.Equal(treeBits(got), treeBits(want)) {
			t.Fatalf("seed %d: tree differs from the legacy trainer", seed)
		}
	}
}

// mixedSamples draws n samples whose columns each take one shape: a few
// levels (0 spelled both -0 and +0), continuous draws, a copy of the
// previous column, or a few widely spaced levels. Targets mix signs and
// magnitudes over nine decades. With nonFinite, about one value in fifty
// is NaN or ±Inf.
func mixedSamples(rng *rand.Rand, n int, nonFinite bool) []profile.Sample {
	samples := make([]profile.Sample, n)
	for f := 0; f < profile.FeatureCount; f++ {
		kind := rng.Intn(4)
		if f == 0 && kind == 2 {
			kind = 0
		}
		levels := 1 + rng.Intn(8)
		for i := range samples {
			var v float64
			switch kind {
			case 0:
				v = float64(rng.Intn(levels))
				if v == 0 && rng.Intn(2) == 0 {
					v = math.Copysign(0, -1)
				}
			case 1:
				v = rng.NormFloat64() * 100
			case 2:
				v = samples[i].Features[f-1]
			case 3:
				v = float64(rng.Intn(levels)-levels/2) * 1e6
			}
			samples[i].Features[f] = v
		}
	}
	for i := range samples {
		samples[i].Latency = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	if nonFinite {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := range samples {
			if rng.Intn(50) != 0 {
				continue
			}
			v := special[rng.Intn(len(special))]
			if f := rng.Intn(profile.FeatureCount + 1); f < profile.FeatureCount {
				samples[i].Features[f] = v
			} else {
				samples[i].Latency = v
			}
		}
	}
	return samples
}

// treeBits encodes a tree's nodes bit for bit, every field of every node,
// NaN and ±Inf thresholds and leaves included.
func treeBits(tr *Tree) []byte {
	var b []byte
	for _, n := range tr.nodes {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(n.feature)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.threshold))
		b = binary.LittleEndian.AppendUint32(b, uint32(n.left))
		b = binary.LittleEndian.AppendUint32(b, uint32(n.right))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.value))
	}
	return b
}

// forestBits encodes a forest bit for bit, independent of any file
// format: the margin, then each tree's node count and treeBits.
func forestBits(f *Forest) []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(f.margin))
	for _, tr := range f.trees {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tr.nodes)))
		b = append(b, treeBits(tr)...)
	}
	return b
}

// TestQoservedForestDigests pins the SHA-256 of forestBits for the
// forests qoserved serves for its three -hardware settings (profile seed
// 1, forest seed 1). A change here changes every live and simulated
// scheduling decision that consults the predictor.
func TestQoservedForestDigests(t *testing.T) {
	want := map[string]string{
		"llama3-8b":  "8fb8e0a67e2b09af6f0ffccfc03d64c7e4a405c761f5c9bc1b3406ed6b599097",
		"qwen-7b":    "1bdebac23e2ab10039e928b43392c084ca779d6ac5c9dd49dd60cc33ba126150",
		"llama3-70b": "edcdaa60a6a3c643a4b88ab497ba799e7b3b84aa5c35362266e247470b127e08",
	}
	for _, hw := range hardware {
		samples, err := profile.Collect(hw.mc, profile.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Train(samples, ForestConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(forestBits(f))
		if got := hex.EncodeToString(sum[:]); got != want[hw.name] {
			t.Errorf("%s: forest digest %s, want %s", hw.name, got, want[hw.name])
		}
	}
}
