package predictor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/profile"
)

// FuzzLoad ensures arbitrary bytes never panic the forest loader, that any
// forest it accepts terminates on Predict (the structural validation must
// reject graphs that could loop), and that Save writes an accepted input
// back byte for byte, since the format is canonical.
func FuzzLoad(f *testing.F) {
	leaf := treeNode{feature: -1, value: 0.5}
	for _, nodes := range [][]treeNode{
		{leaf},
		{{feature: 0, threshold: 100, left: 1, right: 2}, leaf, {feature: -1, value: 2}},
		{{feature: 0, left: 0, right: 0}},
	} {
		data := encodeTrees(f, 0.1, nodes)
		f.Add(data)
		f.Add(data[:len(data)-3])
	}
	// One tree of a shipped forest, not the whole 75 KB file: minimizing
	// inputs that large takes the fuzzer's whole time budget.
	whole, err := Load(bytes.NewReader(shippedForest(f)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeTrees(f, whole.margin, whole.trees[0].nodes))

	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 256, CtxStart: 100}},
		DecodeCtx: []int{500, 1000},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted forests must predict without hanging or panicking.
		_ = forest.Predict(shape)
		_ = forest.PredictSafe(shape)
		var buf bytes.Buffer
		if err := forest.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("Save does not reproduce the accepted input (err %v)", err)
		}
	})
}

// FuzzSortColumn checks that sortColumn permutes arbitrary columns exactly
// as sort.Slice does. Each byte becomes one row; values come from a small
// alphabet (ties everywhere) plus NaN, -0 and +Inf, and targets from the
// high bits, so equal bytes are duplicate rows.
func FuzzSortColumn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(bytes.Repeat([]byte{9, 9, 9, 1}, 40))
	f.Add(bytes.Repeat([]byte{0x0d, 0x0e, 0x02, 0xf0}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := make([]colEntry, len(data))
		for i, b := range data {
			var v float64
			switch lo := b & 0x0f; lo {
			case 13:
				v = math.NaN()
			case 14:
				v = math.Copysign(0, -1)
			case 15:
				v = math.Inf(1)
			default:
				v = float64(lo % 7)
			}
			rows[i] = colEntry{v: v, y: float64(b >> 4)}
		}
		checkSortColumn(t, rows)
	})
}

// FuzzFitTree requires FitTree to grow the legacy trainer's tree, bit for
// bit, on arbitrary datasets of up to 64 rows. The first byte picks
// MinLeaf, FeatureSubset and the feature-draw seed; the rest is read one
// value per byte. Tag 7 (the low three bits) takes the next eight bytes
// as raw float64 bits, so NaN, ±Inf, subnormals and continuous values all
// occur; tag 6 is -0; other bytes are one of eight feature levels, or one
// of 32 target levels of either sign, so ties are everywhere.
func FuzzFitTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0, 32, 64, 96, 128, 8, 1, 33, 65, 97, 129, 16, 2, 34, 66, 98, 130, 24})
	f.Add(bytes.Repeat([]byte{0x09, 0x20, 0x41, 0x06, 0x80, 0xa5, 0x3b}, 40))
	f.Add(append([]byte{0x12, 7, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 6, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, bytes.Repeat([]byte{0x61, 0x22, 0x06}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head, rest := data[0], data[1:]
		next := func(target bool) (float64, bool) {
			if len(rest) == 0 {
				return 0, false
			}
			b := rest[0]
			rest = rest[1:]
			switch b & 7 {
			case 7:
				if len(rest) < 8 {
					return 0, false
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
				return v, true
			case 6:
				return math.Copysign(0, -1), true
			}
			if target {
				return float64(b>>3) - 16, true
			}
			return float64(b >> 5), true
		}
		var samples []profile.Sample
	rows:
		for len(samples) < 64 {
			var s profile.Sample
			for i := range s.Features {
				v, ok := next(false)
				if !ok {
					break rows
				}
				s.Features[i] = v
			}
			v, ok := next(true)
			if !ok {
				break
			}
			s.Latency = v
			samples = append(samples, s)
		}
		cfg := TreeConfig{MinLeaf: 1 + int(head&3), FeatureSubset: int(head>>2) % (profile.FeatureCount + 1)}
		pickFor := func() func(int) []int {
			r := rand.New(rand.NewSource(int64(head >> 5)))
			return func(k int) []int { return r.Perm(profile.FeatureCount)[:k] }
		}
		got := FitTree(samples, nil, cfg, pickFor())
		want := legacyFitTree(samples, nil, cfg, pickFor())
		if !bytes.Equal(treeBits(got), treeBits(want)) {
			t.Fatalf("tree differs from the legacy trainer on %d rows, %+v", len(samples), cfg)
		}
	})
}
