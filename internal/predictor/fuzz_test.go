package predictor

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"qoserve/internal/model"
)

// FuzzLoad ensures arbitrary bytes never panic the forest loader, and that
// any forest it accepts terminates on Predict (the structural validation
// must reject graphs that could loop).
func FuzzLoad(f *testing.F) {
	f.Add(`{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":-1,"v":0.5}]}]}`)
	f.Add(`{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":0,"t":100,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}]}]}`)
	f.Add(`{"version":1`)
	f.Add(`{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":0,"l":0,"r":0}]}]}`)

	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 256, CtxStart: 100}},
		DecodeCtx: []int{500, 1000},
	}
	f.Fuzz(func(t *testing.T, data string) {
		forest, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted forests must predict without hanging or panicking.
		_ = forest.Predict(shape)
		_ = forest.PredictSafe(shape)
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
