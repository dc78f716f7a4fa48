package predictor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSortColumn sorts rows with sortColumn and the same rows' index list
// with sort.Slice, and fails unless both leave the rows in the same order:
// the same permutation, not merely the same sorted values. Each row's
// position is recoverable because tagged rows carry their index as y.
func checkSortColumn(t *testing.T, rows []colEntry) {
	t.Helper()
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rows[order[a]].v < rows[order[b]].v })

	got := append([]colEntry(nil), rows...)
	sortColumn(got)
	tagged := make([]colEntry, len(rows))
	for i, r := range rows {
		tagged[i] = colEntry{v: r.v, y: float64(i)}
	}
	sortColumn(tagged)

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, i := range order {
		if tagged[k].y != float64(i) {
			t.Fatalf("n=%d: position %d holds row %v, sort.Slice put row %d there", len(rows), k, tagged[k].y, i)
		}
		if !same(got[k].v, rows[i].v) || !same(got[k].y, rows[i].y) {
			t.Fatalf("n=%d: position %d holds %+v, sort.Slice put %+v there", len(rows), k, got[k], rows[i])
		}
	}
}

// TestSortColumnMatchesSortSlice is the property behind the trainer's
// bit-identity: on random columns with many ties and duplicate rows, and
// on the patterns pdqsort special-cases (sorted, reversed, constant,
// sawtooth, short runs), sortColumn's permutation equals sort.Slice's.
func TestSortColumnMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := []func(i, n int) float64{
		func(i, n int) float64 { return float64(rng.Intn(3)) },
		func(i, n int) float64 { return float64(rng.Intn(n + 1)) },
		func(i, n int) float64 { return rng.NormFloat64() },
		func(i, n int) float64 { return float64(i) },
		func(i, n int) float64 { return float64(n - i) },
		func(i, n int) float64 { return 7 },
		func(i, n int) float64 { return float64(i % 17) },
		func(i, n int) float64 { return float64(i / 9) },
		func(i, n int) float64 { return float64((n - i) / 5) },
		func(i, n int) float64 {
			if rng.Intn(50) == 0 {
				return float64(rng.Intn(n + 1))
			}
			return float64(i)
		},
		func(i, n int) float64 {
			switch rng.Intn(6) {
			case 0:
				return math.NaN()
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return 0
			}
			return float64(rng.Intn(4))
		},
	}
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(40)
		if trial%3 == 0 {
			n = rng.Intn(3000)
		}
		gen := patterns[trial%len(patterns)]
		rows := make([]colEntry, n)
		for i := range rows {
			if i > 0 && rng.Intn(4) == 0 {
				rows[i] = rows[rng.Intn(i)] // duplicate row
				continue
			}
			rows[i] = colEntry{v: gen(i, n), y: float64(rng.Intn(5))}
		}
		checkSortColumn(t, rows)
	}
}

// adversaryColumn builds a column on which pdqsort degrades to its
// heapsort fallback, after McIlroy's "killer adversary for quicksort":
// values are frozen lazily during a sort.Slice run, in the order the
// comparisons ask for them, so that partitions come out lopsided. (This
// variant freezes the element that is not the current candidate, which is
// what defeats pdqsort's pivot choice.) The sort is deterministic, so
// re-sorting the frozen column repeats the same comparisons.
func adversaryColumn(n int) []colEntry {
	gas := n
	val := make([]int, n)
	ids := make([]int, n)
	for i := range val {
		val[i] = gas
		ids[i] = i
	}
	solid, candidate := 0, 0
	sort.Slice(ids, func(a, b int) bool {
		x, y := ids[a], ids[b]
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[y] = solid
			} else {
				val[x] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return val[x] < val[y]
	})
	rows := make([]colEntry, n)
	for i, v := range val {
		rows[i] = colEntry{v: float64(v), y: float64(i % 3)}
	}
	return rows
}

// TestSortColumnAdversary drives both sorts into the heapsort fallback.
func TestSortColumnAdversary(t *testing.T) {
	for _, n := range []int{64, 100, 257, 1000, 1236, 4096} {
		checkSortColumn(t, adversaryColumn(n))
	}
}
