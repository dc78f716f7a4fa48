package predictor

import "math"

// histSplit is the fast split search. For each candidate feature it makes
// one pass over the node, summing (count, Σy, Σy²) per level of the
// feature's column, then one scan over the levels in ascending order. The
// scan evaluates exactly bestSplit's candidate set — a split between each
// two adjacent distinct values with at least MinLeaf samples on either
// side — with bestSplit's SSE-gain formula and its threshold (cur+next)/2.
// (A level's value stands for every sample in it; only -0 and +0 differ
// within one, and a threshold half-way to a non-zero neighbour is the
// same for both.)
//
// The histogram sums the targets in a different order from bestSplit's
// sorted column, so its gains can differ from bestSplit's in the last
// bits, and a near-tie between two candidates could go the other way.
// histSplit therefore answers only when its winner is certified:
//
//   - Let E = splitErrorBound(n, S1, S2). Every gain either search
//     computes is within E of the gain in exact arithmetic, so the two
//     searches' values for one candidate are within 2E of each other.
//   - If the best candidate beats every other candidate of the node, and
//     0, by more than 4E, it is also the exact search's unique best, with
//     a positive gain: ok, that split.
//   - If every candidate is below -2E (or there is none), the exact search
//     finds no positive gain: ok, no split. True gains are never negative,
//     so in practice this is the no-candidate case.
//   - Otherwise the answer is not certified and ok is false; so too when
//     the set holds non-finite values or a candidate column has more than
//     histLevelsPerSample levels per node sample.
func (g *grower) histSplit(idx, feats []int) (feat int, thresh float64, ok bool) {
	ts := &g.ts
	if ts.exact {
		g.paths.noHist++
		return -1, 0, false
	}
	for _, f := range feats {
		if len(ts.levels[f]) > histLevelsPerSample*len(idx) {
			g.paths.noHist++
			return -1, 0, false
		}
	}

	ys := g.ys[:len(idx)]
	var total, totalSq, abs float64
	for k, i := range idx {
		y := ts.targets[i]
		ys[k] = y
		total += y
		totalSq += y * y
		abs += math.Abs(y)
	}
	n := float64(len(idx))
	parentSSE := totalSq - total*total/n
	bound := splitErrorBound(n, abs, totalSq)

	minLeaf := g.cfg.MinLeaf
	best, second := math.Inf(-1), math.Inf(-1)
	bestFeat, bestLo, bestHi := -1, 0, 0
	for _, f := range feats {
		rank := ts.rank[f]
		hist := g.hist[:len(ts.levels[f])]
		for k, i := range idx {
			b := &hist[rank[i]]
			y := ys[k]
			b.n++
			b.sum += y
			b.sq += y * y
		}
		// The same running sums and gain expression as bestSplit, taken
		// level by level; each bin is cleared as the scan passes it.
		var nl int
		var leftSum, leftSq float64
		prev := -1
		for r := range hist {
			b := hist[r]
			if b.n == 0 {
				continue
			}
			hist[r] = levelBin{}
			if prev >= 0 && nl >= minLeaf && len(idx)-nl >= minLeaf {
				fl := float64(nl)
				nr := n - fl
				rightSum := total - leftSum
				rightSq := totalSq - leftSq
				sse := (leftSq - leftSum*leftSum/fl) + (rightSq - rightSum*rightSum/nr)
				d := parentSSE - sse
				if g.gains != nil {
					g.gains = append(g.gains, d)
				}
				if d > best {
					second = best
					best, bestFeat, bestLo, bestHi = d, f, prev, r
				} else if d > second {
					second = d
				}
			}
			nl += b.n
			leftSum += b.sum
			leftSq += b.sq
			prev = r
		}
	}

	switch {
	case best-max(second, 0) > 4*bound:
		g.paths.certified++
		lv := ts.levels[bestFeat]
		return bestFeat, (lv[bestLo] + lv[bestHi]) / 2, true
	case best < -2*bound:
		g.paths.certified++
		return -1, 0, true
	}
	g.paths.nearTie++
	return -1, 0, false
}

// histLevelsPerSample bounds a column's level count, per node sample, for
// the histogram search: its level scan costs O(levels) against the sort's
// O(n log n), so a continuous column on a small node is cheaper to sort.
// The default profile's columns have at most 13 levels each.
const histLevelsPerSample = 4

// levelBin accumulates the node samples at one level of a column.
type levelBin struct {
	n       int
	sum, sq float64
}

// splitPaths counts how split searches were settled: by a certified
// histogram answer, by the exact search after a near-tie, or by the exact
// search because the histogram could not run (non-finite data, or too
// many levels for the node).
type splitPaths struct {
	certified, nearTie, noHist int
}

// fallbacks returns the number of searches that ran the exact search.
func (p splitPaths) fallbacks() int { return p.nearTie + p.noHist }

// splitErrorBound returns E, a bound on how far any split gain the
// trainer computes for a node can be from its value in exact arithmetic,
// whatever order the sums are taken in. n is the node's sample count
// (n ≥ 2), s1 = Σ|y| and s2 = Σy² over its targets, which must be finite.
//
// Derivation. Write u = 2⁻⁵³ and γ_k = ku/(1-ku); for any n a node can
// have, γ_n ≤ 1.0001·n·u, and γ_2 ≤ γ_n. The gain is
//
//	P − (A + B),  P = T2 − T1²/n,  A = L2 − L1²/l,  B = R2 − R1²/r,
//
// with T the node's sums, L the left side's, R1 = T1 − L1, R2 = T2 − L2,
// and l, r ≥ 1 the side counts.
//
//  1. T1 and L1 are float sums of at most n targets in some association
//     order, so each is within γ_n·S1 of its exact value (Higham,
//     "Accuracy and Stability of Numerical Algorithms", §4.2). T2 and L2
//     sum squares rounded once each, so each is within γ_n·S2.
//  2. R1 = fl(T1 − L1) is within 2γ_n·S1 + u·(1+2γ_n)·S1 ≤ 3γ_n·S1, and
//     R2 within 3γ_n·S2.
//  3. Each quotient fl(fl(s·s)/m), for an s within 3γ_n·S1 of a σ with
//     |σ| ≤ S1 and m ≥ 1, is within |s−σ|·|s+σ| + γ_2·s² ≤ 7.1γ_n·S1² of
//     σ²/m. The three quotients: 21.3γ_n·S1².
//  4. The square sums T2, L2 and R2 contribute (1+1+3)γ_n·S2.
//  5. Five roundings remain: P, A, B, A+B and the final difference. Their
//     results are at most 1, 1, 1, 2 and 3 times 1.01·(S2+S1²), so they
//     add at most 8.1u·(S2+S1²) ≤ 4.1γ_n·(S2+S1²).
//
// Total: 25.4γ_n·(S2+S1²) ≤ 25.5·n·u·(S2+S1²); c = 32 leaves room for
// the rounding of E itself and of the computed S1 and S2. Underflow
// breaks the relative-error model only for products and quotients
// (float sums are exact in the subnormal range), each losing at most
// 2⁻¹⁰⁷⁵ more; a gain takes at most 2n+6 ≤ 5n of them, which the second
// term covers. The analysis also assumes that nothing overflows; every
// intermediate is at most about 3·(S2+S1²), so past MaxFloat64/8 E is
// +Inf and nothing is certified.
func splitErrorBound(n, s1, s2 float64) float64 {
	const (
		c = 32
		u = 0x1p-53
	)
	m := s2 + s1*s1
	if m > math.MaxFloat64/8 {
		return math.Inf(1)
	}
	return c * n * (u*m + 0x1p-1074)
}
