package predictor

import (
	"math"
	"math/rand"
	"testing"

	"qoserve/internal/profile"
)

// sortedOrderGains returns every candidate gain of the node over idx, per
// feature in feats order and by ascending threshold: bestSplit's sums and
// expression, taken in sortColumn order.
func sortedOrderGains(g *grower, idx, feats []int) []float64 {
	var gains []float64
	for _, f := range feats {
		col := make([]colEntry, len(idx))
		for k, i := range idx {
			col[k] = colEntry{v: g.ts.cols[f][i], y: g.ts.targets[i]}
		}
		sortColumn(col)
		n := float64(len(col))
		var total, totalSq float64
		for _, e := range col {
			total += e.y
			totalSq += e.y * e.y
		}
		parentSSE := totalSq - total*total/n
		var leftSum, leftSq float64
		for k := 0; k < len(col)-1; k++ {
			leftSum += col[k].y
			leftSq += col[k].y * col[k].y
			if col[k].v == col[k+1].v {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < g.cfg.MinLeaf || int(nr) < g.cfg.MinLeaf {
				continue
			}
			rightSum := total - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			gains = append(gains, parentSSE-sse)
		}
	}
	return gains
}

// TestSplitCertificateBound checks splitErrorBound's claim on thousands
// of random nodes over mixedSamples data (tie-heavy and duplicated
// columns, negative targets, magnitudes over nine decades): every gain
// the histogram search computes is within 2E of the same candidate's gain
// in sorted order. It also checks each certified answer against the exact
// search, and that the two summation orders do differ somewhere, so the
// bound is exercised.
func TestSplitCertificateBound(t *testing.T) {
	var checked, differ, certified int
	worst := 0.0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := mixedSamples(rng, 8+rng.Intn(200), false)
		ts := newTrainSet(samples)
		for node := 0; node < 10; node++ {
			idx := make([]int, len(samples)/4+rng.Intn(2*len(samples)))
			for k := range idx {
				idx[k] = rng.Intn(len(samples))
			}
			feats := rand.New(rand.NewSource(int64(node))).Perm(profile.FeatureCount)[:1+rng.Intn(profile.FeatureCount)]
			g := newGrower(ts, TreeConfig{MinLeaf: 1 + rng.Intn(5)}, len(idx))
			g.gains = []float64{}
			feat, thresh, ok := g.histSplit(idx, feats)
			if g.paths.noHist > 0 {
				continue
			}
			want := sortedOrderGains(g, idx, feats)
			if len(g.gains) != len(want) {
				t.Fatalf("seed %d node %d: %d histogram candidates, %d sorted", seed, node, len(g.gains), len(want))
			}
			var s1, s2 float64
			for _, i := range idx {
				s1 += math.Abs(ts.targets[i])
				s2 += ts.targets[i] * ts.targets[i]
			}
			bound := splitErrorBound(float64(len(idx)), s1, s2)
			for k, got := range g.gains {
				d := math.Abs(got - want[k])
				if d > 2*bound {
					t.Fatalf("seed %d node %d candidate %d: gains %v and %v differ by %g > 2E = %g", seed, node, k, got, want[k], d, 2*bound)
				}
				if d > 0 {
					differ++
					worst = max(worst, d/bound)
				}
				checked++
			}
			if ok {
				certified++
				if wf, wt := g.exactSplit(idx, feats); feat != wf || math.Float64bits(thresh) != math.Float64bits(wt) {
					t.Fatalf("seed %d node %d: certified split (%d, %v), exact search (%d, %v)", seed, node, feat, thresh, wf, wt)
				}
			}
		}
	}
	t.Logf("%d candidate gains, %d differ by summation order (worst %.3g·E); %d nodes certified", checked, differ, worst, certified)
	if checked < 10000 || differ == 0 || certified == 0 {
		t.Fatalf("weak run: %d gains checked, %d differ, %d nodes certified", checked, differ, certified)
	}
}

// TestSplitPathsAllRun requires every way a split search can be settled
// to occur — a certified histogram answer, a near-tie handed to the exact
// search, and the exact search alone for continuous or non-finite data —
// and the tree grown each time to be the legacy trainer's.
func TestSplitPathsAllRun(t *testing.T) {
	samples, err := profile.Collect(hardware[0].mc, profile.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, paths, err := train(samples, ForestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if paths.certified == 0 || paths.nearTie == 0 || paths.noHist != 0 {
		t.Errorf("qoserved forest split searches %+v: want certified > 0, nearTie > 0, noHist == 0", paths)
	}

	continuous := make([]profile.Sample, 300)
	rng := rand.New(rand.NewSource(1))
	for i := range continuous {
		for f := range continuous[i].Features {
			continuous[i].Features[f] = rng.Float64()
		}
		continuous[i].Latency = continuous[i].Features[0] + rng.Float64()/10
	}
	nonFinite := append([]profile.Sample(nil), samples[:200]...)
	nonFinite[17].Features[profile.FeatPrefillCtx] = math.Inf(1)
	for name, set := range map[string][]profile.Sample{"continuous": continuous, "non-finite": nonFinite} {
		idx := make([]int, len(set))
		for i := range idx {
			idx[i] = i
		}
		g := newGrower(newTrainSet(set), TreeConfig{}, len(idx))
		got := g.fit(idx)
		if g.paths.noHist == 0 {
			t.Errorf("%s: split searches %+v, want some without the histogram", name, g.paths)
		}
		if want := legacyFitTree(set, nil, TreeConfig{}, nil); string(treeBits(got)) != string(treeBits(want)) {
			t.Errorf("%s: tree differs from the legacy trainer", name)
		}
	}
}
