// Package predictor implements the dynamic-chunking batch-latency predictor
// of Section 3.6.1: a bagged random forest of CART regression trees trained
// on profiled latency samples, plus the inverse query GET_PREFILL_BUDGET
// (Algorithm 1) that finds the largest chunk fitting a latency budget.
//
// The paper tunes the model "to err on the side of under-predicting chunk
// size": we implement this as a multiplicative safety margin applied to
// predicted latencies before the budget comparison, so the chosen chunk is
// conservative and TBT targets are never blown by prediction error.
//
// Training output is part of the repo's reproducible outcome: every
// process that serves or simulates (qoserved, the experiments, the
// benchmark) retrains the forest from a seeded profile at start-up, and
// their results depend on every split, threshold and leaf. Train is
// therefore exact, not approximate: the random stream is drawn in a fixed
// order (bootstrap indices, then one rng.Perm-equivalent feature draw per
// split), and every split is the one an exact search picks — each node's
// column sorted by sortColumn, a specialization of the standard library's
// pdqsort that makes sort.Slice's comparisons and swaps, with split gains
// taken as float sums in that sorted order. Most nodes never run that
// search: histSplit (histsplit.go) sums targets per distinct feature value
// instead, and its answer is taken only where a rounding-error bound
// proves the exact search picks the same split; near-ties, non-finite
// data and columns with far more values than the node has samples go to
// the exact search. Growth reuses one set of scratch buffers for every
// node, partitioning each node's index list stably in place.
// oracle_test.go holds the trainer's earlier, naive form and requires
// forests bit-identical to its.
package predictor

import (
	"fmt"
	"math"
	"sort"

	"qoserve/internal/profile"
)

// treeNode is one node of a CART regression tree stored in a flat slice.
type treeNode struct {
	feature   int     // split feature; -1 for leaf
	threshold float64 // go left if x[feature] <= threshold
	left      int32   // child indices into the node slice
	right     int32
	value     float64 // leaf prediction (mean of targets)
}

// Tree is a CART regression tree.
type Tree struct {
	nodes []treeNode
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth      int // default 12
	MinLeaf       int // minimum samples per leaf, default 4
	FeatureSubset int // features considered per split; 0 means all
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 4
	}
	return c
}

// trainSet is a column-oriented view of the samples: cols[f][i] is sample
// i's value of feature f. Train builds it once per forest and every tree
// and node reads it by sample index.
//
// It also holds the level tables histSplit reads: rank[f][i] is sample
// i's dense rank among column f's distinct values, and levels[f][r] is
// the value of rank r, ascending (-0 and +0 share a level). When any
// feature or target is NaN or ±Inf, exact is set and the tables are not
// built: every split then takes the exact search.
type trainSet struct {
	cols    [profile.FeatureCount][]float64
	targets []float64

	rank   [profile.FeatureCount][]int32
	levels [profile.FeatureCount][]float64
	exact  bool
}

func newTrainSet(samples []profile.Sample) trainSet {
	var ts trainSet
	for f := range ts.cols {
		ts.cols[f] = make([]float64, len(samples))
	}
	ts.targets = make([]float64, len(samples))
	for i, s := range samples {
		for f, v := range s.Features {
			ts.cols[f][i] = v
			ts.exact = ts.exact || math.IsNaN(v) || math.IsInf(v, 0)
		}
		ts.targets[i] = s.Latency
		ts.exact = ts.exact || math.IsNaN(s.Latency) || math.IsInf(s.Latency, 0)
	}
	if ts.exact {
		return ts
	}
	n := len(samples)
	ranks := make([]int32, profile.FeatureCount*n)
	vals := make([]float64, profile.FeatureCount*n)
	for f, col := range ts.cols {
		lv := vals[f*n : f*n : (f+1)*n]
		lv = append(lv, col...)
		sort.Float64s(lv)
		k := 0
		for _, v := range lv {
			if k == 0 || v != lv[k-1] {
				lv[k] = v
				k++
			}
		}
		ts.levels[f] = lv[:k:k]
		ts.rank[f] = ranks[f*n : (f+1)*n]
		for i, v := range col {
			ts.rank[f][i] = int32(sort.SearchFloat64s(ts.levels[f], v))
		}
	}
	return ts
}

// grower grows trees over one trainSet. Its scratch buffers are sized for
// the largest node (the root) once and reused by every node and tree, so
// growth allocates only the finished trees' node slices.
type grower struct {
	ts  trainSet
	cfg TreeConfig // with defaults applied

	// pick draws the features one split considers; see features.
	pick func(n int) []int

	col   []colEntry // one node's (value, target) column under sort
	spill []int      // right-hand side of a node's partition
	nodes []treeNode // the tree being grown

	ys    []float64  // one node's targets in index order (histSplit)
	hist  []levelBin // per-level sums of one node and feature; zero between uses
	paths splitPaths // how each split search was settled
	// gains, when non-nil, collects every candidate gain histSplit
	// computes, in scan order. Only tests set it.
	gains []float64
}

func newGrower(ts trainSet, cfg TreeConfig, maxNode int) *grower {
	maxLevels := 0
	for _, lv := range ts.levels {
		maxLevels = max(maxLevels, len(lv))
	}
	return &grower{
		ts:    ts,
		cfg:   cfg.withDefaults(),
		col:   make([]colEntry, maxNode),
		spill: make([]int, 0, maxNode),
		ys:    make([]float64, maxNode),
		hist:  make([]levelBin, maxLevels),
	}
}

// FitTree grows a regression tree on the given sample indices (nil means
// every sample). When 0 < cfg.FeatureSubset < profile.FeatureCount and
// featPick is non-nil, each split considers only the features
// featPick(cfg.FeatureSubset) returns; otherwise it considers all of them.
func FitTree(samples []profile.Sample, idx []int, cfg TreeConfig, featPick func(n int) []int) *Tree {
	if idx == nil {
		idx = make([]int, len(samples))
		for i := range idx {
			idx[i] = i
		}
	} else {
		idx = append([]int(nil), idx...) // fit partitions it in place
	}
	g := newGrower(newTrainSet(samples), cfg, len(idx))
	g.pick = featPick
	return g.fit(idx)
}

// fit grows one tree over idx, which it reorders.
func (g *grower) fit(idx []int) *Tree {
	g.nodes = g.nodes[:0]
	g.grow(idx, 0)
	return &Tree{nodes: append([]treeNode(nil), g.nodes...)}
}

// grow recursively builds the subtree over idx and returns its node index.
// It reorders idx in place (see partition).
func (g *grower) grow(idx []int, depth int) int32 {
	cfg := g.cfg
	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1, value: mean(g.ts.targets, idx)})

	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || constantTargets(g.ts.targets, idx) {
		return self
	}

	bestFeat, bestThresh := g.split(idx, g.features())
	if bestFeat < 0 {
		return self
	}

	nl := g.partition(idx, bestFeat, bestThresh)
	if nl < cfg.MinLeaf || len(idx)-nl < cfg.MinLeaf {
		return self
	}

	l := g.grow(idx[:nl], depth+1)
	r := g.grow(idx[nl:], depth+1)
	g.nodes[self] = treeNode{feature: bestFeat, threshold: bestThresh, left: l, right: r}
	return self
}

// split returns the best split of the node over idx among feats, or
// feature -1 for none: histSplit's answer when it is certified, else the
// exact search's.
func (g *grower) split(idx, feats []int) (feat int, thresh float64) {
	if feat, thresh, ok := g.histSplit(idx, feats); ok {
		return feat, thresh
	}
	return g.exactSplit(idx, feats)
}

// exactSplit is the exact search: bestSplit on each feature in turn,
// keeping the first strictly largest positive gain.
func (g *grower) exactSplit(idx, feats []int) (feat int, thresh float64) {
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	for _, f := range feats {
		thresh, gain, ok := g.bestSplit(idx, f)
		if ok && gain > bestGain {
			bestFeat, bestThresh, bestGain = f, thresh, gain
		}
	}
	return bestFeat, bestThresh
}

// features returns the features one split considers: pick's draw when
// 0 < cfg.FeatureSubset < profile.FeatureCount and pick is set, else all.
func (g *grower) features() []int {
	if n := g.cfg.FeatureSubset; g.pick != nil && n > 0 && n < profile.FeatureCount {
		return g.pick(n)
	}
	return allFeatures[:]
}

// allFeatures lists every feature index. Read-only.
var allFeatures = func() (all [profile.FeatureCount]int) {
	for i := range all {
		all[i] = i
	}
	return all
}()

// partition stably moves the samples that go left under (f, thresh) to
// the front of idx and returns how many there are.
func (g *grower) partition(idx []int, f int, thresh float64) int {
	col := g.ts.cols[f]
	nl := 0
	spill := g.spill[:0]
	for _, i := range idx {
		if col[i] <= thresh {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
	return nl
}

// bestSplit finds the threshold for feature f maximizing SSE reduction,
// using the incremental sum trick over the sorted column. The column is
// gathered in idx order and sorted by sortColumn, so the sums run over
// exactly the order sort.Slice would give.
func (g *grower) bestSplit(idx []int, f int) (thresh, gain float64, ok bool) {
	vals, ys := g.ts.cols[f], g.ts.targets
	col := g.col[:len(idx)]
	for k, i := range idx {
		col[k] = colEntry{v: vals[i], y: ys[i]}
	}
	sortColumn(col)

	n := float64(len(col))
	var total, totalSq float64
	for _, e := range col {
		y := e.y
		total += y
		totalSq += y * y
	}
	parentSSE := totalSq - total*total/n

	minLeaf := g.cfg.MinLeaf
	var leftSum, leftSq float64
	bestGain := 0.0
	for k := 0; k < len(col)-1; k++ {
		y := col[k].y
		leftSum += y
		leftSq += y * y
		// Can't split between equal feature values.
		cur, next := col[k].v, col[k+1].v
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
		if d := parentSSE - sse; d > bestGain {
			bestGain = d
			thresh = (cur + next) / 2
			ok = true
		}
	}
	return thresh, bestGain, ok
}

// Predict returns the tree's latency estimate (seconds) for a feature
// vector.
func (t *Tree) Predict(x [profile.FeatureCount]float64) float64 {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(i int32) int {
	n := t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	l, r := t.depth(n.left), t.depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Nodes returns the node count, a proxy for model size.
func (t *Tree) Nodes() int { return len(t.nodes) }

func mean(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func constantTargets(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if math.Abs(y[i]-y[idx[0]]) > 1e-12 {
			return false
		}
	}
	return true
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree{nodes: %d, depth: %d}", t.Nodes(), t.Depth())
}
