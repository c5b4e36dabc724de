// Package tree implements the tree-based classifiers of the paper's
// traditional-ML track: CART decision trees, Random Forest (Breiman
// 2001), and an XGBoost-style gradient-boosted tree ensemble with the
// multiclass soft-probability objective (Chen & Guestrin 2016), all from
// scratch on the stdlib.
package tree

import (
	"math/rand"
	"sort"

	"trail/internal/mat"
)

// node is one node of a binary decision tree. Leaves have Feature == -1.
type node struct {
	Feature   int
	Threshold float64
	Left      int32 // child indexes into the tree's node arena
	Right     int32
	// Probs is the class distribution at a classification leaf.
	Probs []float64
	// Value is the output of a regression leaf (gradient boosting).
	Value float64
}

// DecisionTreeConfig controls CART growth.
type DecisionTreeConfig struct {
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures is the number of features sampled per split; 0 means
	// all features (plain CART), sqrt(d) is the Random Forest default.
	MaxFeatures int
	Seed        int64
}

// DecisionTree is a CART classifier grown with Gini impurity.
type DecisionTree struct {
	Config  DecisionTreeConfig
	classes int
	nodes   []node
}

// NewDecisionTree returns an untrained tree.
func NewDecisionTree(cfg DecisionTreeConfig) *DecisionTree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &DecisionTree{Config: cfg}
}

// Fit grows the tree on rows of X with labels y.
func (t *DecisionTree) Fit(X *mat.Matrix, y []int) error {
	return t.FitIndexed(X, y, allIndices(X.Rows), rand.New(rand.NewSource(t.Config.Seed)))
}

// FitIndexed grows the tree on the given subset of rows (used by the
// forest for bootstrap samples; idx may contain repeats).
func (t *DecisionTree) FitIndexed(X *mat.Matrix, y []int, idx []int, rng *rand.Rand) error {
	t.classes = 0
	for _, c := range y {
		if c+1 > t.classes {
			t.classes = c + 1
		}
	}
	t.nodes = t.nodes[:0]
	t.grow(X, y, idx, 0, rng)
	return nil
}

func (t *DecisionTree) leaf(X *mat.Matrix, y []int, idx []int) int32 {
	probs := make([]float64, t.classes)
	for _, i := range idx {
		probs[y[i]]++
	}
	inv := 1 / float64(len(idx))
	for j := range probs {
		probs[j] *= inv
	}
	t.nodes = append(t.nodes, node{Feature: -1, Probs: probs})
	return int32(len(t.nodes) - 1)
}

func (t *DecisionTree) grow(X *mat.Matrix, y []int, idx []int, depth int, rng *rand.Rand) int32 {
	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinSamplesLeaf || pure(y, idx) {
		return t.leaf(X, y, idx)
	}
	f, thr, ok := t.bestGiniSplit(X, y, idx, rng)
	if !ok {
		return t.leaf(X, y, idx)
	}
	left, right := partition(X, idx, f, thr)
	if len(left) < t.Config.MinSamplesLeaf || len(right) < t.Config.MinSamplesLeaf {
		return t.leaf(X, y, idx)
	}
	// Reserve our slot before growing children so the arena index is
	// stable.
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{Feature: f, Threshold: thr})
	l := t.grow(X, y, left, depth+1, rng)
	r := t.grow(X, y, right, depth+1, rng)
	t.nodes[self].Left, t.nodes[self].Right = l, r
	return self
}

// bestGiniSplit scans candidate features for the split minimising
// weighted Gini impurity.
func (t *DecisionTree) bestGiniSplit(X *mat.Matrix, y []int, idx []int, rng *rand.Rand) (feat int, thr float64, ok bool) {
	feats := sampleFeatures(rng, X.Cols, t.Config.MaxFeatures)
	total := make([]float64, t.classes)
	for _, i := range idx {
		total[y[i]]++
	}
	n := float64(len(idx))
	// Zero-gain splits are allowed (as in scikit-learn): problems like
	// XOR have no single impurity-reducing split, yet deeper splits
	// separate perfectly. MaxDepth bounds the recursion.
	bestScore := giniOf(total, n) + 1e-9
	pairs := make([]valIdx, len(idx))

	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = valIdx{X.At(i, f), i}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		left := make([]float64, t.classes)
		nl := 0.0
		for k := 0; k < len(pairs)-1; k++ {
			left[y[pairs[k].i]]++
			nl++
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			nr := n - nl
			score := (nl*giniLeft(left, nl, total) + nr*giniRight(left, total, nr)) / n
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (pairs[k].v + pairs[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

type valIdx struct {
	v float64
	i int
}

func giniOf(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / n
		s -= p * p
	}
	return s
}

func giniLeft(left []float64, nl float64, _ []float64) float64 { return giniOf(left, nl) }

func giniRight(left, total []float64, nr float64) float64 {
	if nr == 0 {
		return 0
	}
	s := 1.0
	for c := range total {
		p := (total[c] - left[c]) / nr
		s -= p * p
	}
	return s
}

func partition(X *mat.Matrix, idx []int, f int, thr float64) (left, right []int) {
	for _, i := range idx {
		if X.At(i, f) <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

func pure(y []int, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// sampleFeatures picks m distinct feature indices (all when m <= 0 or
// m >= d).
func sampleFeatures(rng *rand.Rand, d, m int) []int {
	if m <= 0 || m >= d {
		return allIndices(d)
	}
	perm := rng.Perm(d)
	return perm[:m]
}

// PredictProba returns per-row class probabilities.
func (t *DecisionTree) PredictProba(X *mat.Matrix) *mat.Matrix {
	out := mat.NewOf[float64](X.Rows, t.classes)
	for i := 0; i < X.Rows; i++ {
		copy(out.Row(i), t.probaRow(X.Row(i)))
	}
	return out
}

func (t *DecisionTree) probaRow(row []float64) []float64 {
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.Feature < 0 {
			return nd.Probs
		}
		if row[nd.Feature] <= nd.Threshold {
			cur = nd.Left
		} else {
			cur = nd.Right
		}
	}
}

// NumNodes reports the grown tree size (diagnostics and tests).
func (t *DecisionTree) NumNodes() int { return len(t.nodes) }
