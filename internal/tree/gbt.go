package tree

import (
	"errors"
	"math/rand"
	"sort"

	"trail/internal/mat"
)

// GBTConfig controls the gradient-boosted tree ensemble. The objective is
// XGBoost's "multi:softprob": per round, one second-order regression tree
// per class fits the softmax gradient, with Newton leaf weights
// -G/(H+lambda).
type GBTConfig struct {
	Rounds         int
	MaxDepth       int
	LearningRate   float64
	Lambda         float64 // L2 regularisation on leaf weights
	Gamma          float64 // minimum loss reduction to split
	MinChildWeight float64 // minimum hessian sum per leaf
	// Subsample is the row-sampling fraction per round.
	Subsample float64
	// ColSample is the number of feature candidates per split; 0 = all.
	ColSample int
	Seed      int64
}

// DefaultGBTConfig returns settings comparable to common XGBoost
// defaults, scaled for the synthetic datasets.
func DefaultGBTConfig() GBTConfig {
	return GBTConfig{
		Rounds:         40,
		MaxDepth:       6,
		LearningRate:   0.3,
		Lambda:         1,
		Gamma:          0,
		MinChildWeight: 1,
		Subsample:      0.8,
		ColSample:      0,
		Seed:           1,
	}
}

// GBT is the boosted ensemble: trees[round][class].
type GBT struct {
	Config  GBTConfig
	classes int
	trees   [][]*regTree
	base    float64
}

// NewGBT returns an untrained booster.
func NewGBT(cfg GBTConfig) *GBT {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 30
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 1
	}
	if cfg.MinChildWeight <= 0 {
		cfg.MinChildWeight = 1
	}
	return &GBT{Config: cfg}
}

// Fit trains with the multiclass soft-probability objective.
func (g *GBT) Fit(X *mat.Matrix, y []int) error {
	if X.Rows != len(y) {
		return errors.New("tree: GBT.Fit rows/labels mismatch")
	}
	if X.Rows == 0 {
		return errors.New("tree: GBT.Fit empty training set")
	}
	g.classes = 0
	for _, c := range y {
		if c+1 > g.classes {
			g.classes = c + 1
		}
	}
	rng := rand.New(rand.NewSource(g.Config.Seed))
	n := X.Rows

	// Raw scores per sample per class; start at 0 (uniform softmax).
	scores := mat.NewOf[float64](n, g.classes)
	probs := mat.NewOf[float64](n, g.classes)
	grad := make([]float64, n)
	hess := make([]float64, n)

	g.trees = make([][]*regTree, 0, g.Config.Rounds)
	for round := 0; round < g.Config.Rounds; round++ {
		// Softmax over current scores.
		for i := 0; i < n; i++ {
			mat.Softmax(probs.Row(i), scores.Row(i))
		}
		// Row subsample for this round.
		idx := allIndices(n)
		if g.Config.Subsample < 1 {
			mat.Shuffle(rng, idx)
			idx = idx[:int(float64(n)*g.Config.Subsample)]
			sort.Ints(idx)
		}
		roundTrees := make([]*regTree, g.classes)
		for c := 0; c < g.classes; c++ {
			for _, i := range idx {
				p := probs.At(i, c)
				target := 0.0
				if y[i] == c {
					target = 1
				}
				grad[i] = p - target
				hess[i] = p * (1 - p)
				if hess[i] < 1e-16 {
					hess[i] = 1e-16
				}
			}
			t := &regTree{cfg: g.Config}
			t.grow(X, grad, hess, idx, 0, rng)
			roundTrees[c] = t
			// Update scores for *all* rows with the new tree.
			lr := g.Config.LearningRate
			for i := 0; i < n; i++ {
				scores.Set(i, c, scores.At(i, c)+lr*t.predict(X.Row(i)))
			}
		}
		g.trees = append(g.trees, roundTrees)
	}
	return nil
}

// PredictProba returns softmax probabilities from the boosted scores.
func (g *GBT) PredictProba(X *mat.Matrix) *mat.Matrix {
	if g.trees == nil {
		panic("tree: GBT.PredictProba before Fit")
	}
	out := mat.NewOf[float64](X.Rows, g.classes)
	lr := g.Config.LearningRate
	for i := 0; i < X.Rows; i++ {
		row := X.Row(i)
		score := out.Row(i)
		for _, roundTrees := range g.trees {
			for c, t := range roundTrees {
				score[c] += lr * t.predict(row)
			}
		}
		mat.Softmax(score, score)
	}
	return out
}

// --- second-order regression tree ---------------------------------------------

type regTree struct {
	cfg   GBTConfig
	nodes []node
}

func (t *regTree) grow(X *mat.Matrix, grad, hess []float64, idx []int, depth int, rng *rand.Rand) int32 {
	gSum, hSum := 0.0, 0.0
	for _, i := range idx {
		gSum += grad[i]
		hSum += hess[i]
	}
	if depth >= t.cfg.MaxDepth || len(idx) < 2 {
		return t.leaf(gSum, hSum)
	}
	f, thr, gain := t.bestSplit(X, grad, hess, idx, gSum, hSum, rng)
	if gain <= t.cfg.Gamma {
		return t.leaf(gSum, hSum)
	}
	left, right := partition(X, idx, f, thr)
	if len(left) == 0 || len(right) == 0 {
		return t.leaf(gSum, hSum)
	}
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{Feature: f, Threshold: thr})
	l := t.grow(X, grad, hess, left, depth+1, rng)
	r := t.grow(X, grad, hess, right, depth+1, rng)
	t.nodes[self].Left, t.nodes[self].Right = l, r
	return self
}

func (t *regTree) leaf(gSum, hSum float64) int32 {
	t.nodes = append(t.nodes, node{Feature: -1, Value: -gSum / (hSum + t.cfg.Lambda)})
	return int32(len(t.nodes) - 1)
}

func (t *regTree) bestSplit(X *mat.Matrix, grad, hess []float64, idx []int, gTot, hTot float64, rng *rand.Rand) (feat int, thr float64, gain float64) {
	lambda := t.cfg.Lambda
	parent := gTot * gTot / (hTot + lambda)
	feats := sampleFeatures(rng, X.Cols, t.cfg.ColSample)
	pairs := make([]valIdx, len(idx))
	gain = 0
	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = valIdx{X.At(i, f), i}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		gl, hl := 0.0, 0.0
		for k := 0; k < len(pairs)-1; k++ {
			i := pairs[k].i
			gl += grad[i]
			hl += hess[i]
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			gr, hr := gTot-gl, hTot-hl
			if hl < t.cfg.MinChildWeight || hr < t.cfg.MinChildWeight {
				continue
			}
			g := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent)
			if g > gain {
				gain = g
				feat = f
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}

func (t *regTree) predict(row []float64) float64 {
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.Feature < 0 {
			return nd.Value
		}
		if row[nd.Feature] <= nd.Threshold {
			cur = nd.Left
		} else {
			cur = nd.Right
		}
	}
}
