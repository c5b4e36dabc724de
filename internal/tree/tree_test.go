package tree

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
	"trail/internal/ml"
)

func blobs(rng *rand.Rand, n, d, k int, spread float64) (*mat.Matrix, []int) {
	X := mat.NewOf[float64](n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		y[i] = c
		row := X.Row(i)
		for j := range row {
			center := 0.0
			if j%k == c {
				center = 3
			}
			row[j] = center + rng.NormFloat64()*spread
		}
	}
	return X, y
}

func TestDecisionTreeLearnsXORish(t *testing.T) {
	// A single axis split cannot solve this; depth-2 CART must.
	rows := [][]float64{}
	y := []int{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		rows = append(rows, []float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	X := mat.FromRows(rows)
	dt := NewDecisionTree(DecisionTreeConfig{MaxDepth: 6})
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(y, ml.Predict(dt, X))
	if acc < 0.95 {
		t.Fatalf("decision tree XOR accuracy %.3f", acc)
	}
	if dt.NumNodes() < 3 {
		t.Fatalf("tree too small: %d nodes", dt.NumNodes())
	}
}

func TestDecisionTreePureLeafShortCircuit(t *testing.T) {
	X := mat.FromRows([][]float64{{1}, {2}, {3}})
	y := []int{1, 1, 1}
	dt := NewDecisionTree(DecisionTreeConfig{MaxDepth: 5})
	if err := dt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if dt.NumNodes() != 1 {
		t.Fatalf("pure data should give a single leaf, got %d nodes", dt.NumNodes())
	}
}

func TestForestLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := blobs(rng, 300, 12, 3, 0.8)
	rf := NewForest(ForestConfig{Trees: 20, MaxDepth: 8, Seed: 1, Parallel: true})
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(y, ml.Predict(rf, X))
	if acc < 0.95 {
		t.Fatalf("forest accuracy %.3f", acc)
	}
	probs := rf.PredictProba(X)
	for i := 0; i < probs.Rows; i++ {
		if s := mat.Sum(probs.Row(i)); math.Abs(s-1) > 1e-9 {
			t.Fatalf("forest probs row %d sums to %v", i, s)
		}
	}
}

func TestForestGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := blobs(rng, 400, 10, 4, 1.0)
	Xtr, ytr := X.SelectRows(seqRange(0, 300)), y[:300]
	Xte, yte := X.SelectRows(seqRange(300, 400)), y[300:]
	rf := NewForest(ForestConfig{Trees: 25, MaxDepth: 10, Seed: 1})
	if err := rf.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(yte, ml.Predict(rf, Xte)); acc < 0.85 {
		t.Fatalf("forest test accuracy %.3f", acc)
	}
}

func TestGBTLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := blobs(rng, 300, 12, 3, 0.8)
	gbt := NewGBT(GBTConfig{Rounds: 15, MaxDepth: 4, LearningRate: 0.3, Lambda: 1, Subsample: 1, Seed: 1})
	if err := gbt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(y, ml.Predict(gbt, X))
	if acc < 0.95 {
		t.Fatalf("GBT accuracy %.3f", acc)
	}
}

func TestGBTProbabilitiesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := blobs(rng, 120, 6, 3, 0.5)
	gbt := NewGBT(GBTConfig{Rounds: 5, MaxDepth: 3, Seed: 1})
	if err := gbt.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probs := gbt.PredictProba(X)
	for i := 0; i < probs.Rows; i++ {
		s := 0.0
		for _, p := range probs.Row(i) {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("invalid probability %v", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("probs sum %v", s)
		}
	}
}

func TestFitErrorCases(t *testing.T) {
	if err := NewForest(DefaultForestConfig()).Fit(mat.NewOf[float64](0, 2), nil); err == nil {
		t.Fatal("forest: expected error on empty data")
	}
	if err := NewGBT(DefaultGBTConfig()).Fit(mat.NewOf[float64](2, 2), []int{0}); err == nil {
		t.Fatal("gbt: expected error on mismatched labels")
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := blobs(rng, 150, 8, 3, 0.6)
	preds := func(seed int64) []int {
		rf := NewForest(ForestConfig{Trees: 10, MaxDepth: 6, Seed: seed, Parallel: true})
		if err := rf.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return ml.Predict(rf, X)
	}
	a, b := preds(42), preds(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

func seqRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
