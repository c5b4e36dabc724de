package explain

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/tree"
)

// linearish builds a 2-class dataset where only feature 0 matters.
func linearish(rng *rand.Rand, n, d int) (*mat.Matrix, []int) {
	X := mat.NewOf[float64](n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := X.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if row[0] > 0 {
			y[i] = 1
			row[0] += 2
		} else {
			row[0] -= 2
		}
	}
	return X, y
}

func TestSHAPFindsTheSignalFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := linearish(rng, 200, 6)
	model := tree.NewForest(tree.ForestConfig{Trees: 15, MaxDepth: 6, Seed: 1})
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	shap := NewSHAP(model, X.SelectRows(rangeInts(50)))
	shap.Permutations = 6

	vals := shap.Matrix(X.SelectRows([]int{0, 1, 2, 3, 4, 5, 6, 7}), 1)
	top := TopFeatures(vals, 3)
	if top[0] != 0 {
		t.Fatalf("most impactful feature is %d, want 0 (ranking %v)", top[0], top)
	}
}

func TestSHAPValuesSumToModelDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := linearish(rng, 150, 4)
	model := tree.NewForest(tree.ForestConfig{Trees: 10, MaxDepth: 5, Seed: 1})
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bg := X.SelectRows(rangeInts(60))
	shap := NewSHAP(model, bg)
	shap.Permutations = 40 // tight estimate for the additivity check

	x := X.Row(3)
	phi := shap.values(rand.New(rand.NewSource(shap.Seed)), x, 1)
	sum := mat.Sum(phi)

	fx := model.PredictProba(mat.FromRows([][]float64{x})).At(0, 1)
	ef := mat.Mean(columnOf(model.PredictProba(bg), 1))
	if math.Abs(sum-(fx-ef)) > 0.15 {
		t.Fatalf("SHAP additivity violated: sum %.3f vs f(x)-E[f] %.3f", sum, fx-ef)
	}
}

func TestSummarizeNamesAndOrder(t *testing.T) {
	vals := mat.FromRows([][]float64{
		{0.1, -0.5, 0.0},
		{0.2, -0.4, 0.0},
	})
	impacts := Summarize(vals, []string{"a", "b", "c"}, 2)
	if len(impacts) != 2 {
		t.Fatalf("impacts %d", len(impacts))
	}
	if impacts[0].Name != "b" || impacts[1].Name != "a" {
		t.Fatalf("ranking wrong: %+v", impacts)
	}
	if impacts[0].MeanSHAP >= 0 {
		t.Fatal("feature b should have negative mean SHAP")
	}
	if impacts[0].MeanAbs <= impacts[1].MeanAbs {
		t.Fatal("MeanAbs ordering broken")
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var _ ml.Classifier = (*tree.Forest)(nil)

func columnOf(m *mat.Matrix, j int) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}
