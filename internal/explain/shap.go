// Package explain implements the model-explanation tooling of §VII-D:
// a sampling-based SHAP estimator (Lundberg & Lee 2017, estimated with
// the permutation scheme of Štrumbelj & Kononenko) used to surface the
// per-feature signatures of APT classes in the traditional classifiers
// (Fig. 9). The GNNExplainer counterpart lives in internal/gnn, next to
// the model weights it inspects.
package explain

import (
	"math"
	"math/rand"
	"sort"

	"trail/internal/mat"
	"trail/internal/ml"
)

// SHAP estimates Shapley values for a classifier's class probability by
// Monte Carlo permutation sampling against a background dataset.
type SHAP struct {
	Model ml.Classifier
	// Background supplies the "feature absent" reference distribution;
	// typically a sample of the training set.
	Background *mat.Matrix
	// Permutations is the number of Monte Carlo permutations per
	// explained sample (accuracy grows as 1/sqrt(P)).
	Permutations int
	Seed         int64
}

// NewSHAP builds an explainer with sane defaults.
func NewSHAP(model ml.Classifier, background *mat.Matrix) *SHAP {
	return &SHAP{Model: model, Background: background, Permutations: 8, Seed: 1}
}

// values returns the estimated Shapley value of every feature of x for
// the given class's predicted probability, drawing feature orders from
// rng. The values approximately sum to f(x) - E[f(background)].
func (s *SHAP) values(rng *rand.Rand, x []float64, class int) []float64 {
	d := len(x)
	phi := make([]float64, d)
	perms := s.Permutations
	if perms < 1 {
		perms = 4
	}
	// One permutation walk evaluates d+1 points: start from a background
	// row, switch features to x's values one at a time in permutation
	// order; the probability delta at each switch is that feature's
	// marginal contribution.
	batch := mat.NewOf[float64](d+1, d)
	for p := 0; p < perms; p++ {
		bg := s.Background.Row(rng.Intn(s.Background.Rows))
		perm := rng.Perm(d)
		z := append([]float64(nil), bg...)
		copy(batch.Row(0), z)
		for step, f := range perm {
			z[f] = x[f]
			copy(batch.Row(step+1), z)
		}
		probs := s.Model.PredictProba(batch)
		for step, f := range perm {
			phi[f] += probs.At(step+1, class) - probs.At(step, class)
		}
	}
	inv := 1 / float64(perms)
	for i := range phi {
		phi[i] *= inv
	}
	return phi
}

// Matrix computes Shapley values for every row of X (one row of output
// per sample) — the data behind a beeswarm plot.
func (s *SHAP) Matrix(X *mat.Matrix, class int) *mat.Matrix {
	rng := rand.New(rand.NewSource(s.Seed))
	out := mat.NewOf[float64](X.Rows, X.Cols)
	for i := 0; i < X.Rows; i++ {
		copy(out.Row(i), s.values(rng, X.Row(i), class))
	}
	return out
}

// TopFeatures ranks features by mean absolute Shapley value over the
// sample matrix and returns the top k indices, most impactful first.
func TopFeatures(shapVals *mat.Matrix, k int) []int {
	meanAbs := make([]float64, shapVals.Cols)
	for i := 0; i < shapVals.Rows; i++ {
		for j, v := range shapVals.Row(i) {
			meanAbs[j] += math.Abs(v)
		}
	}
	idx := make([]int, len(meanAbs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return meanAbs[idx[a]] > meanAbs[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// FeatureImpact summarises one feature's SHAP distribution for report
// rendering.
type FeatureImpact struct {
	Feature  int
	Name     string
	MeanAbs  float64
	MeanSHAP float64
}

// Summarize builds the ranked impact list with names attached.
func Summarize(shapVals *mat.Matrix, names []string, k int) []FeatureImpact {
	top := TopFeatures(shapVals, k)
	out := make([]FeatureImpact, 0, len(top))
	for _, f := range top {
		fi := FeatureImpact{Feature: f}
		if f < len(names) {
			fi.Name = names[f]
		}
		for i := 0; i < shapVals.Rows; i++ {
			v := shapVals.At(i, f)
			fi.MeanAbs += math.Abs(v)
			fi.MeanSHAP += v
		}
		if shapVals.Rows > 0 {
			fi.MeanAbs /= float64(shapVals.Rows)
			fi.MeanSHAP /= float64(shapVals.Rows)
		}
		out = append(out, fi)
	}
	return out
}
