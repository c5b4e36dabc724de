package tree

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"trail/internal/mat"
)

// ForestConfig controls the Random Forest ensemble.
type ForestConfig struct {
	Trees          int
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures per split; 0 selects sqrt(d) at fit time (the standard
	// Random Forest default).
	MaxFeatures int
	Seed        int64
	// Parallel trains trees across GOMAXPROCS goroutines.
	Parallel bool
}

// DefaultForestConfig mirrors a reasonable scikit-learn-style default.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 60, MaxDepth: 14, MinSamplesLeaf: 2, Seed: 1, Parallel: true}
}

// Forest is a bootstrap-aggregated ensemble of CART trees.
type Forest struct {
	Config  ForestConfig
	classes int
	trees   []*DecisionTree
}

// NewForest returns an untrained forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 14
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &Forest{Config: cfg}
}

// Fit trains the ensemble on bootstrap resamples of (X, y).
func (f *Forest) Fit(X *mat.Matrix, y []int) error {
	if X.Rows != len(y) {
		return errors.New("tree: Forest.Fit rows/labels mismatch")
	}
	if X.Rows == 0 {
		return errors.New("tree: Forest.Fit empty training set")
	}
	f.classes = 0
	for _, c := range y {
		if c+1 > f.classes {
			f.classes = c + 1
		}
	}
	maxFeatures := f.Config.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = int(math.Sqrt(float64(X.Cols)))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	f.trees = make([]*DecisionTree, f.Config.Trees)

	workers := 1
	if f.Config.Parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for ti := range f.trees {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer func() { <-sem; wg.Done() }()
			rng := rand.New(rand.NewSource(f.Config.Seed + int64(ti)*7919))
			boot := make([]int, X.Rows)
			for i := range boot {
				boot[i] = rng.Intn(X.Rows)
			}
			t := NewDecisionTree(DecisionTreeConfig{
				MaxDepth:       f.Config.MaxDepth,
				MinSamplesLeaf: f.Config.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
			})
			// Classes must be uniform across trees even if a bootstrap
			// sample misses the last class.
			t.classes = f.classes
			t.nodes = t.nodes[:0]
			t.grow(X, y, boot, 0, rng)
			f.trees[ti] = t
		}(ti)
	}
	wg.Wait()
	return nil
}

// PredictProba averages the member trees' leaf distributions.
func (f *Forest) PredictProba(X *mat.Matrix) *mat.Matrix {
	if len(f.trees) == 0 {
		panic("tree: Forest.PredictProba before Fit")
	}
	out := mat.NewOf[float64](X.Rows, f.classes)
	for _, t := range f.trees {
		for i := 0; i < X.Rows; i++ {
			mat.Axpy(1, t.probaRow(X.Row(i)), out.Row(i))
		}
	}
	out.Scale(1 / float64(len(f.trees)))
	return out
}
