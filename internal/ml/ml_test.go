package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trail/internal/mat"
)

// blobs generates a k-class Gaussian-blob dataset that a working
// classifier must separate easily.
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

func TestNNLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := blobs(rng, 300, 10, 3, 0.5)
	cfg := DefaultNNConfig()
	cfg.Hidden = []int{32, 16}
	cfg.Epochs = 30
	nn := NewNN(cfg)
	if err := nn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(y, Predict(nn, X))
	if acc < 0.95 {
		t.Fatalf("NN training accuracy %.3f < 0.95 on separable blobs", acc)
	}
}

func TestNNProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := blobs(rng, 90, 6, 3, 0.5)
	nn := NewNN(NNConfig{Hidden: []int{16}, Epochs: 5, LR: 1e-3, BatchSize: 16, Seed: 1})
	if err := nn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probs := nn.PredictProba(X)
	for i := 0; i < probs.Rows; i++ {
		if s := mat.Sum(probs.Row(i)); math.Abs(s-1) > 1e-6 {
			t.Fatalf("row %d probs sum %v", i, s)
		}
	}
}

func TestNNFitErrors(t *testing.T) {
	nn := NewNN(DefaultNNConfig())
	if err := nn.Fit(mat.NewOf[float64](0, 3), nil); err == nil {
		t.Fatal("expected error on empty training set")
	}
	if err := nn.Fit(mat.NewOf[float64](2, 3), []int{0}); err == nil {
		t.Fatal("expected error on rows/labels mismatch")
	}
}

func TestAccuracyMetrics(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{0, 1, 1, 1, 0, 0}
	if got := Accuracy(truth, pred); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	// Per-class recalls: 1/2, 2/2, 0/2 -> balanced = 0.5.
	if got := BalancedAccuracy(truth, pred, 3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("balanced accuracy %v", got)
	}
}

func TestBalancedAccuracyIgnoresAbsentClasses(t *testing.T) {
	truth := []int{0, 0, 1}
	pred := []int{0, 0, 1}
	if got := BalancedAccuracy(truth, pred, 22); got != 1 {
		t.Fatalf("balanced accuracy with absent classes = %v, want 1", got)
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix([]int{0, 0, 1}, []int{0, 1, 1}, 2)
	if cm.Counts[0][0] != 1 || cm.Counts[0][1] != 1 || cm.Counts[1][1] != 1 {
		t.Fatalf("confusion counts wrong: %+v", cm.Counts)
	}
	if s := cm.Render([]string{"a", "b"}); len(s) == 0 {
		t.Fatal("empty render")
	}
}

func TestScalerZeroMeanUnitVar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := mat.RandNormalOf[float64](rng, 200, 4, 7, 3)
	s := FitScaler(X)
	Z := s.Transform(X)
	for j := 0; j < 4; j++ {
		col := make([]float64, Z.Rows)
		for i := range col {
			col[i] = Z.At(i, j)
		}
		if m := mat.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("col %d mean %v", j, m)
		}
		if sd := mat.Std(col); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("col %d std %v", j, sd)
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	X := mat.FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	s := FitScaler(X)
	Z := s.Transform(X)
	for i := 0; i < 3; i++ {
		if Z.At(i, 0) != 0 {
			t.Fatalf("constant column should map to 0, got %v", Z.At(i, 0))
		}
	}
}

func TestSMOTEBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 40 of class 0, 8 of class 1.
	rows := [][]float64{}
	y := []int{}
	for i := 0; i < 40; i++ {
		rows = append(rows, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, 0)
	}
	for i := 0; i < 8; i++ {
		rows = append(rows, []float64{5 + rng.NormFloat64(), 5 + rng.NormFloat64()})
		y = append(y, 1)
	}
	X := mat.FromRows(rows)
	Xb, yb := SMOTE(rng, X, y, 2, 5)
	counts := map[int]int{}
	for _, c := range yb {
		counts[c]++
	}
	if counts[0] != counts[1] {
		t.Fatalf("SMOTE did not balance: %v", counts)
	}
	// Synthetic minority points must lie in the minority region, not the
	// majority one (interpolation property).
	for i := X.Rows; i < Xb.Rows; i++ {
		if yb[i] != 1 {
			t.Fatalf("synthetic sample %d has majority label", i)
		}
		if Xb.At(i, 0) < 2 {
			t.Fatalf("synthetic minority point out of region: %v", Xb.Row(i))
		}
	}
}

func TestStratifiedKFoldProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(4)
		}
		k := 5
		folds := StratifiedKFold(rng, y, k)
		seen := make(map[int]int)
		for _, fold := range folds {
			for _, i := range fold {
				seen[i]++
			}
		}
		if len(seen) != n {
			return false // partition must cover all samples
		}
		for _, c := range seen {
			if c != 1 {
				return false // exactly once
			}
		}
		// Stratification: class counts per fold within 1 of each other.
		for c := 0; c < 4; c++ {
			min, max := n, 0
			for _, fold := range folds {
				cnt := 0
				for _, i := range fold {
					if y[i] == c {
						cnt++
					}
				}
				if cnt < min {
					min = cnt
				}
				if cnt > max {
					max = cnt
				}
			}
			if max-min > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestComplement(t *testing.T) {
	got := Complement(5, []int{1, 3})
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("complement %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("complement %v", got)
		}
	}
}

func TestMode(t *testing.T) {
	if Mode(nil) != -1 {
		t.Fatal("Mode(nil)")
	}
	if Mode([]int{2, 1, 2, 3}) != 2 {
		t.Fatal("Mode basic")
	}
	if Mode([]int{1, 2}) != 1 {
		t.Fatal("Mode tie should pick smallest")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Minimise ||w - target||^2 directly through the optimiser.
	p := &ParamOf[float64]{W: mat.NewOf[float64](1, 4), G: mat.NewOf[float64](1, 4)}
	target := []float64{1, -2, 3, 0.5}
	opt := NewAdamOf(0.1, []*ParamOf[float64]{p})
	loss := func() float64 {
		s := 0.0
		for j, tv := range target {
			d := p.W.Data[j] - tv
			s += d * d
		}
		return s
	}
	start := loss()
	for i := 0; i < 200; i++ {
		for j, tv := range target {
			p.G.Data[j] = 2 * (p.W.Data[j] - tv)
		}
		opt.Step()
	}
	if end := loss(); end > start/100 {
		t.Fatalf("Adam failed to optimise: %v -> %v", start, end)
	}
}
