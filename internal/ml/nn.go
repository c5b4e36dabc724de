package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"trail/internal/mat"
)

// layer is one differentiable stage of the feed-forward network.
type layer interface {
	forward(x *mat.Matrix, train bool) *mat.Matrix
	backward(grad *mat.Matrix) *mat.Matrix
	params() []*ParamOf[float64]
}

// ParamOf couples a trainable tensor with its gradient accumulator, at
// the model's element type.
type ParamOf[T mat.Float] struct {
	W *mat.Dense[T]
	G *mat.Dense[T]
}

// --- Dense -------------------------------------------------------------------

type dense struct {
	w, b    *ParamOf[float64]
	inCache *mat.Matrix
}

func newDense(rng *rand.Rand, in, out int) *dense {
	return &dense{
		w: &ParamOf[float64]{W: mat.GlorotUniformOf[float64](rng, in, out), G: mat.NewOf[float64](in, out)},
		b: &ParamOf[float64]{W: mat.NewOf[float64](1, out), G: mat.NewOf[float64](1, out)},
	}
}

func (d *dense) forward(x *mat.Matrix, train bool) *mat.Matrix {
	if train {
		d.inCache = x
	}
	out := mat.MatMul(x, d.w.W)
	out.AddRowVector(d.b.W.Row(0))
	return out
}

func (d *dense) backward(grad *mat.Matrix) *mat.Matrix {
	dw := mat.MatMulTransA(d.inCache, grad)
	mat.AddInPlace(d.w.G, dw)
	bg := d.b.G.Row(0)
	for i := 0; i < grad.Rows; i++ {
		mat.Axpy(1, grad.Row(i), bg)
	}
	return mat.MatMulTransB(grad, d.w.W)
}

func (d *dense) params() []*ParamOf[float64] { return []*ParamOf[float64]{d.w, d.b} }

// --- ReLU --------------------------------------------------------------------

type relu struct {
	mask *mat.Matrix
}

func (r *relu) forward(x *mat.Matrix, train bool) *mat.Matrix {
	out := x.Clone()
	if train {
		r.mask = mat.NewOf[float64](x.Rows, x.Cols)
	}
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else if train {
			r.mask.Data[i] = 1
		}
	}
	return out
}

func (r *relu) backward(grad *mat.Matrix) *mat.Matrix {
	return mat.Hadamard(grad, r.mask)
}

func (r *relu) params() []*ParamOf[float64] { return nil }

// --- BatchNorm ----------------------------------------------------------------

type batchNorm struct {
	gamma, beta     *ParamOf[float64]
	runMean, runVar []float64
	momentum, eps   float64
	xhat            *mat.Matrix
	invStd          []float64
}

func newBatchNorm(dim int) *batchNorm {
	bn := &batchNorm{
		gamma:    &ParamOf[float64]{W: mat.NewOf[float64](1, dim), G: mat.NewOf[float64](1, dim)},
		beta:     &ParamOf[float64]{W: mat.NewOf[float64](1, dim), G: mat.NewOf[float64](1, dim)},
		runMean:  make([]float64, dim),
		runVar:   make([]float64, dim),
		momentum: 0.9,
		eps:      1e-5,
	}
	bn.gamma.W.Fill(1)
	for j := range bn.runVar {
		bn.runVar[j] = 1
	}
	return bn
}

func (bn *batchNorm) forward(x *mat.Matrix, train bool) *mat.Matrix {
	dim := x.Cols
	out := mat.NewOf[float64](x.Rows, dim)
	gamma, beta := bn.gamma.W.Row(0), bn.beta.W.Row(0)
	if !train || x.Rows < 2 {
		for i := 0; i < x.Rows; i++ {
			src, dst := x.Row(i), out.Row(i)
			for j := 0; j < dim; j++ {
				xh := (src[j] - bn.runMean[j]) / math.Sqrt(bn.runVar[j]+bn.eps)
				dst[j] = gamma[j]*xh + beta[j]
			}
		}
		return out
	}
	mean := x.ColMeans()
	variance := make([]float64, dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := 0; j < dim; j++ {
			d := row[j] - mean[j]
			variance[j] += d * d
		}
	}
	n := float64(x.Rows)
	bn.invStd = make([]float64, dim)
	for j := 0; j < dim; j++ {
		variance[j] /= n
		bn.invStd[j] = 1 / math.Sqrt(variance[j]+bn.eps)
		bn.runMean[j] = bn.momentum*bn.runMean[j] + (1-bn.momentum)*mean[j]
		bn.runVar[j] = bn.momentum*bn.runVar[j] + (1-bn.momentum)*variance[j]
	}
	bn.xhat = mat.NewOf[float64](x.Rows, dim)
	for i := 0; i < x.Rows; i++ {
		src, dst, xh := x.Row(i), out.Row(i), bn.xhat.Row(i)
		for j := 0; j < dim; j++ {
			xh[j] = (src[j] - mean[j]) * bn.invStd[j]
			dst[j] = gamma[j]*xh[j] + beta[j]
		}
	}
	return out
}

func (bn *batchNorm) backward(grad *mat.Matrix) *mat.Matrix {
	n := float64(grad.Rows)
	dim := grad.Cols
	gamma := bn.gamma.W.Row(0)
	gG, bG := bn.gamma.G.Row(0), bn.beta.G.Row(0)

	sumDy := make([]float64, dim)
	sumDyXhat := make([]float64, dim)
	for i := 0; i < grad.Rows; i++ {
		g, xh := grad.Row(i), bn.xhat.Row(i)
		for j := 0; j < dim; j++ {
			sumDy[j] += g[j]
			sumDyXhat[j] += g[j] * xh[j]
		}
	}
	for j := 0; j < dim; j++ {
		gG[j] += sumDyXhat[j]
		bG[j] += sumDy[j]
	}
	out := mat.NewOf[float64](grad.Rows, dim)
	for i := 0; i < grad.Rows; i++ {
		g, xh, dst := grad.Row(i), bn.xhat.Row(i), out.Row(i)
		for j := 0; j < dim; j++ {
			dst[j] = gamma[j] * bn.invStd[j] / n *
				(n*g[j] - sumDy[j] - xh[j]*sumDyXhat[j])
		}
	}
	return out
}

func (bn *batchNorm) params() []*ParamOf[float64] { return []*ParamOf[float64]{bn.gamma, bn.beta} }

// --- Dropout -----------------------------------------------------------------

type dropout struct {
	rate float64
	rng  *rand.Rand
	mask *mat.Matrix
}

func (d *dropout) forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || d.rate <= 0 {
		return x
	}
	keep := 1 - d.rate
	d.mask = mat.NewOf[float64](x.Rows, x.Cols)
	out := mat.NewOf[float64](x.Rows, x.Cols)
	scale := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

func (d *dropout) backward(grad *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return grad
	}
	return mat.Hadamard(grad, d.mask)
}

func (d *dropout) params() []*ParamOf[float64] { return nil }

// --- Adam --------------------------------------------------------------------

// AdamOf is the Adam optimiser (Kingma & Ba) over a fixed parameter set
// at element type T. Hyperparameters, bias corrections and every per-
// element update compute in float64; only the stored weights and moments
// round to T (the identity at float64, so the reference path is
// bit-identical to the pre-generic optimiser).
type AdamOf[T mat.Float] struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  []*mat.Dense[T]
	params                []*ParamOf[T]
}

// NewAdamOf prepares optimiser state for params at any element type.
func NewAdamOf[T mat.Float](lr float64, params []*ParamOf[T]) *AdamOf[T] {
	a := &AdamOf[T]{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, mat.NewOf[T](p.W.Rows, p.W.Cols))
		a.v = append(a.v, mat.NewOf[T](p.W.Rows, p.W.Cols))
	}
	return a
}

// Step applies one Adam update from the accumulated gradients and zeroes
// them.
func (a *AdamOf[T]) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			gf := float64(g)
			mf := a.Beta1*float64(m.Data[j]) + (1-a.Beta1)*gf
			vf := a.Beta2*float64(v.Data[j]) + (1-a.Beta2)*gf*gf
			m.Data[j] = T(mf)
			v.Data[j] = T(vf)
			mhat := mf / bc1
			vhat := vf / bc2
			p.W.Data[j] = T(float64(p.W.Data[j]) - a.LR*mhat/(math.Sqrt(vhat)+a.Eps))
		}
		p.G.Zero()
	}
}

// --- Network -----------------------------------------------------------------

// NNConfig configures the feed-forward classifier. The zero value is not
// usable; start from DefaultNNConfig.
type NNConfig struct {
	// Hidden lists the hidden layer widths.
	Hidden []int
	// DropoutRate is applied after the first DropoutLayers hidden layers.
	DropoutRate   float64
	DropoutLayers int
	LR            float64
	Epochs        int
	BatchSize     int
	Seed          int64
	// Classes is the output dimension; if 0, inferred as max(y)+1 at Fit.
	Classes int
	// ClipNorm caps the global gradient L2 norm per step (0 disables
	// clipping). See guard.go.
	ClipNorm float64
	// Quiet suppresses any future logging hooks (reserved).
	Quiet bool
}

// DefaultNNConfig is a scaled-down version of the §VI-A architecture
// (2048-1024-512-128-64 hidden units, 50% dropout in the first three):
// the same shape (wide→narrow, batch-norm, front-loaded dropout), sized
// to train quickly on the synthetic datasets.
func DefaultNNConfig() NNConfig {
	return NNConfig{
		Hidden:        []int{256, 128, 64},
		DropoutRate:   0.5,
		DropoutLayers: 2,
		LR:            1e-3,
		Epochs:        25,
		BatchSize:     64,
		Seed:          1,
	}
}

// NN is the feed-forward softmax classifier.
type NN struct {
	Config  NNConfig
	layers  []layer
	classes int
	rng     *rand.Rand
}

// NewNN returns an untrained network.
func NewNN(cfg NNConfig) *NN {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	return &NN{Config: cfg}
}

// Fit trains the network with Adam on softmax cross-entropy.
func (n *NN) Fit(X *mat.Matrix, y []int) error {
	if X.Rows != len(y) {
		return fmt.Errorf("ml: NN.Fit rows %d != labels %d", X.Rows, len(y))
	}
	if X.Rows == 0 {
		return errors.New("ml: NN.Fit empty training set")
	}
	n.classes = n.Config.Classes
	if n.classes == 0 {
		for _, c := range y {
			if c+1 > n.classes {
				n.classes = c + 1
			}
		}
	}
	n.rng = rand.New(rand.NewSource(n.Config.Seed))
	n.buildLayers(X.Cols)

	var params []*ParamOf[float64]
	for _, l := range n.layers {
		params = append(params, l.params()...)
	}
	opt := NewAdamOf(n.Config.LR, params)

	idx := make([]int, X.Rows)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.Config.Epochs; epoch++ {
		mat.Shuffle(n.rng, idx)
		for start := 0; start < len(idx); start += n.Config.BatchSize {
			end := start + n.Config.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			xb := X.SelectRows(batch)
			out := xb
			for _, l := range n.layers {
				out = l.forward(out, true)
			}
			grad, loss := softmaxCEGrad(out, y, batch)
			if err := CheckLoss(epoch, loss); err != nil {
				return err
			}
			for i := len(n.layers) - 1; i >= 0; i-- {
				grad = n.layers[i].backward(grad)
			}
			if norm := ClipGrads(params, n.Config.ClipNorm); math.IsNaN(norm) || math.IsInf(norm, 0) {
				return &DivergenceError{Quantity: "gradient", Epoch: epoch, Value: norm}
			}
			opt.Step()
		}
	}
	return nil
}

func (n *NN) buildLayers(inputDim int) {
	n.layers = n.layers[:0]
	prev := inputDim
	for i, h := range n.Config.Hidden {
		n.layers = append(n.layers, newDense(n.rng, prev, h), &relu{}, newBatchNorm(h))
		if i < n.Config.DropoutLayers && n.Config.DropoutRate > 0 {
			n.layers = append(n.layers, &dropout{rate: n.Config.DropoutRate, rng: n.rng})
		}
		prev = h
	}
	n.layers = append(n.layers, newDense(n.rng, prev, n.classes))
}

// softmaxCEGrad converts logits to probabilities and returns the mean
// cross-entropy gradient (probs - onehot)/batch plus the mean NLL loss,
// which the trainer's divergence guard inspects.
func softmaxCEGrad(logits *mat.Matrix, y []int, batch []int) (*mat.Matrix, float64) {
	grad := logits.Clone()
	mat.SoftmaxRows(grad)
	inv := 1 / float64(len(batch))
	loss := 0.0
	for i, sample := range batch {
		row := grad.Row(i)
		loss -= math.Log(row[y[sample]] + lossEps)
		row[y[sample]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad, loss * inv
}

// lossEps keeps log(p) finite when a softmax output underflows to zero;
// the guard is after sustained divergence, not one hard sample.
const lossEps = 1e-300

// PredictProba returns softmax probabilities per row.
func (n *NN) PredictProba(X *mat.Matrix) *mat.Matrix {
	if n.layers == nil {
		panic("ml: NN.PredictProba before Fit")
	}
	out := X
	for _, l := range n.layers {
		out = l.forward(out, false)
	}
	if out == X {
		out = out.Clone()
	}
	return mat.SoftmaxRows(out)
}

var _ Classifier = (*NN)(nil)
