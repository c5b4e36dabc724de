// Package gnn implements the graph neural network track of the paper
// (§VI-C): per-IOC-type autoencoders that project heterogeneous feature
// vectors into a shared 64-dimensional space (Eq. 5), and a GraphSAGE
// classifier (Eq. 3) with post-aggregation L2 normalisation (Eq. 4)
// trained to attribute event nodes, with hand-derived gradients on the
// stdlib.
//
// Every model in the package is generic over the storage precision
// (float32 or float64, mat.Float). The float64 instantiation — named by
// the aliases Model, EncoderSet and Input — is the numerical reference;
// the float32 instantiations halve weight/activation bandwidth and are
// pinned to the reference within tolerance by the equivalence tests.
// Scalar reductions (losses, norms, Adam moments) accumulate in float64
// at every precision, per internal/mat's package contract.
package gnn

import (
	"context"
	"errors"
	"math/rand"

	"trail/internal/mat"
	"trail/internal/ml"
)

// linear is a bias-equipped dense layer with explicit gradient
// accumulators, shared by the autoencoders, the label embedding, and the
// SAGE layers.
type linear[T mat.Float] struct {
	w, b *ml.ParamOf[T]
}

func newLinear[T mat.Float](rng *rand.Rand, in, out int) *linear[T] {
	return &linear[T]{
		w: &ml.ParamOf[T]{W: mat.GlorotUniformOf[T](rng, in, out), G: mat.NewOf[T](in, out)},
		b: &ml.ParamOf[T]{W: mat.NewOf[T](1, out), G: mat.NewOf[T](1, out)},
	}
}

func (l *linear[T]) forward(x *mat.Dense[T]) *mat.Dense[T] {
	out := mat.MatMul(x, l.w.W)
	out.AddRowVector(l.b.W.Row(0))
	return out
}

func (l *linear[T]) params() []*ml.ParamOf[T] { return []*ml.ParamOf[T]{l.w, l.b} }

// forwardWS is forward with the output borrowed from ws instead of
// allocated — identical arithmetic (MatMulInto writes the same ikj
// product into a zeroed buffer, then the bias row is added).
func (l *linear[T]) forwardWS(ws *mat.WorkspaceOf[T], x *mat.Dense[T]) *mat.Dense[T] {
	out := ws.GetDirty(x.Rows, l.w.W.Cols)
	mat.MatMulInto(out, x, l.w.W)
	out.AddRowVector(l.b.W.Row(0))
	return out
}

// backwardWS is backward with both scratch products borrowed from ws.
// The weight-gradient product lands in a zeroed buffer and is added into
// l.w.G exactly like the fresh MatMulTransA the allocating path used.
func (l *linear[T]) backwardWS(ws *mat.WorkspaceOf[T], x, grad *mat.Dense[T]) *mat.Dense[T] {
	l.accumulateWS(ws, x, grad)
	out := ws.GetDirty(grad.Rows, l.w.W.Rows)
	mat.MatMulTransBInto(out, grad, l.w.W)
	return out
}

// accumulateWS accumulates the parameter gradients only, skipping the
// input-gradient product — for the first layer of a network, whose input
// gradient nobody consumes.
func (l *linear[T]) accumulateWS(ws *mat.WorkspaceOf[T], x, grad *mat.Dense[T]) {
	tmp := ws.GetDirty(l.w.G.Rows, l.w.G.Cols)
	mat.MatMulTransAInto(tmp, x, grad)
	mat.AddInPlace(l.w.G, tmp)
	bg := l.b.G.Row(0)
	for i := 0; i < grad.Rows; i++ {
		mat.Axpy(1, grad.Row(i), bg)
	}
}

// cloneLinear deep-copies a layer's weights with zeroed gradients — the
// shared helper behind CloneModel/CloneGCN and checkpoint revival.
func cloneLinear[T mat.Float](l *linear[T]) *linear[T] {
	return &linear[T]{
		w: &ml.ParamOf[T]{W: l.w.W.Clone(), G: mat.NewOf[T](l.w.G.Rows, l.w.G.Cols)},
		b: &ml.ParamOf[T]{W: l.b.W.Clone(), G: mat.NewOf[T](l.b.G.Rows, l.b.G.Cols)},
	}
}

// reluForward returns max(x,0) and the mask for backprop.
func reluForward[T mat.Float](x *mat.Dense[T]) (out, mask *mat.Dense[T]) {
	out = x.Clone()
	mask = mat.NewOf[T](x.Rows, x.Cols)
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			mask.Data[i] = 1
		}
	}
	return out, mask
}

// AEConfig configures one autoencoder. The paper uses two-layer encoder
// and decoder with 512 hidden units and a 64-dimensional code.
type AEConfig struct {
	Hidden   int
	Encoding int
	LR       float64
	Epochs   int
	Batch    int
	Seed     int64
	// MaxRows caps the training subsample (0 = all rows); feature
	// matrices can be large and the code only needs to be information
	// preserving, not perfect.
	MaxRows int
}

// DefaultAEConfig returns a laptop-scale configuration (paper values:
// Hidden 512).
func DefaultAEConfig() AEConfig {
	return AEConfig{Hidden: 128, Encoding: 64, LR: 1e-3, Epochs: 5, Batch: 64, Seed: 1, MaxRows: 4000}
}

// AutoencoderOf is the Eq. 5 module at element type T: encoder f and
// decoder g, each a two-layer feed-forward network, trained with
// reconstruction MSE. Weight initialisation draws the same RNG sequence
// at every precision, so a float32 autoencoder starts from the rounded
// float64 init.
type AutoencoderOf[T mat.Float] struct {
	Config                 AEConfig
	enc1, enc2, dec1, dec2 *linear[T]
	inDim                  int
}

// NewAutoencoderOf returns an untrained autoencoder at element type T.
func NewAutoencoderOf[T mat.Float](cfg AEConfig) *AutoencoderOf[T] {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 128
	}
	if cfg.Encoding <= 0 {
		cfg.Encoding = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	return &AutoencoderOf[T]{Config: cfg}
}

// InitRandom builds the encoder/decoder weights without any training —
// the "plain random projection" baseline the paper's §VI-C argues
// against; used by the encoder-type ablation bench.
func (a *AutoencoderOf[T]) InitRandom(inDim int) {
	rng := rand.New(rand.NewSource(a.Config.Seed))
	a.inDim = inDim
	a.enc1 = newLinear[T](rng, inDim, a.Config.Hidden)
	a.enc2 = newLinear[T](rng, a.Config.Hidden, a.Config.Encoding)
	a.dec1 = newLinear[T](rng, a.Config.Encoding, a.Config.Hidden)
	a.dec2 = newLinear[T](rng, a.Config.Hidden, inDim)
}

// FitCtx minimises ||X - g(f(X))||^2 with Adam, with cooperative
// cancellation at epoch boundaries and a divergence guard on the
// reconstruction loss.
func (a *AutoencoderOf[T]) FitCtx(ctx context.Context, X *mat.Dense[T]) error {
	if X.Rows == 0 {
		return errors.New("gnn: Autoencoder.FitCtx empty input")
	}
	cfg := a.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	a.inDim = X.Cols
	a.enc1 = newLinear[T](rng, X.Cols, cfg.Hidden)
	a.enc2 = newLinear[T](rng, cfg.Hidden, cfg.Encoding)
	a.dec1 = newLinear[T](rng, cfg.Encoding, cfg.Hidden)
	a.dec2 = newLinear[T](rng, cfg.Hidden, X.Cols)

	var params []*ml.ParamOf[T]
	for _, l := range []*linear[T]{a.enc1, a.enc2, a.dec1, a.dec2} {
		params = append(params, l.params()...)
	}
	opt := ml.NewAdamOf(cfg.LR, params)

	idx := make([]int, X.Rows)
	for i := range idx {
		idx[i] = i
	}
	if cfg.MaxRows > 0 && len(idx) > cfg.MaxRows {
		mat.Shuffle(rng, idx)
		idx = idx[:cfg.MaxRows]
	}
	// All per-batch scratch comes from one workspace, rewound per batch:
	// steady-state epochs allocate nothing. The smaller final batch
	// reshapes the same buffers in place (capacity is sized by the first,
	// full-size batch).
	ws := trainWorkspaceOf[T]()
	defer ws.Release()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		mat.Shuffle(rng, idx)
		epochLoss := 0.0
		for start := 0; start < len(idx); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			ws.Reset()
			xb := ws.GetDirty(end-start, X.Cols)
			mat.SelectRowsInto(xb, X, idx[start:end])
			// Forward. Pre-activations are never reused, so bias+ReLU fuse
			// in place; the masks are all backprop needs.
			h1 := ws.GetDirty(xb.Rows, a.enc1.w.W.Cols)
			mat.MatMulInto(h1, xb, a.enc1.w.W)
			m1 := ws.GetDirty(h1.Rows, h1.Cols)
			mat.AddBiasReLUInto(h1, a.enc1.b.W.Row(0), m1)
			code := a.enc2.forwardWS(ws, h1)
			d1 := ws.GetDirty(code.Rows, a.dec1.w.W.Cols)
			mat.MatMulInto(d1, code, a.dec1.w.W)
			m2 := ws.GetDirty(d1.Rows, d1.Cols)
			mat.AddBiasReLUInto(d1, a.dec1.b.W.Row(0), m2)
			recon := a.dec2.forwardWS(ws, d1)
			// MSE gradient: 2(recon - x)/n, in the recon buffer. The loss
			// itself accumulates in float64 at every precision.
			diff := mat.SubInPlace(recon, xb)
			for _, v := range diff.Data {
				f := float64(v)
				epochLoss += f * f
			}
			grad := diff.Scale(T(2 / float64(xb.Rows*xb.Cols)))
			// Backward.
			g := a.dec2.backwardWS(ws, d1, grad)
			mat.HadamardInPlace(g, m2)
			g = a.dec1.backwardWS(ws, code, g)
			g = a.enc2.backwardWS(ws, h1, g)
			mat.HadamardInPlace(g, m1)
			a.enc1.accumulateWS(ws, xb, g)
			opt.Step()
		}
		if err := ml.CheckLoss(epoch, epochLoss); err != nil {
			return err
		}
	}
	return nil
}

// Encode projects rows of X into the code space.
func (a *AutoencoderOf[T]) Encode(X *mat.Dense[T]) *mat.Dense[T] {
	if a.enc1 == nil {
		panic("gnn: Autoencoder.Encode before FitCtx")
	}
	h1, _ := reluForward(a.enc1.forward(X))
	return a.enc2.forward(h1)
}

// Reconstruct runs the full encode-decode round trip.
func (a *AutoencoderOf[T]) Reconstruct(X *mat.Dense[T]) *mat.Dense[T] {
	code := a.Encode(X)
	d1, _ := reluForward(a.dec1.forward(code))
	return a.dec2.forward(d1)
}

// ReconstructionError returns mean squared reconstruction error over X.
func (a *AutoencoderOf[T]) ReconstructionError(X *mat.Dense[T]) float64 {
	if X.Rows == 0 {
		return 0
	}
	rec := a.Reconstruct(X)
	sum := 0.0
	for i, v := range rec.Data {
		d := float64(v) - float64(X.Data[i])
		sum += d * d
	}
	return sum / float64(len(X.Data))
}
