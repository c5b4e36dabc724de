package gnn

import (
	"errors"
	"math/rand"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/sparse"
)

// GCNOf implements the graph convolutional network of the paper's Eq. 2
// (Kipf & Welling) at element type T:
//
//	H^l = σ( D^{-1/2} Ã D^{-1/2} H^{l-1} W^l + b^l ),  Ã = A + I.
//
// The paper notes GCNs "require the entire graph to be held in memory"
// and opts for GraphSAGE; this implementation exists as the comparison
// baseline for the SAGE-vs-GCN ablation bench. The propagation operator
// is symmetric, which keeps backpropagation simple: the adjoint of S is
// S itself.
type GCNOf[T mat.Float] struct {
	Config   Config
	classes  int
	labelEmb *linear[T]
	layers   []*linear[T]
}

// NewGCNOf initialises a GCN at element type T with the same
// configuration shape as the SAGE model (MaxNeighbors is ignored; GCN is
// always full-graph).
func NewGCNOf[T mat.Float](cfg Config, classes int) *GCNOf[T] {
	if cfg.Layers < 1 {
		cfg.Layers = 2
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.Encoding <= 0 {
		cfg.Encoding = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 5e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &GCNOf[T]{Config: cfg, classes: classes}
	g.labelEmb = newLinear[T](rng, classes, cfg.Encoding)
	prev := cfg.Encoding
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.Hidden
		if l == cfg.Layers-1 {
			out = classes
		}
		g.layers = append(g.layers, newLinear[T](rng, prev, out))
		prev = out
	}
	return g
}

func (g *GCNOf[T]) params() []*ml.ParamOf[T] {
	ps := g.labelEmb.params()
	for _, l := range g.layers {
		ps = append(ps, l.params()...)
	}
	return ps
}

// gcnOperator builds the propagation operator S = D^{-1/2} Ã D^{-1/2}
// (Ã = A + I) as a CSR matrix from the input's shared adjacency
// snapshot; forward and backward are then plain SpMM calls (the adjoint
// of the symmetric S is S itself).
func gcnOperator[T mat.Float](in InputOf[T]) *sparse.CSR[T] {
	return in.CSR.SymNormalizedWithSelfLoops()
}

// CloneGCN deep-copies the model (weights and config), mirroring
// (*ModelOf).CloneModel for the checkpoint layer.
func (g *GCNOf[T]) CloneGCN() *GCNOf[T] {
	cp := &GCNOf[T]{Config: g.Config, classes: g.classes}
	cp.labelEmb = cloneLinear(g.labelEmb)
	for _, l := range g.layers {
		cp.layers = append(cp.layers, cloneLinear(l))
	}
	return cp
}

// TrainGCNCtx fits a GCN with the same label-visibility protocol and
// crash-safety knobs as TrainCtx: cancellable context, epoch-granular
// checkpoint hook, and bit-identical resume from a checkpointed
// TrainState.
func TrainGCNCtx[T mat.Float](in InputOf[T], trainEvents []graph.NodeID, cfg Config, opts TrainOptsOf[T]) (*GCNOf[T], error) {
	return train(archGCN, in, trainEvents, opts, func(st *TrainStateOf[T]) (*GCNOf[T], error) {
		switch {
		case st == nil:
			return NewGCNOf[T](cfg, in.Classes), nil
		case st.GCN == nil:
			return nil, errors.New("gnn: resume state carries no GCN weights")
		}
		return st.GCN.CloneGCN(), nil
	})
}

func (g *GCNOf[T]) spec() (Config, int) { return g.Config, g.classes }

func (g *GCNOf[T]) save(st *TrainStateOf[T]) { st.GCN = g.CloneGCN() }

// stepper returns the GCN training pass: forward through the propagation
// stack, then backward, where the adjoint of the symmetric propagation
// is the propagation itself.
func (g *GCNOf[T]) stepper(in InputOf[T], scr *trainScratch[T]) func(*rand.Rand) float64 {
	s := gcnOperator(in)
	acts := newGCNActs[T](len(g.layers))
	return func(*rand.Rand) float64 {
		scr.ws.Reset()
		g.forward(in, s, nil, scr.visible, scr.ws, &acts)
		grad := scr.ws.Get(acts.out.Rows, acts.out.Cols)
		loss := mat.SoftmaxCrossEntropyInto(grad, acts.out, scr.targets, in.Labels, scr.probs)
		gr := grad
		for li := len(g.layers) - 1; li >= 0; li-- {
			if li < len(g.layers)-1 {
				mat.HadamardInPlace(gr, acts.masks[li])
			}
			gr = g.layers[li].backwardWS(scr.ws, acts.inputs[li], gr)
			gp := scr.ws.GetDirty(s.Rows, gr.Cols)
			s.SpMMInto(gp, gr)
			gr = gp
		}
		// Shared-class rows accumulate in a fixed order so training stays
		// bit-reproducible (see labelGradScratch).
		scr.lg.accumulate(gr, scr.visible, g.labelEmb, g.classes)
		return loss
	}
}

type gcnActs[T mat.Float] struct {
	inputs []*mat.Dense[T] // S·h fed into each linear layer
	masks  []*mat.Dense[T]
	out    *mat.Dense[T]
}

func newGCNActs[T mat.Float](layers int) gcnActs[T] {
	return gcnActs[T]{inputs: make([]*mat.Dense[T], layers), masks: make([]*mat.Dense[T], layers)}
}

// forward runs the propagation stack. When perm is non-nil the pass runs
// in the permuted vertex order (inputs gathered, visible labels
// remapped), mirroring the SAGE forwardInfer contract; training always
// passes nil.
func (g *GCNOf[T]) forward(in InputOf[T], s *sparse.CSR[T], perm *sparse.Permutation, visible map[graph.NodeID]int, ws *mat.WorkspaceOf[T], acts *gcnActs[T]) *gcnActs[T] {
	h := g.labelEmb.labelledInput(ws.GetDirty(in.Enc.Rows, in.Enc.Cols), in.Enc, visible, perm)
	for li, layer := range g.layers {
		prop := ws.GetDirty(s.Rows, h.Cols)
		s.SpMMInto(prop, h)
		acts.inputs[li] = prop
		z := layer.forwardWS(ws, prop)
		if li == len(g.layers)-1 {
			acts.masks[li] = nil
			acts.out = z
			h = z
			continue
		}
		mask := ws.GetDirty(z.Rows, z.Cols)
		mat.ReLUMaskInto(z, mask)
		acts.masks[li] = mask
		h = z
	}
	return acts
}

// Predict returns the argmax attribution per query event. All forward
// scratch is pooled; only the returned slice is allocated. Large graphs
// run in the cache-reordered vertex order (bit-identical results; see
// inferOperator).
func (g *GCNOf[T]) Predict(in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) []int {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	acts := newGCNActs[T](len(g.layers))
	rs, perm := in.CSR.Reordered()
	g.forward(in, rs.SymNormalizedWithSelfLoops(), perm, visible, ws, &acts)
	out := make([]int, len(queries))
	for i, q := range queries {
		out[i] = mat.Argmax(acts.out.Row(queryRow(perm, q)))
	}
	return out
}
