package gnn

import (
	"errors"
	"math"
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

// GCN is the float64 reference instantiation of GCNOf.
type GCN = GCNOf[float64]

// NewGCN initialises a float64 GCN with the same configuration shape as
// the SAGE model (MaxNeighbors is ignored; GCN is always full-graph).
func NewGCN(cfg Config, classes int) *GCN { return NewGCNOf[float64](cfg, classes) }

// NewGCNOf initialises a GCN at element type T.
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

// TrainGCN fits a GCN with the same label-visibility protocol as the SAGE
// trainer.
func TrainGCN[T mat.Float](in InputOf[T], trainEvents []graph.NodeID, cfg Config) (*GCNOf[T], error) {
	return TrainGCNCtx(in, trainEvents, cfg, TrainOptsOf[T]{})
}

// TrainGCNCtx is TrainGCN with the crash-safety knobs of TrainCtx:
// cancellable context, epoch-granular checkpoint hook, and bit-identical
// resume from a checkpointed TrainState.
func TrainGCNCtx[T mat.Float](in InputOf[T], trainEvents []graph.NodeID, cfg Config, opts TrainOptsOf[T]) (*GCNOf[T], error) {
	st, err := opts.resumeFor(archGCN)
	if err != nil {
		return nil, err
	}
	var g *GCNOf[T]
	if st != nil {
		if st.GCN == nil {
			return nil, errors.New("gnn: resume state carries no GCN weights")
		}
		g = st.GCN.CloneGCN()
	} else {
		g = NewGCNOf[T](cfg, in.Classes)
	}
	if len(trainEvents) < 2 {
		return nil, errors.New("gnn: need at least 2 training events")
	}
	if in.Enc.Cols != g.Config.Encoding {
		return nil, errors.New("gnn: encoding width mismatch")
	}
	ctx := opts.ctx()
	src := ml.NewCountingSource(g.Config.Seed + 31)
	ps := g.params()
	opt := ml.NewAdamOf(g.Config.LR, ps)
	start := 0
	if st != nil {
		start = st.Epoch
		src = ml.RestoreRNG(st.RNG)
		if err := opt.Restore(st.Opt); err != nil {
			return nil, err
		}
	}
	rng := rand.New(src)
	s := gcnOperator(in)

	checkpoint := func(completed int) error {
		if opts.Checkpoint == nil {
			return nil
		}
		return opts.Checkpoint(&TrainStateOf[T]{
			Arch:  archGCN,
			Epoch: completed,
			RNG:   src.State(),
			Opt:   opt.State(),
			GCN:   g.CloneGCN(),
		})
	}

	scr := newGCNScratch(g, len(trainEvents))
	defer scr.ws.Release()
	order := scr.order
	bestLoss := math.Inf(1)
	var bestW []*mat.Dense[T]
	for epoch := start; epoch < g.Config.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			if cerr := checkpoint(epoch); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		// Identity reset before the shuffle keeps the permutation a pure
		// function of RNG position (see the SAGE fit loop).
		for i := range order {
			order[i] = i
		}
		mat.Shuffle(rng, order)
		half := len(order) / 2
		epochLoss, passes := 0.0, 0
		for pass := 0; pass < 2; pass++ {
			clear(scr.visible)
			scr.targets = scr.targets[:0]
			for i, oi := range order {
				ev := trainEvents[oi]
				if (i < half) == (pass == 0) {
					scr.visible[ev] = in.Labels[ev]
				} else {
					scr.targets = append(scr.targets, ev)
				}
			}
			if len(scr.targets) == 0 {
				continue
			}
			loss, err := g.step(in, s, scr, ps, opt, epoch)
			if err != nil {
				if bestW != nil {
					ml.RestoreParams(ps, bestW)
				}
				return g, err
			}
			epochLoss += loss
			passes++
		}
		if passes > 0 {
			if err := ml.CheckLoss(epoch, epochLoss/float64(passes)); err != nil {
				if bestW != nil {
					ml.RestoreParams(ps, bestW)
				}
				return g, err
			}
			if l := epochLoss / float64(passes); l < bestLoss {
				bestLoss = l
				if bestW == nil {
					bestW = ml.CloneParams(ps)
				} else if err := ml.CopyParams(bestW, ps); err != nil {
					return nil, err
				}
			}
		}
		if (epoch+1)%opts.every() == 0 {
			if err := checkpoint(epoch + 1); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

type gcnActs[T mat.Float] struct {
	inputs []*mat.Dense[T] // S·h fed into each linear layer
	masks  []*mat.Dense[T]
	out    *mat.Dense[T]
}

// gcnScratch mirrors sageScratch: one workspace plus the small reusable
// slices, so steady-state epochs allocate nothing.
type gcnScratch[T mat.Float] struct {
	ws      *mat.WorkspaceOf[T]
	acts    gcnActs[T]
	probs   []T
	order   []int
	targets []graph.NodeID
	visible map[graph.NodeID]int
	lg      labelGradScratch[T]
}

func newGCNScratch[T mat.Float](g *GCNOf[T], nTrain int) *gcnScratch[T] {
	L := len(g.layers)
	return &gcnScratch[T]{
		ws: trainWorkspaceOf[T](),
		acts: gcnActs[T]{
			inputs: make([]*mat.Dense[T], L),
			masks:  make([]*mat.Dense[T], L),
		},
		probs:   make([]T, g.classes),
		order:   make([]int, nTrain),
		targets: make([]graph.NodeID, 0, nTrain),
		visible: make(map[graph.NodeID]int, nTrain/2+1),
		lg:      newLabelGradScratch[T](g.classes, nTrain),
	}
}

// forward runs the propagation stack. When perm is non-nil the pass runs
// in the permuted vertex order (inputs gathered, visible labels
// remapped), mirroring the SAGE forwardInfer contract; training always
// passes nil.
func (g *GCNOf[T]) forward(in InputOf[T], s *sparse.CSR[T], perm *sparse.Permutation, visible map[graph.NodeID]int, ws *mat.WorkspaceOf[T], acts *gcnActs[T]) *gcnActs[T] {
	h := ws.GetDirty(in.Enc.Rows, in.Enc.Cols)
	if perm != nil {
		sparse.GatherRowsInto(perm, h, in.Enc)
	} else {
		mat.CopyInto(h, in.Enc)
	}
	for ev, c := range visible {
		if c >= 0 && c < g.classes {
			r := int(ev)
			if perm != nil {
				r = int(perm.Inv[ev])
			}
			row := h.Row(r)
			mat.Axpy(1, g.labelEmb.w.W.Row(c), row)
			mat.Axpy(1, g.labelEmb.b.W.Row(0), row)
		}
	}
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

func (g *GCNOf[T]) step(in InputOf[T], s *sparse.CSR[T], scr *gcnScratch[T], ps []*ml.ParamOf[T], opt *ml.AdamOf[T], epoch int) (float64, error) {
	scr.ws.Reset()
	acts := g.forward(in, s, nil, scr.visible, scr.ws, &scr.acts)
	logits := acts.out

	grad := scr.ws.Get(logits.Rows, logits.Cols)
	loss := mat.SoftmaxCrossEntropyInto(grad, logits, scr.targets, in.Labels, scr.probs)

	gr := grad
	for li := len(g.layers) - 1; li >= 0; li-- {
		if li < len(g.layers)-1 {
			mat.HadamardInPlace(gr, acts.masks[li])
		}
		gr = g.layers[li].backwardWS(scr.ws, acts.inputs[li], gr)
		// Adjoint of the symmetric propagation is the propagation itself.
		gp := scr.ws.GetDirty(s.Rows, gr.Cols)
		s.SpMMInto(gp, gr)
		gr = gp
	}
	// Shared-class rows accumulate in a fixed order so training stays
	// bit-reproducible (see labelGradScratch).
	scr.lg.accumulate(gr, scr.visible, g.labelEmb, g.classes)
	if norm := ml.ClipGrads(ps, g.Config.ClipNorm); math.IsNaN(norm) || math.IsInf(norm, 0) {
		return loss, &ml.DivergenceError{Quantity: "gradient", Epoch: epoch, Value: norm}
	}
	opt.Step()
	return loss, nil
}

// Predict returns the argmax attribution per query event. All forward
// scratch is pooled; only the returned slice is allocated. Large graphs
// run in the cache-reordered vertex order (bit-identical results; see
// inferOperator).
func (g *GCNOf[T]) Predict(in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) []int {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	acts := gcnActs[T]{
		inputs: make([]*mat.Dense[T], len(g.layers)),
		masks:  make([]*mat.Dense[T], len(g.layers)),
	}
	rs, perm := in.CSR.Reordered()
	g.forward(in, rs.SymNormalizedWithSelfLoops(), perm, visible, ws, &acts)
	out := make([]int, len(queries))
	for i, q := range queries {
		out[i] = mat.Argmax(acts.out.Row(queryRow(perm, q)))
	}
	return out
}
