package gnn

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/par"
	"trail/internal/sparse"
)

// InputOf is the full-graph tensor view the GraphSAGE model consumes, at
// element type T. Labels, flags and the adjacency structure are
// precision-free; only the encoded features and the CSR values carry T.
type InputOf[T mat.Float] struct {
	// CSR is the adjacency as a shared CSR snapshot (graph.Graph.CSR):
	// the message-passing kernels normalise and multiply it, and
	// neighbour sampling and the explainer's subgraph extraction walk
	// its rows.
	CSR *sparse.CSR[T]
	// Enc holds the autoencoded IOC features, one row per node
	// (zero rows for events and ASNs, which carry no engineered
	// features). It is read-only: BuildInput's matrix is also the
	// encoder set's memo, which the set's next EncodeGraph reads rows
	// from.
	Enc *mat.Dense[T]
	// IsEvent marks event nodes.
	IsEvent []bool
	// Labels carries the APT class per event node (-1 elsewhere). Which
	// labels the model may *see* is decided per call via visibility sets,
	// mirroring the paper's masking protocol.
	Labels []int
	// Classes is the number of APT classes.
	Classes int
}

// Input is the float64 reference instantiation of InputOf.
type Input = InputOf[float64]

// CastInput converts an input between precisions. Precision-free fields
// (adjacency structure, flags, labels) are shared, not copied; Enc and
// the CSR values are converted. Casting to the same precision returns
// views that share everything, including the CSR's cached operators.
func CastInput[T, U mat.Float](in InputOf[U]) InputOf[T] {
	out := InputOf[T]{
		Enc:     mat.Cast[T](in.Enc),
		IsEvent: in.IsEvent,
		Labels:  in.Labels,
		Classes: in.Classes,
	}
	if in.CSR != nil {
		out.CSR = sparse.Cast[T](in.CSR)
	}
	return out
}

// Config configures the GraphSAGE classifier.
type Config struct {
	// Layers is the message-passing depth (2-4 in Table IV).
	Layers int
	// Hidden is the width of intermediate layers (paper: 512).
	Hidden int
	// Encoding is the node input width (output of the autoencoders).
	Encoding int
	LR       float64
	Epochs   int
	Seed     int64
	// MaxNeighbors caps the neighbours sampled per node per epoch, the
	// GraphSAGE sampling trick; 0 aggregates all neighbours.
	MaxNeighbors int
	// NoL2 disables the Eq. 4 post-aggregation L2 normalisation — an
	// ablation knob for the design-choice benches.
	NoL2 bool
	// ClipNorm caps the global gradient L2 norm per optimisation step; 0
	// disables clipping. Divergence (NaN/Inf loss or gradients) is always
	// detected and reported as *ml.DivergenceError either way.
	ClipNorm float64
}

// ModelOf is a trained GraphSAGE attribution model at element type T.
// Each layer combines a neighbour-mean path (Eq. 3) with a root/self
// path, as in the reference GraphSAGE implementation the paper builds on
// (PyG SAGEConv computes W1·x_v + W2·mean(x_n)); without the self path,
// features at odd hop distances could never reach an event on the
// bipartite event-IOC edges.
type ModelOf[T mat.Float] struct {
	Config   Config
	classes  int
	labelEmb *linear[T] // one-hot label -> Encoding, for visible event labels
	layers   []*linear[T]
	selfW    []*ml.ParamOf[T]
}

// Model is the float64 reference instantiation of ModelOf.
type Model = ModelOf[float64]

// NewModelOf initialises weights at element type T. The initialisation
// draws the same RNG sequence at every precision, so a float32 model
// starts from the rounded float64 weights.
func NewModelOf[T mat.Float](cfg Config, classes int) *ModelOf[T] {
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
	m := &ModelOf[T]{Config: cfg, classes: classes}
	m.labelEmb = newLinear[T](rng, classes, cfg.Encoding)
	prev := cfg.Encoding
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.Hidden
		if l == cfg.Layers-1 {
			out = classes
		}
		m.layers = append(m.layers, newLinear[T](rng, prev, out))
		m.selfW = append(m.selfW, &ml.ParamOf[T]{
			W: mat.GlorotUniformOf[T](rng, prev, out),
			G: mat.NewOf[T](prev, out),
		})
		prev = out
	}
	return m
}

func (m *ModelOf[T]) params() []*ml.ParamOf[T] {
	ps := m.labelEmb.params()
	for i, l := range m.layers {
		ps = append(ps, l.params()...)
		ps = append(ps, m.selfW[i])
	}
	return ps
}

// TrainCtx fits the model: cross-entropy on the training events, with
// the paper's label-visibility protocol. Each epoch the training events
// are split in half: one half's labels are fed as input features
// (visible neighbours), the other half is predicted and optimised. This
// lets the model learn to exploit neighbour labels without learning to
// copy its own.
//
// opts carries the crash-safety knobs (the zero value disables them): a
// cancellable context, an epoch-granular checkpoint hook, and resume
// from a checkpointed TrainState. Kill-at-epoch-k followed by a resume
// produces final weights bit-identical to an uninterrupted run. On
// divergence (*ml.DivergenceError) the returned model carries the
// lowest-loss epoch's weights — rolled back, never NaN.
func TrainCtx[T mat.Float](in InputOf[T], trainEvents []graph.NodeID, cfg Config, opts TrainOptsOf[T]) (*ModelOf[T], error) {
	return train(archSAGE, in, trainEvents, opts, func(st *TrainStateOf[T]) (*ModelOf[T], error) {
		switch {
		case st == nil:
			return NewModelOf[T](cfg, in.Classes), nil
		case st.SAGE == nil:
			return nil, errors.New("gnn: resume state carries no SAGE weights")
		}
		return st.SAGE.CloneModel(), nil
	})
}

// CloneModel deep-copies the model (weights and config) so one trained
// model can be frozen while a copy is fine-tuned — the Fig. 8 protocol.
func (m *ModelOf[T]) CloneModel() *ModelOf[T] {
	cp := &ModelOf[T]{Config: m.Config, classes: m.classes}
	cp.labelEmb = cloneLinear(m.labelEmb)
	for i, l := range m.layers {
		cp.layers = append(cp.layers, cloneLinear(l))
		cp.selfW = append(cp.selfW, &ml.ParamOf[T]{
			W: m.selfW[i].W.Clone(),
			G: mat.NewOf[T](m.selfW[i].G.Rows, m.selfW[i].G.Cols),
		})
	}
	return cp
}

// FineTune continues training an existing model on (typically new) events
// for a few epochs — the paper's monthly retraining loop (Fig. 8). It
// runs at a reduced learning rate so a small month of events refines the
// model instead of overwriting it.
func (m *ModelOf[T]) FineTune(in InputOf[T], trainEvents []graph.NodeID, epochs int) error {
	orig := m.Config
	m.Config.LR = orig.LR * 0.3
	m.Config.Epochs = epochs
	defer func() { m.Config = orig }()
	_, err := train(archSAGE, in, trainEvents, TrainOptsOf[T]{},
		func(*TrainStateOf[T]) (*ModelOf[T], error) { return m, nil })
	return err
}

func (m *ModelOf[T]) spec() (Config, int) { return m.Config, m.classes }

func (m *ModelOf[T]) save(st *TrainStateOf[T]) { st.SAGE = m.CloneModel() }

// stepper returns the SAGE training pass: one full-graph forward/backward
// over the shared mean-aggregation operator, or over a freshly sampled
// one when MaxNeighbors caps the neighbourhood (the draw comes from the
// driver's stream). All matrix scratch comes from the scratch workspace,
// rewound per pass so every step reuses the same buffers.
func (m *ModelOf[T]) stepper(in InputOf[T], scr *trainScratch[T]) func(*rand.Rand) float64 {
	mean := meanOperator(in)
	acts := newActivations[T](len(m.layers))
	return func(rng *rand.Rand) float64 {
		agg := mean
		if m.Config.MaxNeighbors > 0 {
			agg = sampleAdj(rng, in.CSR, m.Config.MaxNeighbors).MeanNormalized()
		}
		scr.ws.Reset()
		m.forward(in, agg, scr.visible, scr.ws, &acts)
		logits := acts.h[len(acts.h)-1]
		// Cross-entropy loss and gradient on target rows only, fused.
		grad := scr.ws.Get(logits.Rows, logits.Cols)
		loss := mat.SoftmaxCrossEntropyInto(grad, logits, scr.targets, in.Labels, scr.probs)
		m.backward(in, agg, &acts, scr.visible, grad, scr)
		return loss
	}
}

// activations caches the forward pass for backprop. The per-layer slices
// are sized once per fit; the matrices they point at live in the step
// workspace and are rewound between steps.
type activations[T mat.Float] struct {
	h0    *mat.Dense[T]   // input after label embedding
	means []*mat.Dense[T] // neighbour means per layer
	masks []*mat.Dense[T] // relu masks (nil for final layer)
	norms [][]T           // L2 norms before normalisation (nil for final)
	h     []*mat.Dense[T] // layer outputs; h[len-1] = logits
}

func newActivations[T mat.Float](layers int) activations[T] {
	return activations[T]{
		means: make([]*mat.Dense[T], layers),
		masks: make([]*mat.Dense[T], layers),
		norms: make([][]T, layers),
		h:     make([]*mat.Dense[T], layers),
	}
}

// forward computes all node representations; visible supplies event
// labels injected as input features. Scratch buffers are borrowed from
// ws; acts supplies the per-layer slots to fill.
func (m *ModelOf[T]) forward(in InputOf[T], agg *sparse.CSR[T], visible map[graph.NodeID]int, ws *mat.WorkspaceOf[T], acts *activations[T]) *activations[T] {
	n := agg.Rows
	h0 := m.labelEmb.labelledInput(ws.GetDirty(in.Enc.Rows, in.Enc.Cols), in.Enc, visible, nil)
	acts.h0 = h0

	cur := h0
	for li, layer := range m.layers {
		mean := ws.GetDirty(n, cur.Cols)
		agg.SpMMInto(mean, cur)
		z := layer.forwardWS(ws, mean)
		tmp := ws.GetDirty(n, z.Cols)
		mat.MatMulInto(tmp, cur, m.selfW[li].W)
		mat.AddInPlace(z, tmp)
		acts.means[li] = mean
		if li == len(m.layers)-1 {
			acts.masks[li] = nil
			acts.norms[li] = nil
			acts.h[li] = z
			cur = z
			continue
		}
		mask := ws.GetDirty(z.Rows, z.Cols)
		mat.ReLUMaskInto(z, mask)
		var norms []T
		if !m.Config.NoL2 {
			norms = ws.VecDirty(n)
			for i := 0; i < n; i++ {
				row := z.Row(i)
				nm := mat.Norm2(row)
				norms[i] = T(nm)
				if nm > 0 {
					// Matches L2NormalizeRows exactly: the norm accumulates
					// in float64, the rescale runs in storage precision — so
					// forwardInfer's fused path stays bit-identical at every
					// precision.
					invN := T(1 / nm)
					for j := range row {
						row[j] *= invN
					}
				}
			}
		}
		acts.masks[li] = mask
		acts.norms[li] = norms
		acts.h[li] = z
		cur = z
	}
	return acts
}

// backward propagates grad (w.r.t. the logits) through the network,
// accumulating parameter gradients.
func (m *ModelOf[T]) backward(in InputOf[T], agg *sparse.CSR[T], acts *activations[T], visible map[graph.NodeID]int, grad *mat.Dense[T], scr *trainScratch[T]) {
	ws := scr.ws
	layerIn := func(li int) *mat.Dense[T] {
		if li == 0 {
			return acts.h0
		}
		return acts.h[li-1]
	}
	g := grad
	for li := len(m.layers) - 1; li >= 0; li-- {
		if li < len(m.layers)-1 {
			if norms := acts.norms[li]; norms != nil {
				// Through L2 row normalisation: y = x/||x||;
				// dx = (g - (g.y) y)/||x||, where y is the stored output.
				// Rows with zero norm stay zero — Get hands out zeroed
				// buffers, exactly like the fresh matrix this replaced.
				// The dot product and the per-element chain run in float64
				// (identical to the pre-generic float64 arithmetic).
				y := acts.h[li]
				out := ws.Get(g.Rows, g.Cols)
				for i := 0; i < g.Rows; i++ {
					if norms[i] == 0 {
						continue
					}
					gr, yr, or := g.Row(i), y.Row(i), out.Row(i)
					dot := mat.Dot(gr, yr)
					invN := 1 / float64(norms[i])
					for j := range or {
						or[j] = T((float64(gr[j]) - dot*float64(yr[j])) * invN)
					}
				}
				g = out
			}
			mat.HadamardInPlace(g, acts.masks[li])
		}
		// Self path: accumulate its weight gradient and input gradient.
		lin := layerIn(li)
		tmp := ws.GetDirty(m.selfW[li].G.Rows, m.selfW[li].G.Cols)
		mat.MatMulTransAInto(tmp, lin, g)
		mat.AddInPlace(m.selfW[li].G, tmp)
		gSelf := ws.GetDirty(g.Rows, m.selfW[li].W.Rows)
		mat.MatMulTransBInto(gSelf, g, m.selfW[li].W)
		// Aggregation path: backward through the mean is the transpose
		// kernel (cached inside the operator after the first call).
		gMean := m.layers[li].backwardWS(ws, acts.means[li], g)
		gNext := ws.GetDirty(agg.Cols, gMean.Cols)
		agg.SpMMTransInto(gNext, gMean)
		mat.AddInPlace(gNext, gSelf)
		g = gNext
	}
	// Gradient into the label embedding via visible event rows of h0,
	// sharded per class with a fixed accumulation order (see
	// labelGradScratch).
	scr.lg.accumulate(g, visible, m.labelEmb, m.classes)
}

// labelGradScratch accumulates the label-embedding gradient with
// per-class shards: visible events are bucketed by class in ascending
// event-ID order, then each class's chain runs in parallel (classes own
// disjoint gradient rows, so parallelism cannot change a single bit —
// the same contract as the row-partitioned kernels). The shared bias row
// is a single serial chain over all events in the same ascending order
// the unsharded loop used, because a sum that lands in one row has a
// defining order that must not depend on worker count.
type labelGradScratch[T mat.Float] struct {
	sorted  []graph.NodeID
	buckets [][]graph.NodeID
	// Prebound par.For body plus the operands it reads, so the sharded
	// accumulation allocates nothing per step (see mat's kargs for the
	// pattern).
	g    *mat.Dense[T]
	emb  *linear[T]
	body func(lo, hi int)
}

// newLabelGradScratch sizes the shard buckets for up to nTrain visible
// events so steady-state accumulation never grows a slice.
func newLabelGradScratch[T mat.Float](classes, nTrain int) labelGradScratch[T] {
	lg := labelGradScratch[T]{
		sorted:  make([]graph.NodeID, 0, nTrain),
		buckets: make([][]graph.NodeID, classes),
	}
	for c := range lg.buckets {
		lg.buckets[c] = make([]graph.NodeID, 0, nTrain/classes+8)
	}
	return lg
}

// shardBody accumulates the weight-row shards for classes [lo, hi).
func (lg *labelGradScratch[T]) shardBody(lo, hi int) {
	for c := lo; c < hi; c++ {
		wg := lg.emb.w.G.Row(c)
		for _, ev := range lg.buckets[c] {
			mat.Axpy(1, lg.g.Row(int(ev)), wg)
		}
	}
}

func (lg *labelGradScratch[T]) accumulate(g *mat.Dense[T], visible map[graph.NodeID]int, emb *linear[T], classes int) {
	lg.sorted = lg.sorted[:0]
	for ev := range visible {
		lg.sorted = append(lg.sorted, ev)
	}
	slices.Sort(lg.sorted)
	for c := range lg.buckets {
		lg.buckets[c] = lg.buckets[c][:0]
	}
	for _, ev := range lg.sorted {
		if c := visible[ev]; c >= 0 && c < classes {
			lg.buckets[c] = append(lg.buckets[c], ev)
		}
	}
	// Weight rows: one shard per class, ascending event order within the
	// shard — bit-identical to the serial interleaved loop this replaces.
	if lg.body == nil {
		lg.body = lg.shardBody
	}
	lg.g, lg.emb = g, emb
	par.For(classes, 1, lg.body)
	// Bias row: all classes share it, so the ascending-event serial chain
	// is the defining order.
	bg := emb.b.G.Row(0)
	for _, ev := range lg.sorted {
		if c := visible[ev]; c >= 0 && c < classes {
			mat.Axpy(1, g.Row(int(ev)), bg)
		}
	}
	lg.g, lg.emb = nil, nil
}

// meanOperator builds Eq. 3's neighbour-mean aggregator from the shared
// CSR snapshot: out[v] = mean of h[n] over neighbours n of v (zero for
// isolated nodes). Its adjoint — the backward scatter
// out[n] += g[v]/deg(v) — is the same operator's transpose kernel. The
// operator is cached on the CSR snapshot, so repeated training and
// prediction calls share one.
func meanOperator[T mat.Float](in InputOf[T]) *sparse.CSR[T] {
	return in.CSR.MeanNormalized()
}

// inferOperator is meanOperator over the cache-reordered adjacency
// snapshot: large graphs are relabelled degree-descending
// (sparse.Reordered) so the hub rows that dominate SpMM touch a compact
// prefix of the activation matrix. The returned permutation is nil when
// the graph is below the reorder threshold or already degree-sorted;
// otherwise callers gather inputs and map node IDs through it.
// Normalising after permuting equals permuting the normalised operator
// bit-for-bit (sparse's commute test), so results are unchanged.
func inferOperator[T mat.Float](in InputOf[T]) (*sparse.CSR[T], *sparse.Permutation) {
	rs, p := in.CSR.Reordered()
	return rs.MeanNormalized(), p
}

// sampleAdj caps each row of a at k entries by sampling without
// replacement, returning the sampled adjacency as a fresh unweighted
// CSR.
func sampleAdj[T mat.Float](rng *rand.Rand, a *sparse.CSR[T], k int) *sparse.CSR[T] {
	rowPtr := make([]int, a.Rows+1)
	colIdx := make([]int32, 0, a.NNZ())
	var tmp []int32
	for v := 0; v < a.Rows; v++ {
		ns := a.ColIdx[a.RowPtr[v]:a.End(v)]
		if len(ns) <= k {
			colIdx = append(colIdx, ns...)
		} else {
			// Partial Fisher-Yates over a copy.
			tmp = append(tmp[:0], ns...)
			for i := 0; i < k; i++ {
				j := i + rng.Intn(len(tmp)-i)
				tmp[i], tmp[j] = tmp[j], tmp[i]
			}
			colIdx = append(colIdx, tmp[:k]...)
		}
		rowPtr[v+1] = len(colIdx)
	}
	return sparse.NewOf[T](a.Rows, a.Cols, rowPtr, colIdx, nil)
}

// forwardInfer is the inference-only forward pass: it runs each layer
// through the fused normalise+aggregate+transform kernel
// (sparse.SAGELayerInto), so no neighbour-mean matrix, ReLU mask or norm
// vector is ever materialised. Logits are bit-identical to the training
// forward's (asserted by the equivalence tests); the returned matrix
// lives in ws. When perm is non-nil the pass runs in the permuted vertex
// order (inputs gathered, visible labels remapped); callers read row
// perm.Inv[q] for original node q. Every per-layer operation is
// row-local, so permuted row r equals unpermuted row perm.Perm[r] bit
// for bit.
func (m *ModelOf[T]) forwardInfer(in InputOf[T], agg *sparse.CSR[T], perm *sparse.Permutation, visible map[graph.NodeID]int, ws *mat.WorkspaceOf[T]) *mat.Dense[T] {
	n := agg.Rows
	cur := m.labelEmb.labelledInput(ws.GetDirty(in.Enc.Rows, in.Enc.Cols), in.Enc, visible, perm)
	for li, layer := range m.layers {
		next := ws.GetDirty(n, layer.w.W.Cols)
		agg.SAGELayerInto(next, cur, layer.w.W, m.selfW[li].W, layer.b.W.Row(0))
		if li < len(m.layers)-1 {
			for i, v := range next.Data {
				if v <= 0 {
					next.Data[i] = 0
				}
			}
			if !m.Config.NoL2 {
				next.L2NormalizeRows()
			}
		}
		cur = next
	}
	return cur
}

// labelledInput writes a model's input rows into dst and returns it: the
// encoded features, plus the label embedding of every visible event. A
// one-hot label through the embedding layer l is row c of its weights
// plus the bias; labels outside l's classes stay unseen. When perm is
// non-nil the rows are in the permuted vertex order.
func (l *linear[T]) labelledInput(dst, enc *mat.Dense[T], visible map[graph.NodeID]int, perm *sparse.Permutation) *mat.Dense[T] {
	if perm != nil {
		sparse.GatherRowsInto(perm, dst, enc)
	} else {
		mat.CopyInto(dst, enc)
	}
	for ev, c := range visible {
		if c >= 0 && c < l.w.W.Rows {
			row := dst.Row(queryRow(perm, ev))
			mat.Axpy(1, l.w.W.Row(c), row)
			mat.Axpy(1, l.b.W.Row(0), row)
		}
	}
	return dst
}

// queryRow maps an original node ID to its logits row under an optional
// permutation.
func queryRow(perm *sparse.Permutation, q graph.NodeID) int {
	if perm != nil {
		return int(perm.Inv[q])
	}
	return int(q)
}

// Classes returns the number of APT classes the model predicts over.
func (m *ModelOf[T]) Classes() int { return m.classes }

// PredictProba returns attribution distributions for the query events,
// with the given event labels visible as input features.
func (m *ModelOf[T]) PredictProba(in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) *mat.Dense[T] {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	return m.PredictProbaInto(mat.NewOf[T](len(queries), m.classes), in, visible, queries, ws)
}

// PredictProbaInto is the batched serving entry: one full-graph forward
// pass amortised across every query, with all matrix scratch borrowed
// from ws (Reset by the caller between batches, so a serving loop that
// issues same-shaped batches allocates nothing beyond the query-row
// index). The query logit rows are gathered with one SelectRowsInto and
// softmaxed in place into dst, which must be len(queries) x Classes().
// Results are bit-identical to len(queries) separate PredictProba calls
// with the same visible set — batching never changes an answer.
func (m *ModelOf[T]) PredictProbaInto(dst *mat.Dense[T], in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID, ws *mat.WorkspaceOf[T]) *mat.Dense[T] {
	agg, perm := inferOperator(in)
	logits := m.forwardInfer(in, agg, perm, visible, ws)
	rows := make([]int, len(queries))
	for i, q := range queries {
		rows[i] = queryRow(perm, q)
	}
	mat.SelectRowsInto(dst, logits, rows)
	for i := 0; i < dst.Rows; i++ {
		mat.Softmax(dst.Row(i), dst.Row(i))
	}
	return dst
}

// CastModel converts a trained model between precisions: weights are
// rounded element-wise, gradient accumulators come back zeroed, and the
// config is shared. The serving path uses it to derive a float32
// inference model from float64-trained weights without retraining.
func CastModel[T, U mat.Float](m *ModelOf[U]) *ModelOf[T] {
	castLinear := func(l *linear[U]) *linear[T] {
		return &linear[T]{
			w: &ml.ParamOf[T]{W: mat.Cast[T](l.w.W), G: mat.NewOf[T](l.w.G.Rows, l.w.G.Cols)},
			b: &ml.ParamOf[T]{W: mat.Cast[T](l.b.W), G: mat.NewOf[T](l.b.G.Rows, l.b.G.Cols)},
		}
	}
	out := &ModelOf[T]{Config: m.Config, classes: m.classes, labelEmb: castLinear(m.labelEmb)}
	for i, l := range m.layers {
		out.layers = append(out.layers, castLinear(l))
		out.selfW = append(out.selfW, &ml.ParamOf[T]{
			W: mat.Cast[T](m.selfW[i].W),
			G: mat.NewOf[T](m.selfW[i].G.Rows, m.selfW[i].G.Cols),
		})
	}
	return out
}

// Predict returns the argmax attribution per query event, read from the
// PredictProbaInto rows. The scratch is pooled: only the returned slice
// is allocated.
func (m *ModelOf[T]) Predict(in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) []int {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	probs := m.PredictProbaInto(ws.GetDirty(len(queries), m.classes), in, visible, queries, ws)
	out := make([]int, len(queries))
	for i := range out {
		out[i] = mat.Argmax(probs.Row(i))
	}
	return out
}

// Confidence returns the max-probability score per query (used by the
// case study's thresholding discussion).
func (m *ModelOf[T]) Confidence(in InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) []float64 {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	probs := m.PredictProbaInto(ws.GetDirty(len(queries), m.classes), in, visible, queries, ws)
	out := make([]float64, len(queries))
	for i := range out {
		best := math.Inf(-1)
		for _, v := range probs.Row(i) {
			if f := float64(v); f > best {
				best = f
			}
		}
		out[i] = best
	}
	return out
}
