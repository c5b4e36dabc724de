package gnn

import (
	"math"
	"math/rand"
	"sort"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/sparse"
)

// ExplainerConfig tunes the GNNExplainer optimisation (Ying et al. 2019):
// a sigmoid edge mask over the target's L-hop subgraph is optimised to
// keep the model's prediction while penalising mask size and entropy.
type ExplainerConfig struct {
	Epochs int
	LR     float64
	// SizeWeight penalises the total mask mass (sparsity).
	SizeWeight float64
	// EntropyWeight pushes mask entries towards 0/1.
	EntropyWeight float64
	Seed          int64
}

// DefaultExplainerConfig returns the standard GNNExplainer settings.
func DefaultExplainerConfig() ExplainerConfig {
	return ExplainerConfig{Epochs: 80, LR: 0.05, SizeWeight: 0.02, EntropyWeight: 0.01, Seed: 1}
}

// Explanation is the result: the subgraph edges ranked by learned
// importance.
type Explanation struct {
	Target graph.NodeID
	Class  int
	// Edges and Weights are parallel, sorted by descending weight.
	Edges   [][2]graph.NodeID
	Weights []float64
	// Nodes ranks subgraph nodes by the sum of their incident edge
	// weights, descending (the "top-15 most important nodes" view of
	// Fig. 10).
	Nodes       []graph.NodeID
	NodeWeights []float64
}

// Explain learns an edge mask over the L-hop neighbourhood of target that
// preserves the model's prediction for the given class (pass the model's
// own prediction to explain its behaviour, or the true label to probe
// counterfactuals). The mask optimisation itself (theta, Adam moments,
// edge gradients) always runs in float64; only the model forward/backward
// runs at the model's element type.
func (m *ModelOf[T]) Explain(in InputOf[T], visible map[graph.NodeID]int, target graph.NodeID, class int, cfg ExplainerConfig) *Explanation {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 80
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// L-hop subgraph around the target.
	adj := in.CSR
	dist := graph.BFSDistances(adj, target, m.Config.Layers)
	inSub := make([]bool, adj.Rows)
	for id, d := range dist {
		if d >= 0 {
			inSub[id] = true
		}
	}
	// Collect unique undirected edges inside the subgraph and index them.
	type edgeKey struct{ a, b graph.NodeID }
	edgeIdx := make(map[edgeKey]int)
	var edges []edgeKey
	subAdj := make([][]graph.NodeID, adj.Rows)
	adjEdge := make([][]int, adj.Rows) // parallel edge indexes
	for u := range subAdj {
		if !inSub[u] {
			continue
		}
		for _, c := range adj.ColIdx[adj.RowPtr[u]:adj.End(u)] {
			v := graph.NodeID(c)
			if !inSub[v] {
				continue
			}
			a, b := graph.NodeID(u), v
			if a > b {
				a, b = b, a
			}
			k := edgeKey{a, b}
			ei, ok := edgeIdx[k]
			if !ok {
				ei = len(edges)
				edgeIdx[k] = ei
				edges = append(edges, k)
			}
			subAdj[u] = append(subAdj[u], v)
			adjEdge[u] = append(adjEdge[u], ei)
		}
	}

	// Freeze the subgraph structure as a CSR once; each epoch only
	// re-weights its entries with the current mask. entryEdge maps CSR
	// entry positions back to edge indexes.
	sub := &maskedSub[T]{csr: sparse.Cast[T](sparse.FromAdj(subAdj)), adj: subAdj, adjEdge: adjEdge}
	sub.entryEdge = make([]int, sub.csr.NNZ())
	k := 0
	for u := range subAdj {
		for _, ei := range adjEdge[u] {
			sub.entryEdge[k] = ei
			k++
		}
	}

	theta := make([]float64, len(edges))
	for i := range theta {
		theta[i] = 1 + rng.NormFloat64()*0.1 // start near "keep everything"
	}
	mAdam := make([]float64, len(edges))
	vAdam := make([]float64, len(edges))

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		w := make([]float64, len(edges))
		for i, t := range theta {
			w[i] = sigmoid(t)
		}
		probGrad, prob := m.maskedGrad(in, sub, w, visible, target, class)
		_ = prob
		// Total gradient: d(-log p)/dθ + regularisers.
		for i := range theta {
			s := sigmoid(theta[i])
			dwdTheta := s * (1 - s)
			g := probGrad[i]
			g += cfg.SizeWeight
			// Entropy -(s log s + (1-s) log(1-s)); d/ds = log((1-s)/s).
			if s > 1e-6 && s < 1-1e-6 {
				g += cfg.EntropyWeight * math.Log((1-s)/s) * -1
			}
			g *= dwdTheta
			// Adam update.
			mAdam[i] = 0.9*mAdam[i] + 0.1*g
			vAdam[i] = 0.999*vAdam[i] + 0.001*g*g
			mh := mAdam[i] / (1 - math.Pow(0.9, float64(epoch)))
			vh := vAdam[i] / (1 - math.Pow(0.999, float64(epoch)))
			theta[i] -= cfg.LR * mh / (math.Sqrt(vh) + 1e-8)
		}
	}

	// Rank edges and nodes.
	weights := make([]float64, len(edges))
	for i, t := range theta {
		weights[i] = sigmoid(t)
	}
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	exp := &Explanation{Target: target, Class: class}
	nodeW := make(map[graph.NodeID]float64)
	for _, ei := range order {
		e := edges[ei]
		exp.Edges = append(exp.Edges, [2]graph.NodeID{e.a, e.b})
		exp.Weights = append(exp.Weights, weights[ei])
		nodeW[e.a] += weights[ei]
		nodeW[e.b] += weights[ei]
	}
	for id := range nodeW {
		exp.Nodes = append(exp.Nodes, id)
	}
	sort.Slice(exp.Nodes, func(a, b int) bool { return nodeW[exp.Nodes[a]] > nodeW[exp.Nodes[b]] })
	for _, id := range exp.Nodes {
		exp.NodeWeights = append(exp.NodeWeights, nodeW[id])
	}
	return exp
}

// maskedSub is the frozen L-hop subgraph the explainer optimises over:
// its CSR structure (re-weighted each epoch), the adjacency lists and
// per-position edge indexes for the edge-gradient reduction, and the map
// from CSR entry position to edge index.
type maskedSub[T mat.Float] struct {
	csr       *sparse.CSR[T]
	adj       [][]graph.NodeID
	adjEdge   [][]int
	entryEdge []int
}

// maskedGrad runs a forward pass with edge-weighted aggregation and
// returns d(-log p_class(target))/dw per edge, plus the probability.
func (m *ModelOf[T]) maskedGrad(in InputOf[T], sub *maskedSub[T], w []float64, visible map[graph.NodeID]int, target graph.NodeID, class int) ([]float64, float64) {
	subAdj, adjEdge := sub.adj, sub.adjEdge
	n := len(subAdj)

	// Forward with weighted means. sumw[v] caches the normaliser; the
	// aggregation itself is the shared CSR kernel with the mask as entry
	// values and 1/sumw as the row scale (rows below the epsilon stay
	// zero, as in the loop nest this replaced).
	h0 := m.labelEmb.labelledInput(mat.NewOf[T](in.Enc.Rows, in.Enc.Cols), in.Enc, visible, nil)
	sumw := make([]float64, n)
	for v := range subAdj {
		for _, ei := range adjEdge[v] {
			sumw[v] += w[ei]
		}
	}
	val := make([]T, len(sub.entryEdge))
	for k, ei := range sub.entryEdge {
		val[k] = T(w[ei])
	}
	scale := make([]T, n)
	for v, s := range sumw {
		if s > 1e-12 {
			scale[v] = T(1 / s)
		}
	}
	wOp := sub.csr.WithValues(val, scale)
	weightedMean := func(h *mat.Dense[T]) *mat.Dense[T] { return wOp.Mul(h) }

	type layerCache struct {
		hPrev, mean, out *mat.Dense[T]
		mask             *mat.Dense[T]
		norms            []float64
	}
	var caches []layerCache
	cur := h0
	for li, layer := range m.layers {
		mean := weightedMean(cur)
		z := layer.forward(mean)
		mat.AddInPlace(z, mat.MatMul(cur, m.selfW[li].W))
		lc := layerCache{hPrev: cur, mean: mean}
		if li == len(m.layers)-1 {
			lc.out = z
		} else {
			a, mask := reluForward(z)
			lc.mask = mask
			lc.norms = make([]float64, n)
			for i := 0; i < n; i++ {
				row := a.Row(i)
				nm := mat.Norm2(row)
				lc.norms[i] = nm
				if nm > 0 {
					invN := T(1 / nm)
					for j := range row {
						row[j] *= invN
					}
				}
			}
			lc.out = a
		}
		caches = append(caches, lc)
		cur = lc.out
	}
	logits := cur.Row(int(target))
	probs := make([]T, len(logits))
	mat.Softmax(probs, logits)
	p := float64(probs[class])

	// Backward: d(-log p)/dlogits = probs - onehot(class), only on the
	// target row.
	g := mat.NewOf[T](n, m.classes)
	gRow := g.Row(int(target))
	copy(gRow, probs)
	gRow[class] -= 1

	edgeGrad := make([]float64, len(w))
	for li := len(m.layers) - 1; li >= 0; li-- {
		lc := caches[li]
		if li < len(m.layers)-1 {
			y := lc.out
			out := mat.NewOf[T](g.Rows, g.Cols)
			for i := 0; i < g.Rows; i++ {
				if lc.norms[i] == 0 {
					continue
				}
				gr, yr, or := g.Row(i), y.Row(i), out.Row(i)
				dot := mat.Dot(gr, yr)
				invN := 1 / lc.norms[i]
				for j := range or {
					or[j] = T((float64(gr[j]) - dot*float64(yr[j])) * invN)
				}
			}
			g = mat.Hadamard(out, lc.mask)
		}
		// Through the linear layer (no parameter grads needed here).
		gMean := mat.MatMulTransB(g, m.layers[li].w.W)
		// Edge gradients through the weighted mean:
		// dL/dw_e += g_mean[v] . (h_prev[n] - mean[v]) / sumw[v]. The
		// reduction accumulates in float64 at every precision.
		for v := range subAdj {
			if sumw[v] <= 1e-12 {
				continue
			}
			gv := gMean.Row(v)
			mv := lc.mean.Row(v)
			inv := 1 / sumw[v]
			for k, nb := range subAdj[v] {
				hn := lc.hPrev.Row(int(nb))
				d := 0.0
				for j := range gv {
					d += float64(gv[j]) * (float64(hn[j]) - float64(mv[j]))
				}
				edgeGrad[adjEdge[v][k]] += d * inv
			}
		}
		// Node gradients to the previous layer: weighted-mean transpose
		// (the CSR adjoint kernel) plus the self path.
		if li > 0 {
			prev := mat.MatMulTransB(g, m.selfW[li].W)
			g = mat.AddInPlace(prev, wOp.MulTrans(gMean))
		}
	}
	return edgeGrad, p
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
