package gnn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/sparse"
)

func TestAutoencoderReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Low-rank data: 200 samples on a 5-dim subspace of R^40.
	basis := mat.RandNormalOf[float64](rng, 5, 40, 0, 1)
	X := mat.NewOf[float64](200, 40)
	for i := 0; i < X.Rows; i++ {
		for b := 0; b < 5; b++ {
			mat.Axpy(rng.NormFloat64(), basis.Row(b), X.Row(i))
		}
	}
	ae := NewAutoencoderOf[float64](AEConfig{Hidden: 32, Encoding: 8, LR: 1e-2, Epochs: 30, Batch: 32, Seed: 1})
	if err := ae.FitCtx(context.Background(), X); err != nil {
		t.Fatal(err)
	}
	errAfter := ae.ReconstructionError(X)
	// Variance of raw data per element ~5; a working AE on rank-5 data
	// must do far better than predicting zeros.
	base := 0.0
	for _, v := range X.Data {
		base += v * v
	}
	base /= float64(len(X.Data))
	if errAfter > base/4 {
		t.Fatalf("reconstruction error %.4f vs baseline %.4f", errAfter, base)
	}
	enc := ae.Encode(X)
	if enc.Rows != 200 || enc.Cols != 8 {
		t.Fatalf("encode shape %dx%d", enc.Rows, enc.Cols)
	}
}

func TestAutoencoderEmptyInput(t *testing.T) {
	ae := NewAutoencoderOf[float64](DefaultAEConfig())
	if err := ae.FitCtx(context.Background(), mat.NewOf[float64](0, 4)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// buildToyAttributionGraph creates a graph of `classes` clusters: each
// cluster has events connected to class-specific IOC nodes whose encoded
// features carry the class signal. Returns the input and the event IDs by
// class.
func buildToyAttributionGraph(t *testing.T, classes, eventsPerClass, iocsPerClass int) (Input, [][]graph.NodeID) {
	t.Helper()
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	encDim := 16
	var encRows [][]float64
	byClass := make([][]graph.NodeID, classes)

	// Create IOC nodes per class with class-biased features.
	iocIDs := make([][]graph.NodeID, classes)
	for c := 0; c < classes; c++ {
		for k := 0; k < iocsPerClass; k++ {
			id, _ := g.Upsert(graph.KindIP, fmt.Sprintf("ip-%d-%d", c, k))
			iocIDs[c] = append(iocIDs[c], id)
			row := make([]float64, encDim)
			for j := range row {
				row[j] = rng.NormFloat64() * 0.3
			}
			row[c%encDim] += 2 // class signal
			encRows = append(encRows, row)
		}
	}
	for c := 0; c < classes; c++ {
		for e := 0; e < eventsPerClass; e++ {
			id, _ := g.Upsert(graph.KindEvent, fmt.Sprintf("ev-%d-%d", c, e))
			g.UpdateNode(id, func(n *graph.Node) { n.Label = c })
			byClass[c] = append(byClass[c], id)
			encRows = append(encRows, make([]float64, encDim)) // events: zero features
			// Connect to 3 of the class's IOCs.
			for k := 0; k < 3; k++ {
				tgt := iocIDs[c][rng.Intn(len(iocIDs[c]))]
				g.AddEdge(id, tgt, graph.EdgeInReport)
			}
		}
	}
	// encRows order must match node IDs: IOCs were created before events
	// per class, so rebuild by ID.
	enc := mat.NewOf[float64](g.NumNodes(), encDim)
	// Recreate deterministically: iterate nodes and refill from encRows
	// using the same creation order (Upsert assigns sequential IDs).
	for i, row := range encRows {
		copy(enc.Row(i), row)
	}

	in := Input{
		CSR:     g.CSR(),
		Enc:     enc,
		IsEvent: make([]bool, g.NumNodes()),
		Labels:  make([]int, g.NumNodes()),
		Classes: classes,
	}
	for i := range in.Labels {
		in.Labels[i] = -1
	}
	g.ForEachNode(func(n graph.Node) {
		if n.Kind == graph.KindEvent {
			in.IsEvent[n.ID] = true
			in.Labels[n.ID] = n.Label
		}
	})
	return in, byClass
}

func TestSAGELearnsClusteredAttribution(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 12, 6)
	var train, test []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs[:9]...)
		test = append(test, evs[9:]...)
	}
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 60, Seed: 1}
	m, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	visible := make(map[graph.NodeID]int, len(train))
	for _, ev := range train {
		visible[ev] = in.Labels[ev]
	}
	preds := m.Predict(in, visible, test)
	truth := make([]int, len(test))
	for i, ev := range test {
		truth[i] = in.Labels[ev]
	}
	if acc := ml.Accuracy(truth, preds); acc < 0.8 {
		t.Fatalf("SAGE test accuracy %.3f on trivially clustered graph", acc)
	}
}

func TestSAGEConfidenceAndProba(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 8, 4)
	var train []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs...)
	}
	m, err := TrainCtx(in, train, Config{Layers: 2, Hidden: 8, Encoding: 16, LR: 1e-2, Epochs: 20, Seed: 1}, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	probs := m.PredictProba(in, nil, train[:4])
	for i := 0; i < probs.Rows; i++ {
		if s := mat.Sum(probs.Row(i)); math.Abs(s-1) > 1e-6 {
			t.Fatalf("probs row sums to %v", s)
		}
	}
	conf := m.Confidence(in, nil, train[:4])
	for _, c := range conf {
		if c < 0.5-1e-9 || c > 1 {
			t.Fatalf("confidence %v out of range for 2 classes", c)
		}
	}
}

func TestSAGETrainErrors(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 3, 2)
	if _, err := TrainCtx(in, nil, Config{Layers: 2, Encoding: 16}, TrainOpts{}); err == nil {
		t.Fatal("expected error with no training events")
	}
	bad := in
	bad.Enc = mat.NewOf[float64](in.CSR.Rows, 7) // wrong width
	if _, err := TrainCtx(bad, byClass[0], Config{Layers: 2, Encoding: 16}, TrainOpts{}); err == nil {
		t.Fatal("expected error on encoding width mismatch")
	}
}

func TestFineTuneImproves(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 10, 5)
	var train, test []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs[:7]...)
		test = append(test, evs[7:]...)
	}
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 2, Seed: 1}
	m, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, len(test))
	for i, ev := range test {
		truth[i] = in.Labels[ev]
	}
	before := ml.Accuracy(truth, m.Predict(in, nil, test))
	if err := m.FineTune(in, train, 60); err != nil {
		t.Fatal(err)
	}
	after := ml.Accuracy(truth, m.Predict(in, nil, test))
	if after < before-0.1 {
		t.Fatalf("fine-tuning regressed accuracy: %.3f -> %.3f", before, after)
	}
	if after < 0.6 {
		t.Fatalf("fine-tuned accuracy too low: %.3f", after)
	}
}

func TestNeighborMeanTransposeIsAdjoint(t *testing.T) {
	// <Ax, y> must equal <x, Aᵀy> for the aggregation operator.
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.Upsert(graph.KindIP, fmt.Sprintf("n%d", i))
	}
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 8; e++ {
		u, v := graph.NodeID(rng.Intn(6)), graph.NodeID(rng.Intn(6))
		g.AddEdge(u, v, graph.EdgeInReport)
	}
	mean := meanOperator(Input{CSR: g.CSR()})
	x := mat.RandNormalOf[float64](rng, 6, 4, 0, 1)
	y := mat.RandNormalOf[float64](rng, 6, 4, 0, 1)
	ax := mean.Mul(x)
	aty := mean.MulTrans(y)
	lhs := mat.Dot(ax.Data, y.Data)
	rhs := mat.Dot(x.Data, aty.Data)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("aggregation not self-adjoint: %v vs %v", lhs, rhs)
	}
}

func TestSampleAdjCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj := sparse.FromAdj([][]graph.NodeID{{1, 2, 3, 4, 5}, {0}, {0}, {0}, {0}, {0}})
	s := sampleAdj(rng, adj, 2)
	row := func(i int) []int32 { return s.ColIdx[s.RowPtr[i]:s.End(i)] }
	if len(row(0)) != 2 {
		t.Fatalf("cap not applied: %d", len(row(0)))
	}
	seen := map[int32]bool{}
	for _, v := range row(0) {
		if seen[v] {
			t.Fatal("sampled with replacement")
		}
		seen[v] = true
	}
	if len(row(1)) != 1 {
		t.Fatal("small lists must be untouched")
	}
}
