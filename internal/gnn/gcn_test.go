package gnn

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
)

func TestGCNLearnsClusteredAttribution(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 12, 6)
	var train, test []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs[:9]...)
		test = append(test, evs[9:]...)
	}
	m, err := TrainGCNCtx(in, train, Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 60, Seed: 1}, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	visible := map[graph.NodeID]int{}
	for _, ev := range train {
		visible[ev] = in.Labels[ev]
	}
	truth := make([]int, len(test))
	for i, ev := range test {
		truth[i] = in.Labels[ev]
	}
	if acc := ml.Accuracy(truth, m.Predict(in, visible, test)); acc < 0.7 {
		t.Fatalf("GCN test accuracy %.3f on trivially clustered graph", acc)
	}
}

func TestGCNTrainErrors(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 3, 2)
	if _, err := TrainGCNCtx(in, nil, Config{Layers: 2, Encoding: 16}, TrainOpts{}); err == nil {
		t.Fatal("expected error with no training events")
	}
	bad := in
	bad.Enc = mat.NewOf[float64](in.CSR.Rows, 5)
	if _, err := TrainGCNCtx(bad, byClass[0], Config{Layers: 2, Encoding: 16}, TrainOpts{}); err == nil {
		t.Fatal("expected error on encoding width mismatch")
	}
}

func TestGCNPropagationIsSymmetric(t *testing.T) {
	// <Sx, y> == <x, Sy> must hold exactly for the normalised operator.
	g := graph.New()
	for i := 0; i < 7; i++ {
		g.Upsert(graph.KindIP, string(rune('a'+i)))
	}
	g.AddEdge(0, 1, graph.EdgeARecord)
	g.AddEdge(1, 2, graph.EdgeARecord)
	g.AddEdge(2, 3, graph.EdgeARecord)
	g.AddEdge(0, 4, graph.EdgeARecord)
	g.AddEdge(4, 5, graph.EdgeARecord)
	s := gcnOperator(Input{CSR: g.CSR()})

	x := mat.RandNormalOf[float64](newRng(3), 7, 3, 0, 1)
	y := mat.RandNormalOf[float64](newRng(4), 7, 3, 0, 1)
	sx := s.Mul(x)
	sy := s.Mul(y)
	lhs := mat.Dot(sx.Data, y.Data)
	rhs := mat.Dot(x.Data, sy.Data)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("propagation not symmetric: %v vs %v", lhs, rhs)
	}
}

func TestGCNPropPreservesConstantVector(t *testing.T) {
	// For a d-regular graph the normalised operator has eigenvector 1
	// with eigenvalue 1: a ring is 2-regular.
	g := graph.New()
	const n = 6
	for i := 0; i < n; i++ {
		g.Upsert(graph.KindIP, string(rune('a'+i)))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), graph.EdgeARecord)
	}
	s := gcnOperator(Input{CSR: g.CSR()})
	x := mat.NewOf[float64](n, 1)
	x.Fill(1)
	out := s.Mul(x)
	for i := 0; i < n; i++ {
		if math.Abs(out.At(i, 0)-1) > 1e-12 {
			t.Fatalf("constant vector not preserved on regular graph: %v", out.At(i, 0))
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
