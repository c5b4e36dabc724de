// Campaign attribution: the full TRAIL pipeline on a fresh campaign.
//
// A new incident report arrives after the knowledge graph was built. We
// merge it, enrich its IOCs, and compare the three attribution methods
// the paper studies: per-IOC classification with mode voting, label
// propagation, and the GraphSAGE GNN with and without neighbour labels.
//
// Run with:
//
//	go run ./examples/campaign-attribution
package main

import (
	"context"
	"fmt"
	"log"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/osint"
	"trail/internal/tree"
)

func main() {
	cfg := osint.DefaultConfig()
	cfg.Months = 13
	cfg.EventsPerMonth = 14
	world := osint.NewWorld(cfg)
	names := world.Resolver().Names()
	classes := len(world.Roster())

	// Build the base TKG from the first 12 months; month 13 is "the
	// future".
	tkg := core.NewTKG(world, world.Resolver(), core.DefaultBuildConfig())
	if _, err := tkg.Build(world.PulsesInMonths(0, 12)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base TKG: %d nodes, %d events\n", tkg.G.NumNodes(), len(tkg.EventNodes()))

	// Train the models on the base TKG.
	rfModel, rfScaler := trainIOCForest(tkg)
	set, err := gnn.TrainEncodersCtx(context.Background(), tkg.G, tkg.Features, gnn.DefaultAEConfig(), gnn.EncoderTrainOpts{})
	if err != nil {
		log.Fatal(err)
	}
	in := gnn.BuildInput(tkg.G, tkg.Features, set, classes)
	events := tkg.EventNodes()
	sage, err := gnn.TrainCtx(in, events, gnn.Config{
		Layers: 2, Hidden: 48, Encoding: 64, LR: 1e-2, Epochs: 40, Seed: 1,
	}, gnn.TrainOpts{})
	if err != nil {
		log.Fatal(err)
	}

	// A fresh campaign report arrives.
	future := world.PulsesInMonths(12, 13)
	if len(future) == 0 {
		log.Fatal("no future pulses generated")
	}
	pulse := future[0]
	evID, err := tkg.AddPulse(pulse)
	if err != nil {
		log.Fatal(err)
	}
	tkg.FinalizeLabels()
	truth := tkg.G.Node(evID).Label
	fmt.Printf("\nnew report %s: %d IOCs, ground truth %s\n",
		pulse.ID, len(pulse.Indicators), names[truth])

	// Method 1: per-IOC Random Forest votes.
	votes := iocVotes(tkg, rfModel, rfScaler, evID)
	fmt.Printf("per-IOC RF mode vote:      %s (%d IOC votes)\n", nameOf(names, ml.Mode(votes)), len(votes))

	// Method 2: label propagation (resource reuse only).
	seeds := map[graph.NodeID]int{}
	for _, ev := range events {
		seeds[ev] = tkg.G.Node(ev).Label
	}
	lp := labelprop.AttributeCSR(tkg.G.CSR(), seeds, []graph.NodeID{evID}, classes, 4)[0]
	fmt.Printf("label propagation (4L):    %s\n", nameOf(names, lp))

	// Method 3: GNN on the merged graph (encodings recomputed with the
	// frozen encoders; weights untouched).
	in2 := gnn.BuildInput(tkg.G, tkg.Features, set, classes)
	blind := sage.Predict(in2, nil, []graph.NodeID{evID})[0]
	informed := sage.Predict(in2, seeds, []graph.NodeID{evID})[0]
	confB := sage.Confidence(in2, nil, []graph.NodeID{evID})[0]
	confI := sage.Confidence(in2, seeds, []graph.NodeID{evID})[0]
	fmt.Printf("GNN, features only:        %s (confidence %.2f)\n", nameOf(names, blind), confB)
	fmt.Printf("GNN, with neighbor labels: %s (confidence %.2f)\n", nameOf(names, informed), confI)
}

// trainIOCForest fits one Random Forest on the domain IOCs (the most
// numerous kind) for the per-IOC voting baseline.
func trainIOCForest(tkg *core.TKG) (*tree.Forest, *ml.StandardScaler) {
	ids, labels := tkg.LabeledIOCs(graph.KindDomain)
	var rows [][]float64
	var y []int
	for i, id := range ids {
		if v, ok := tkg.Features[id]; ok {
			rows = append(rows, v)
			y = append(y, labels[i])
		}
	}
	X := mat.FromRows(rows)
	scaler := ml.FitScaler(X)
	rf := tree.NewForest(tree.ForestConfig{Trees: 30, MaxDepth: 12, Seed: 1, Parallel: true})
	if err := rf.Fit(scaler.Transform(X), y); err != nil {
		log.Fatal(err)
	}
	return rf, scaler
}

func iocVotes(tkg *core.TKG, rf *tree.Forest, scaler *ml.StandardScaler, ev graph.NodeID) []int {
	var votes []int
	tkg.G.NeighborEdges(ev, func(to graph.NodeID, et graph.EdgeType, _ bool) bool {
		if et != graph.EdgeInReport {
			return true
		}
		if tkg.G.Node(to).Kind != graph.KindDomain {
			return true
		}
		if v, ok := tkg.Features[to]; ok {
			X := scaler.Transform(mat.FromRows([][]float64{v}))
			votes = append(votes, ml.Predict(rf, X)[0])
		}
		return true
	})
	return votes
}

func nameOf(names []string, class int) string {
	if class < 0 || class >= len(names) {
		return "UNATTRIBUTED"
	}
	return names[class]
}
