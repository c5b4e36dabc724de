package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/mat"
	"trail/internal/ml"
)

// EventAttributionRow is one row of Table IV.
type EventAttributionRow struct {
	Name string
	Acc  ml.MeanStd
	BAcc ml.MeanStd
}

// TableIVResult is the event-attribution experiment.
type TableIVResult struct {
	Rows   []EventAttributionRow
	Events int
}

// Row returns the named row, or nil.
func (r *TableIVResult) Row(name string) *EventAttributionRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the Table IV rows.
func (r *TableIVResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Event attribution accuracy (%d events, k-fold mean ± std)\n", r.Events)
	fmt.Fprintf(&b, "%-8s %18s %18s\n", "Model", "Acc", "B-Acc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %18s %18s\n", row.Name, row.Acc, row.BAcc)
	}
	return b.String()
}

// TableIVConfig tunes the experiment.
type TableIVConfig struct {
	// Models is the traditional-ML roster (nil = all; empty slice = skip).
	Models []ModelName
	// LPLayers and GNNLayers list the propagation depths to evaluate.
	LPLayers  []int
	GNNLayers []int
	// GNN capacity knobs.
	GNNEpochs int
	GNNHidden int
	AE        gnn.AEConfig
	// MaxTrainRows caps per-kind IOC training sets for the traditional
	// models.
	MaxTrainRows int
}

// DefaultTableIVConfig mirrors the paper's roster: XGB/NN/RF, LP 2-4L,
// GNN 2-4L.
func DefaultTableIVConfig() TableIVConfig {
	return TableIVConfig{
		LPLayers:     []int{2, 3, 4},
		GNNLayers:    []int{2, 3, 4},
		GNNEpochs:    80,
		GNNHidden:    64,
		AE:           gnn.DefaultAEConfig(),
		MaxTrainRows: 1500,
	}
}

// RunTableIV evaluates all event-attribution approaches with stratified
// k-fold cross-validation over the event nodes.
func RunTableIV(ctx *Context, cfg TableIVConfig) (*TableIVResult, error) {
	if cfg.LPLayers == nil && cfg.GNNLayers == nil && cfg.Models == nil {
		cfg = DefaultTableIVConfig()
		cfg.Models = TraditionalModels()
	}
	if ctx.Opts.Fast {
		if cfg.GNNEpochs > 15 {
			cfg.GNNEpochs = 15
		}
		cfg.GNNHidden = 24
		cfg.AE.Epochs = 2
		cfg.AE.Hidden = 32
	}

	events, labels := ctx.eventLabels()
	if len(events) < ctx.Opts.Folds*2 {
		return nil, fmt.Errorf("eval: only %d events; need at least %d", len(events), ctx.Opts.Folds*2)
	}
	folds := ml.StratifiedKFold(ctx.rng(400), labels, ctx.Opts.Folds)
	csr := ctx.TKG.G.CSR()

	res := &TableIVResult{Events: len(events)}

	// Traditional ML: per-IOC classification + mode vote per event.
	for _, m := range cfg.Models {
		var accs, baccs []float64
		for fi, test := range folds {
			train := ml.Complement(len(events), test)
			pred, truth, err := ctx.modeVoteAttribution(m, events, labels, train, test, cfg, int64(fi))
			if err != nil {
				return nil, err
			}
			accs = append(accs, ml.Accuracy(truth, pred))
			baccs = append(baccs, ml.BalancedAccuracy(truth, pred, ctx.Classes))
		}
		res.Rows = append(res.Rows, EventAttributionRow{
			Name: string(m), Acc: ml.Summarize(accs), BAcc: ml.Summarize(baccs),
		})
	}

	// Label propagation at each depth.
	for _, layers := range cfg.LPLayers {
		var accs, baccs []float64
		for _, test := range folds {
			train := ml.Complement(len(events), test)
			seeds := make(map[graph.NodeID]int, len(train))
			for _, ti := range train {
				seeds[events[ti]] = labels[ti]
			}
			queries := make([]graph.NodeID, len(test))
			truth := make([]int, len(test))
			for i, te := range test {
				queries[i] = events[te]
				truth[i] = labels[te]
			}
			pred := labelprop.AttributeCSR(csr, seeds, queries, ctx.Classes, layers)
			accs = append(accs, ml.Accuracy(truth, pred))
			baccs = append(baccs, ml.BalancedAccuracy(truth, pred, ctx.Classes))
		}
		res.Rows = append(res.Rows, EventAttributionRow{
			Name: fmt.Sprintf("LP %dL", layers),
			Acc:  ml.Summarize(accs), BAcc: ml.Summarize(baccs),
		})
	}

	// GraphSAGE at each depth. The autoencoders are shared across folds
	// and depths: they are unsupervised and see no labels, so there is no
	// leakage.
	if len(cfg.GNNLayers) > 0 {
		set, err := gnn.TrainEncodersCtx(context.TODO(), ctx.TKG.G, ctx.TKG.Features, cfg.AE, gnn.EncoderTrainOpts{})
		if err != nil {
			return nil, err
		}
		in := gnn.BuildInput(ctx.TKG.G, ctx.TKG.Features, set, ctx.Classes)
		for _, layers := range cfg.GNNLayers {
			accs := make([]float64, len(folds))
			baccs := make([]float64, len(folds))
			errs := make([]error, len(folds))
			var wg sync.WaitGroup
			for fi, test := range folds {
				wg.Add(1)
				go func(fi int, test []int) {
					defer wg.Done()
					train := ml.Complement(len(events), test)
					trainIDs := make([]graph.NodeID, len(train))
					visible := make(map[graph.NodeID]int, len(train))
					for i, ti := range train {
						trainIDs[i] = events[ti]
						visible[events[ti]] = labels[ti]
					}
					gcfg := gnn.Config{
						Layers:   layers,
						Hidden:   cfg.GNNHidden,
						Encoding: cfg.AE.Encoding,
						LR:       1e-2,
						Epochs:   cfg.GNNEpochs,
						Seed:     ctx.Opts.Seed + int64(fi),
					}
					model, err := gnn.TrainCtx(in, trainIDs, gcfg, gnn.TrainOpts{})
					if err != nil {
						errs[fi] = err
						return
					}
					queries := make([]graph.NodeID, len(test))
					truth := make([]int, len(test))
					for i, te := range test {
						queries[i] = events[te]
						truth[i] = labels[te]
					}
					pred := model.Predict(in, visible, queries)
					accs[fi] = ml.Accuracy(truth, pred)
					baccs[fi] = ml.BalancedAccuracy(truth, pred, ctx.Classes)
				}(fi, test)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, EventAttributionRow{
				Name: fmt.Sprintf("GNN %dL", layers),
				Acc:  ml.Summarize(accs), BAcc: ml.Summarize(baccs),
			})
		}
	}
	return res, nil
}

// modeVoteAttribution implements the paper's traditional-ML event
// attribution: classify every first-order IOC of an event individually,
// then output the mode of the predictions.
func (c *Context) modeVoteAttribution(m ModelName, events []graph.NodeID, labels []int, train, test []int, cfg TableIVConfig, foldSeed int64) (pred, truth []int, err error) {
	inTrain := make(map[graph.NodeID]bool, len(train))
	for _, ti := range train {
		inTrain[events[ti]] = true
	}

	// Per-kind training data labelled only from training events.
	type kindData struct {
		rows [][]float64
		y    []int
	}
	data := map[graph.NodeKind]*kindData{
		graph.KindIP:     {},
		graph.KindURL:    {},
		graph.KindDomain: {},
	}
	c.TKG.G.ForEachNode(func(n graph.Node) {
		kd, ok := data[n.Kind]
		if !ok || !n.FirstOrder {
			return
		}
		feat, ok := c.TKG.Features[n.ID]
		if !ok {
			return
		}
		label := -1
		pure := true
		c.TKG.G.NeighborEdges(n.ID, func(to graph.NodeID, et graph.EdgeType, _ bool) bool {
			if et != graph.EdgeInReport || !inTrain[to] {
				return true
			}
			l := c.TKG.G.Node(to).Label
			if label == -1 {
				label = l
			} else if label != l {
				pure = false
				return false
			}
			return true
		})
		if pure && label >= 0 {
			kd.rows = append(kd.rows, feat)
			kd.y = append(kd.y, label)
		}
	})

	models := make(map[graph.NodeKind]ml.Classifier)
	scalers := make(map[graph.NodeKind]*ml.StandardScaler)
	for kind, kd := range data {
		if len(kd.rows) < 2 {
			continue
		}
		X, y := mat.FromRows(kd.rows), kd.y
		if cfg.MaxTrainRows > 0 && X.Rows > cfg.MaxTrainRows {
			keep := c.rng(500 + foldSeed).Perm(X.Rows)[:cfg.MaxTrainRows]
			X, y = X.SelectRows(keep), selectInts(y, keep)
		}
		scaler := ml.FitScaler(X)
		model := newModel(m, c.Classes, c.Opts.Seed+foldSeed, c.Opts.Fast)
		if err := model.Fit(scaler.Transform(X), y); err != nil {
			return nil, nil, fmt.Errorf("eval: mode-vote %s on %s: %w", m, kind, err)
		}
		models[kind] = model
		scalers[kind] = scaler
	}

	for _, te := range test {
		ev := events[te]
		var votes []int
		c.TKG.G.NeighborEdges(ev, func(to graph.NodeID, et graph.EdgeType, _ bool) bool {
			if et != graph.EdgeInReport {
				return true
			}
			n := c.TKG.G.Node(to)
			model, ok := models[n.Kind]
			if !ok {
				return true
			}
			feat, ok := c.TKG.Features[to]
			if !ok {
				return true
			}
			X := scalers[n.Kind].Transform(mat.FromRows([][]float64{feat}))
			votes = append(votes, ml.Predict(model, X)[0])
			return true
		})
		pred = append(pred, ml.Mode(votes))
		truth = append(truth, labels[te])
	}
	return pred, truth, nil
}
