package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"trail/internal/gnn"
	"trail/internal/graph"
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
}

// DefaultTableIVConfig mirrors the paper's roster: XGB/NN/RF, LP 2-4L,
// GNN 2-4L.
func DefaultTableIVConfig() TableIVConfig {
	return TableIVConfig{LPLayers: []int{2, 3, 4}, GNNLayers: []int{2, 3, 4}}
}

// modeVoteMaxRows caps the per-kind IOC training sets of the traditional
// models in the mode vote.
const modeVoteMaxRows = 1500

// RunTableIV evaluates all event-attribution approaches with stratified
// k-fold cross-validation over the event nodes.
func RunTableIV(ctx *Context, cfg TableIVConfig) (*TableIVResult, error) {
	if cfg.LPLayers == nil && cfg.GNNLayers == nil && cfg.Models == nil {
		cfg = DefaultTableIVConfig()
		cfg.Models = TraditionalModels()
	}
	events := ctx.TKG.EventNodes()
	if len(events) < ctx.Opts.Folds*2 {
		return nil, fmt.Errorf("eval: only %d events; need at least %d", len(events), ctx.Opts.Folds*2)
	}
	folds := ctx.kfold(ctx.TKG, 400)
	res := &TableIVResult{Events: len(events)}
	addRow := func(name string, accs, baccs []float64) {
		res.Rows = append(res.Rows, EventAttributionRow{
			Name: name, Acc: ml.Summarize(accs), BAcc: ml.Summarize(baccs),
		})
	}

	// Traditional ML: per-IOC classification + mode vote per event.
	for _, m := range cfg.Models {
		var accs, baccs []float64
		for fi, s := range folds {
			pred, err := ctx.modeVoteAttribution(m, s, int64(fi))
			if err != nil {
				return nil, err
			}
			accs = append(accs, ml.Accuracy(s.truth, pred))
			baccs = append(baccs, ml.BalancedAccuracy(s.truth, pred, ctx.Classes))
		}
		addRow(string(m), accs, baccs)
	}

	// Label propagation at each depth.
	for _, layers := range cfg.LPLayers {
		accs, baccs := ctx.lpSplits(ctx.TKG, folds, layers)
		addRow(fmt.Sprintf("LP %dL", layers), accs, baccs)
	}

	// GraphSAGE at each depth, one fold per goroutine. The autoencoders
	// are shared across folds and depths: they are unsupervised and see
	// no labels, so there is no leakage.
	if len(cfg.GNNLayers) > 0 {
		set, err := ctx.encoders()
		if err != nil {
			return nil, err
		}
		in := gnn.BuildInput(ctx.TKG.G, ctx.TKG.Features, set, ctx.Classes)
		for _, layers := range cfg.GNNLayers {
			// Table IV trains longer than the other experiments: 80
			// epochs, or 15 at 24 hidden units in Fast mode.
			gcfg := ctx.GNNConfig(layers)
			gcfg.Epochs = 80
			if ctx.Opts.Fast {
				gcfg.Hidden, gcfg.Epochs = 24, 15
			}
			accs := make([]float64, len(folds))
			baccs := make([]float64, len(folds))
			errs := make([]error, len(folds))
			var wg sync.WaitGroup
			for fi, s := range folds {
				wg.Add(1)
				go func(fi int, s split, gcfg gnn.Config) {
					defer wg.Done()
					gcfg.Seed += int64(fi)
					model, err := gnn.TrainCtx(in, s.train, gcfg, gnn.TrainOpts{})
					if err != nil {
						errs[fi] = err
						return
					}
					pred := model.Predict(in, s.seeds, s.queries)
					accs[fi] = ml.Accuracy(s.truth, pred)
					baccs[fi] = ml.BalancedAccuracy(s.truth, pred, ctx.Classes)
				}(fi, s, gcfg)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return nil, err
			}
			addRow(fmt.Sprintf("GNN %dL", layers), accs, baccs)
		}
	}
	return res, nil
}

// modeVoteAttribution implements the paper's traditional-ML event
// attribution: classify every first-order IOC of a query event
// individually, then output the mode of the predictions. Only the
// split's seed events label the training IOCs.
func (c *Context) modeVoteAttribution(m ModelName, s split, foldSeed int64) ([]int, error) {
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
			if _, seed := s.seeds[to]; et != graph.EdgeInReport || !seed {
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
		if X.Rows > modeVoteMaxRows {
			keep := c.rng(500 + foldSeed).Perm(X.Rows)[:modeVoteMaxRows]
			X, y = X.SelectRows(keep), selectInts(y, keep)
		}
		scaler := ml.FitScaler(X)
		model := newModel(m, c.Classes, c.Opts.Seed+foldSeed, c.Opts.Fast)
		if err := model.Fit(scaler.Transform(X), y); err != nil {
			return nil, fmt.Errorf("eval: mode-vote %s on %s: %w", m, kind, err)
		}
		models[kind] = model
		scalers[kind] = scaler
	}

	pred := make([]int, len(s.queries))
	for i, ev := range s.queries {
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
		pred[i] = ml.Mode(votes)
	}
	return pred, nil
}
