package eval

import (
	"fmt"
	"strings"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/tree"
)

// ModelName enumerates the traditional classifiers of Tables III-IV.
type ModelName string

// The three traditional models the paper evaluates.
const (
	ModelXGB ModelName = "XGB"
	ModelNN  ModelName = "NN"
	ModelRF  ModelName = "RF"
)

// TraditionalModels lists the Table III/IV model roster in paper order.
func TraditionalModels() []ModelName { return []ModelName{ModelXGB, ModelNN, ModelRF} }

// newModel builds a fresh classifier. Fast mode trims capacity for unit
// tests; the default sizes balance fidelity and pure-Go runtime.
func newModel(name ModelName, classes int, seed int64, fast bool) ml.Classifier {
	// Sizes are tuned for single-core pure-Go runtime; they preserve the
	// paper's relative model behaviour at a fraction of the cost.
	switch name {
	case ModelXGB:
		cfg := tree.DefaultGBTConfig()
		cfg.Seed = seed
		cfg.Rounds = 8
		cfg.MaxDepth = 5
		cfg.ColSample = 32
		if fast {
			cfg.Rounds = 4
			cfg.ColSample = 16
			cfg.MaxDepth = 4
		}
		return tree.NewGBT(cfg)
	case ModelNN:
		cfg := ml.DefaultNNConfig()
		cfg.Seed = seed
		cfg.Classes = classes
		cfg.Hidden = []int{128, 64}
		cfg.Epochs = 6
		if fast {
			cfg.Hidden = []int{32}
			cfg.Epochs = 4
		}
		return ml.NewNN(cfg)
	case ModelRF:
		cfg := tree.DefaultForestConfig()
		cfg.Seed = seed
		cfg.Trees = 25
		cfg.MaxDepth = 12
		if fast {
			cfg.Trees = 10
			cfg.MaxDepth = 8
		}
		return tree.NewForest(cfg)
	default:
		panic(fmt.Sprintf("eval: unknown model %q", name))
	}
}

// IOCAttributionCell is one (model, IOC-kind) cell of Table III.
type IOCAttributionCell struct {
	Model ModelName
	Kind  graph.NodeKind
	Acc   ml.MeanStd
	BAcc  ml.MeanStd
}

// TableIIIResult is the individual-IOC attribution experiment.
type TableIIIResult struct {
	Cells   []IOCAttributionCell
	Samples map[graph.NodeKind]int
	// Folds is the cross-validation fold count behind each mean.
	Folds int
}

// Cell returns the cell for (model, kind), or nil.
func (r *TableIIIResult) Cell(m ModelName, k graph.NodeKind) *IOCAttributionCell {
	for i := range r.Cells {
		if r.Cells[i].Model == m && r.Cells[i].Kind == k {
			return &r.Cells[i]
		}
	}
	return nil
}

// Render prints the Table III grid.
func (r *TableIIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: Individual IOC attribution (%d-fold mean)\n", r.Folds)
	fmt.Fprintf(&b, "%-6s", "Model")
	for _, k := range iocKinds() {
		fmt.Fprintf(&b, " %8s-Acc %8s-BAcc", k, k)
	}
	b.WriteByte('\n')
	for _, m := range TraditionalModels() {
		fmt.Fprintf(&b, "%-6s", m)
		for _, k := range iocKinds() {
			c := r.Cell(m, k)
			if c == nil {
				fmt.Fprintf(&b, " %12s %13s", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %12.4f %13.4f", c.Acc.Mean, c.BAcc.Mean)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "samples: IP=%d URL=%d Domain=%d\n",
		r.Samples[graph.KindIP], r.Samples[graph.KindURL], r.Samples[graph.KindDomain])
	return b.String()
}

func iocKinds() []graph.NodeKind {
	return []graph.NodeKind{graph.KindIP, graph.KindURL, graph.KindDomain}
}

// TableIIIConfig tunes the experiment.
type TableIIIConfig struct {
	// UseSMOTE applies minority oversampling to the training folds (the
	// paper's preprocessing; disabling it is an ablation).
	UseSMOTE bool
	// Models restricts the roster (nil = all three).
	Models []ModelName
	// Kinds restricts the IOC kinds (nil = all three).
	Kinds []graph.NodeKind
}

// DefaultTableIIIConfig mirrors the paper's preprocessing.
func DefaultTableIIIConfig() TableIIIConfig {
	return TableIIIConfig{UseSMOTE: true}
}

// tableIIIMaxRows caps the post-SMOTE training set per fold, keeping the
// pure-Go models tractable at larger world scales.
const tableIIIMaxRows = 3000

// RunTableIII trains XGB, NN and RF on each IOC kind's feature matrix
// with stratified k-fold cross-validation, SMOTE oversampling and
// standard scaling, reporting accuracy and balanced accuracy per cell.
func RunTableIII(ctx *Context, cfg TableIIIConfig) (*TableIIIResult, error) {
	models := cfg.Models
	if models == nil {
		models = TraditionalModels()
	}
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = iocKinds()
	}
	res := &TableIIIResult{Samples: make(map[graph.NodeKind]int), Folds: ctx.Opts.Folds}
	for _, kind := range kinds {
		X, y, err := ctx.LabeledFeatureMatrix(kind)
		if err != nil {
			return nil, err
		}
		res.Samples[kind] = X.Rows
		if X.Rows < ctx.Opts.Folds*2 {
			continue
		}
		folds := ml.StratifiedKFold(ctx.rng(100+int64(kind)), y, ctx.Opts.Folds)
		for _, m := range models {
			var accs, baccs []float64
			for fi, test := range folds {
				train := ml.Complement(X.Rows, test)
				Xtr, ytr := X.SelectRows(train), selectInts(y, train)
				if cfg.UseSMOTE {
					Xtr, ytr = ml.SMOTE(ctx.rng(200+int64(fi)), Xtr, ytr, ctx.Classes, 5)
				}
				if Xtr.Rows > tableIIIMaxRows {
					keep := ctx.rng(300 + int64(fi)).Perm(Xtr.Rows)[:tableIIIMaxRows]
					Xtr, ytr = Xtr.SelectRows(keep), selectInts(ytr, keep)
				}
				scaler := ml.FitScaler(Xtr)
				Xtr = scaler.Transform(Xtr)
				Xte := scaler.Transform(X.SelectRows(test))
				yte := selectInts(y, test)

				model := newModel(m, ctx.Classes, ctx.Opts.Seed+int64(fi), ctx.Opts.Fast)
				if err := model.Fit(Xtr, ytr); err != nil {
					return nil, fmt.Errorf("eval: %s on %s fold %d: %w", m, kind, fi, err)
				}
				pred := ml.Predict(model, Xte)
				accs = append(accs, ml.Accuracy(yte, pred))
				baccs = append(baccs, ml.BalancedAccuracy(yte, pred, ctx.Classes))
			}
			res.Cells = append(res.Cells, IOCAttributionCell{
				Model: m, Kind: kind,
				Acc:  ml.Summarize(accs),
				BAcc: ml.Summarize(baccs),
			})
		}
	}
	return res, nil
}

// LabeledFeatureMatrix assembles the (features, labels) training data for
// one IOC kind: first-order IOCs attributed to exactly one APT, as in the
// paper's Table III setup.
func (c *Context) LabeledFeatureMatrix(kind graph.NodeKind) (*mat.Matrix, []int, error) {
	ids, labels := c.TKG.LabeledIOCs(kind)
	var rows [][]float64
	var y []int
	for i, id := range ids {
		if v, ok := c.TKG.Features[id]; ok {
			rows = append(rows, v)
			y = append(y, labels[i])
		}
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("eval: no labeled %s IOCs with features", kind)
	}
	return mat.FromRows(rows), y, nil
}

func selectInts(v []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}
