package eval

import (
	"fmt"
	"path/filepath"
	"strings"

	"trail/internal/graph"
	"trail/internal/hyperopt"
	"trail/internal/ml"
	"trail/internal/tree"
)

// Hyperparameter tuning: the paper optimises the XGBoost and Random
// Forest classifiers with Hyperopt's Tree-structured Parzen Estimator
// (§VI-A). This file wires internal/hyperopt into the Table III training
// path: a TPE search over the model's space, scored by balanced accuracy
// on an internal validation split.

// TuneResult records one tuning run.
type TuneResult struct {
	Model     ModelName
	Kind      graph.NodeKind
	Best      hyperopt.Params
	BestScore float64 // validation balanced accuracy at the optimum
	BaseScore float64 // validation balanced accuracy of the untuned default
	Trials    int
}

// Render prints the tuning summary.
func (r *TuneResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPE tuning of %s on %s IOCs (%d trials):\n", r.Model, r.Kind, r.Trials)
	fmt.Fprintf(&b, "  default config validation B-Acc: %.4f\n", r.BaseScore)
	fmt.Fprintf(&b, "  tuned config validation B-Acc:   %.4f\n", r.BestScore)
	// Search-space order, not map order, so the report is stable.
	for _, d := range tuneSpace(r.Model) {
		if v, ok := r.Best[d.Name]; ok {
			fmt.Fprintf(&b, "  %-16s %.4g\n", d.Name, v)
		}
	}
	return b.String()
}

// tuneSpace returns the TPE search box for a model.
func tuneSpace(m ModelName) hyperopt.Space {
	switch m {
	case ModelXGB:
		return hyperopt.Space{
			{Name: "rounds", Min: 4, Max: 20, Int: true},
			{Name: "depth", Min: 3, Max: 8, Int: true},
			{Name: "eta", Min: 0.05, Max: 0.6, Log: true},
			{Name: "lambda", Min: 0.1, Max: 10, Log: true},
			{Name: "subsample", Min: 0.5, Max: 1.0},
		}
	case ModelRF:
		return hyperopt.Space{
			{Name: "trees", Min: 10, Max: 60, Int: true},
			{Name: "depth", Min: 6, Max: 18, Int: true},
			{Name: "minleaf", Min: 1, Max: 8, Int: true},
		}
	default:
		return nil
	}
}

// buildTuned constructs a classifier from TPE parameters.
func buildTuned(m ModelName, p hyperopt.Params, seed int64) ml.Classifier {
	switch m {
	case ModelXGB:
		cfg := tree.DefaultGBTConfig()
		cfg.Rounds = int(p["rounds"])
		cfg.MaxDepth = int(p["depth"])
		cfg.LearningRate = p["eta"]
		cfg.Lambda = p["lambda"]
		cfg.Subsample = p["subsample"]
		cfg.ColSample = 32
		cfg.Seed = seed
		return tree.NewGBT(cfg)
	case ModelRF:
		cfg := tree.DefaultForestConfig()
		cfg.Trees = int(p["trees"])
		cfg.MaxDepth = int(p["depth"])
		cfg.MinSamplesLeaf = int(p["minleaf"])
		cfg.Seed = seed
		return tree.NewForest(cfg)
	default:
		panic(fmt.Sprintf("eval: model %q is not tunable", m))
	}
}

// RunTuning searches hyperparameters for a tree model on one IOC kind,
// exactly as the paper tunes XGB and RF. trials <= 0 uses a default
// budget scaled to Fast mode.
func RunTuning(ctx *Context, m ModelName, kind graph.NodeKind, trials int) (*TuneResult, error) {
	space := tuneSpace(m)
	if space == nil {
		return nil, fmt.Errorf("eval: model %q is not tunable (the paper tunes XGB and RF)", m)
	}
	if trials <= 0 {
		trials = 25
		if ctx.Opts.Fast {
			trials = 8
		}
	}
	X, y, err := ctx.LabeledFeatureMatrix(kind)
	if err != nil {
		return nil, err
	}
	// Internal 75/25 train/validation split, stratified.
	folds := ml.StratifiedKFold(ctx.rng(1000), y, 4)
	val := folds[0]
	trainIdx := ml.Complement(X.Rows, val)
	scaler := ml.FitScaler(X.SelectRows(trainIdx))
	Xtr := scaler.Transform(X.SelectRows(trainIdx))
	ytr := selectInts(y, trainIdx)
	Xva := scaler.Transform(X.SelectRows(val))
	yva := selectInts(y, val)
	if cap := tuneRowCap(ctx); Xtr.Rows > cap {
		keep := ctx.rng(1001).Perm(Xtr.Rows)[:cap]
		Xtr, ytr = Xtr.SelectRows(keep), selectInts(ytr, keep)
	}

	score := func(c ml.Classifier) float64 {
		if err := c.Fit(Xtr, ytr); err != nil {
			return 0
		}
		return ml.BalancedAccuracy(yva, ml.Predict(c, Xva), ctx.Classes)
	}

	base := score(newModel(m, ctx.Classes, ctx.Opts.Seed, ctx.Opts.Fast))
	obj := func(p hyperopt.Params) float64 {
		return -score(buildTuned(m, p, ctx.Opts.Seed)) // TPE minimises
	}
	cfg := hyperopt.DefaultConfig()
	cfg.Trials = trials
	cfg.Seed = ctx.Opts.Seed
	var journal hyperopt.TrialJournal
	if dir := ctx.Opts.ResumeDir; dir != "" {
		// One journal per search unit: the file name pins model, kind,
		// budget and seed so a rerun with different settings cannot absorb
		// stale results.
		name := fmt.Sprintf("tune-%s-%s-t%d-s%d.journal", m, kind, trials, ctx.Opts.Seed)
		fj, err := hyperopt.OpenFileJournal(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer fj.Close()
		journal = fj
	}
	best, history, err := hyperopt.MinimizeResumable(obj, space, cfg, journal)
	if err != nil {
		return nil, err
	}

	return &TuneResult{
		Model:     m,
		Kind:      kind,
		Best:      best.Params,
		BestScore: -best.Loss,
		BaseScore: base,
		Trials:    len(history),
	}, nil
}

func tuneRowCap(ctx *Context) int {
	if ctx.Opts.Fast {
		return 600
	}
	return 2000
}
