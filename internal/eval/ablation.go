package eval

import (
	"fmt"
	"strings"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/ml"
)

// AblationRow is one design-choice comparison.
type AblationRow struct {
	Name     string
	VariantA string
	AccA     float64
	VariantB string
	AccB     float64
}

// AblationResult bundles the design-choice studies of DESIGN.md §5.
type AblationResult struct {
	Rows []AblationRow
}

// Render prints the comparison table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations (design choices called out in DESIGN.md):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s %-22s %.4f vs %-22s %.4f\n",
			row.Name, row.VariantA, row.AccA, row.VariantB, row.AccB)
	}
	return b.String()
}

// RunAblationEnrichmentDepth rebuilds the TKG without relation expansion
// (MaxHops 1: secondary IOCs are never discovered) and compares LP 3L
// accuracy against the full 2-hop enrichment — the paper's claim that
// secondary IOCs power deep propagation.
func RunAblationEnrichmentDepth(ctx *Context) (*AblationRow, error) {
	shallow := core.NewTKG(ctx.World, ctx.World.Resolver(), core.BuildConfig{
		MaxHops: 1, FeaturizeSecondaries: true,
	})
	if _, err := shallow.Build(ctx.World.PulsesInMonths(0, ctx.TrainMonths)); err != nil {
		return nil, err
	}
	full := ctx.lpAccuracy(ctx.TKG, 3)
	none := ctx.lpAccuracy(shallow, 3)
	return &AblationRow{
		Name:     "enrichment depth",
		VariantA: "2-hop enrichment", AccA: full,
		VariantB: "no enrichment", AccB: none,
	}, nil
}

// lpAccuracy runs the LP fold protocol on one TKG at the given depth.
func (c *Context) lpAccuracy(tkg *core.TKG, layers int) float64 {
	events := tkg.EventNodes()
	labels := make([]int, len(events))
	for i, ev := range events {
		labels[i] = tkg.G.Node(ev).Label
	}
	folds := ml.StratifiedKFold(c.rng(600), labels, c.Opts.Folds)
	csr := tkg.G.CSR()
	var accs []float64
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
		pred := labelprop.AttributeCSR(csr, seeds, queries, c.Classes, layers)
		accs = append(accs, ml.Accuracy(truth, pred))
	}
	return ml.Summarize(accs).Mean
}

// RunAblationEncoder compares trained autoencoders against random linear
// projections as the GNN's input encoders (§VI-C).
func RunAblationEncoder(ctx *Context) (*AblationRow, error) {
	trained, err := ctx.encoders()
	if err != nil {
		return nil, err
	}
	random := gnn.RandomEncodersOf[float64](ctx.TKG.G, ctx.TKG.Features, trained.Config)
	accT, err := ctx.gnnHoldoutAccuracy(trained, gnn.Config{})
	if err != nil {
		return nil, err
	}
	accR, err := ctx.gnnHoldoutAccuracy(random, gnn.Config{})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "input encoder",
		VariantA: "trained autoencoder", AccA: accT,
		VariantB: "random projection", AccB: accR,
	}, nil
}

// RunAblationL2Norm compares the Eq. 4 L2 normalisation on and off.
func RunAblationL2Norm(ctx *Context) (*AblationRow, error) {
	set, err := ctx.encoders()
	if err != nil {
		return nil, err
	}
	accOn, err := ctx.gnnHoldoutAccuracy(set, gnn.Config{})
	if err != nil {
		return nil, err
	}
	accOff, err := ctx.gnnHoldoutAccuracy(set, gnn.Config{NoL2: true})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "L2 normalisation (Eq. 4)",
		VariantA: "enabled", AccA: accOn,
		VariantB: "disabled", AccB: accOff,
	}, nil
}

// gnnHoldoutAccuracy trains a 2-layer GNN on an 80/20 split and returns
// holdout accuracy; overrides taken from tmpl (zero values ignored).
func (c *Context) gnnHoldoutAccuracy(set *gnn.EncoderSet, tmpl gnn.Config) (float64, error) {
	in := gnn.BuildInput(c.TKG.G, c.TKG.Features, set, c.Classes)
	events, labels := c.eventLabels()
	idx := c.rng(700).Perm(len(events))
	cut := len(events) * 4 / 5
	var train, test []graph.NodeID
	var yte []int
	visible := make(map[graph.NodeID]int)
	for i, j := range idx {
		if i < cut {
			train = append(train, events[j])
			visible[events[j]] = labels[j]
		} else {
			test = append(test, events[j])
			yte = append(yte, labels[j])
		}
	}
	cfg := gnn.Config{
		Layers: 2, Hidden: 48, Encoding: set.Config.Encoding,
		LR: 1e-2, Epochs: 60, Seed: c.Opts.Seed,
		NoL2: tmpl.NoL2,
	}
	if c.Opts.Fast {
		cfg.Hidden = 16
		cfg.Epochs = 10
	}
	model, err := gnn.TrainCtx(in, train, cfg, gnn.TrainOpts{})
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(yte, model.Predict(in, visible, test)), nil
}

// RunAblationSMOTE compares Table III URL attribution with and without
// SMOTE oversampling.
func RunAblationSMOTE(ctx *Context) (*AblationRow, error) {
	kinds := []graph.NodeKind{graph.KindURL}
	models := []ModelName{ModelXGB}
	withCfg := DefaultTableIIIConfig()
	withCfg.Kinds, withCfg.Models = kinds, models
	withoutCfg := withCfg
	withoutCfg.UseSMOTE = false
	with, err := RunTableIII(ctx, withCfg)
	if err != nil {
		return nil, err
	}
	without, err := RunTableIII(ctx, withoutCfg)
	if err != nil {
		return nil, err
	}
	cw := with.Cell(ModelXGB, graph.KindURL)
	cwo := without.Cell(ModelXGB, graph.KindURL)
	if cw == nil || cwo == nil {
		return nil, fmt.Errorf("eval: SMOTE ablation missing cells")
	}
	return &AblationRow{
		Name:     "SMOTE (URL, XGB, B-Acc)",
		VariantA: "with SMOTE", AccA: cw.BAcc.Mean,
		VariantB: "without SMOTE", AccB: cwo.BAcc.Mean,
	}, nil
}

// RunAblations runs the full ablation suite.
func RunAblations(ctx *Context) (*AblationResult, error) {
	res := &AblationResult{}
	for _, run := range []func(*Context) (*AblationRow, error){
		RunAblationEnrichmentDepth,
		RunAblationEncoder,
		RunAblationL2Norm,
		RunAblationSMOTE,
		RunAblationSAGEvsGCN,
	} {
		row, err := run(ctx)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}
