package eval

import (
	"fmt"
	"strings"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
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
	full := ctx.lpAccuracy(ctx.TKG)
	none := ctx.lpAccuracy(shallow)
	return &AblationRow{
		Name:     "enrichment depth",
		VariantA: "2-hop enrichment", AccA: full,
		VariantB: "no enrichment", AccB: none,
	}, nil
}

// lpAccuracy is the mean k-fold accuracy of LP 3L on one TKG.
func (c *Context) lpAccuracy(tkg *core.TKG) float64 {
	accs, _ := c.lpSplits(tkg, c.kfold(tkg, 600), 3)
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
	accT, err := ctx.gnnHoldoutAccuracy(trained, false)
	if err != nil {
		return nil, err
	}
	accR, err := ctx.gnnHoldoutAccuracy(random, false)
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
	accOn, err := ctx.gnnHoldoutAccuracy(set, false)
	if err != nil {
		return nil, err
	}
	accOff, err := ctx.gnnHoldoutAccuracy(set, true)
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "L2 normalisation (Eq. 4)",
		VariantA: "enabled", AccA: accOn,
		VariantB: "disabled", AccB: accOff,
	}, nil
}

// gnnHoldoutAccuracy trains a 2-layer GNN with 48 hidden units (16 in
// Fast mode) on the 80/20 holdout and returns its holdout accuracy;
// noL2 turns off the Eq. 4 normalisation.
func (c *Context) gnnHoldoutAccuracy(set *gnn.EncoderSet, noL2 bool) (float64, error) {
	in := gnn.BuildInput(c.TKG.G, c.TKG.Features, set, c.Classes)
	s := c.holdout(700)
	cfg := c.GNNConfig(2)
	if !c.Opts.Fast {
		cfg.Hidden = 48
	}
	cfg.NoL2 = noL2
	model, err := gnn.TrainCtx(in, s.train, cfg, gnn.TrainOpts{})
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(s.truth, model.Predict(in, s.seeds, s.queries)), nil
}

// RunAblationSAGEvsGCN compares the paper's GraphSAGE choice against the
// Eq. 2 GCN baseline on the same holdout split.
func RunAblationSAGEvsGCN(ctx *Context) (*AblationRow, error) {
	set, err := ctx.encoders()
	if err != nil {
		return nil, err
	}
	in := gnn.BuildInput(ctx.TKG.G, ctx.TKG.Features, set, ctx.Classes)
	s := ctx.holdout(900)
	cfg := ctx.GNNConfig(2)
	sage, err := gnn.TrainCtx(in, s.train, cfg, gnn.TrainOpts{})
	if err != nil {
		return nil, err
	}
	gc, err := gnn.TrainGCNCtx(in, s.train, cfg, gnn.TrainOpts{})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "SAGE vs GCN (Eq. 3 vs Eq. 2)",
		VariantA: "GraphSAGE", AccA: ml.Accuracy(s.truth, sage.Predict(in, s.seeds, s.queries)),
		VariantB: "GCN", AccB: ml.Accuracy(s.truth, gc.Predict(in, s.seeds, s.queries)),
	}, nil
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
