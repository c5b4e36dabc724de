package trail_test

// The benchmark harness: one bench per table and figure of the paper's
// evaluation, plus the ablation benches for the design choices DESIGN.md
// calls out. Each bench regenerates the corresponding result over the
// synthetic world and reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Heavier experiments run against a
// reduced ("fast") configuration so a full bench pass stays laptop-sized;
// `cmd/trail experiments` runs the full-fidelity versions.

import (
	"math/rand"
	"sync"
	"testing"

	"trail/internal/core"
	"trail/internal/eval"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/mat"
	"trail/internal/osint"
	"trail/internal/sparse"
)

var (
	benchOnce sync.Once
	benchCtx  *eval.Context // default-scale world, for graph-only benches
	fastOnce  sync.Once
	fastCtx   *eval.Context // small world + fast models, for ML benches
)

func defaultCtx(b *testing.B) *eval.Context {
	b.Helper()
	benchOnce.Do(func() {
		ctx, err := eval.NewContext(eval.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchCtx = ctx
	})
	return benchCtx
}

func fastContext(b *testing.B) *eval.Context {
	b.Helper()
	fastOnce.Do(func() {
		ctx, err := eval.NewContext(eval.TestOptions())
		if err != nil {
			b.Fatal(err)
		}
		fastCtx = ctx
	})
	return fastCtx
}

// BenchmarkTableII_BuildTKG measures the full pipeline behind Table II:
// world generation, collection, 2-hop enrichment and graph merge.
func BenchmarkTableII_BuildTKG(b *testing.B) {
	b.ReportAllocs()
	cfg := osint.DefaultConfig()
	for i := 0; i < b.N; i++ {
		w := osint.NewWorld(cfg)
		tkg := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
		if _, err := tkg.Build(w.Pulses()); err != nil {
			b.Fatal(err)
		}
		rep := tkg.Stats()
		b.ReportMetric(float64(rep.Total.Nodes), "nodes")
		b.ReportMetric(float64(rep.Total.Edges)/2, "edges")
	}
}

// BenchmarkFigure4_ReuseHistogram regenerates the IOC reuse distribution.
func BenchmarkFigure4_ReuseHistogram(b *testing.B) {
	b.ReportAllocs()
	ctx := defaultCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunFigure4(ctx)
		b.ReportMetric(res.SingleUseFraction(graph.KindDomain), "single-use-frac")
	}
}

// BenchmarkGraphStats_Connectivity regenerates the §IV/§V structure
// numbers: components, diameter, event proximity.
func BenchmarkGraphStats_Connectivity(b *testing.B) {
	b.ReportAllocs()
	ctx := defaultCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunGraphStats(ctx)
		b.ReportMetric(res.Stats.EventsWithin2HopsPct, "events-2hop-pct")
		b.ReportMetric(float64(res.Stats.Diameter), "diameter")
	}
}

// BenchmarkTableIII_IOCAttribution regenerates one Table III cell per
// model on the URL feature matrix (the paper's strongest per-IOC signal).
func BenchmarkTableIII_IOCAttribution(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	cfg := eval.DefaultTableIIIConfig()
	cfg.Kinds = []graph.NodeKind{graph.KindURL}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunTableIII(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cell := res.Cell(eval.ModelXGB, graph.KindURL); cell != nil {
			b.ReportMetric(cell.Acc.Mean, "xgb-url-acc")
		}
	}
}

// BenchmarkTableIV_EventAttribution regenerates the Table IV roster:
// traditional ML mode voting, LP 2-4L, GNN 2-4L.
func BenchmarkTableIV_EventAttribution(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	cfg := eval.DefaultTableIVConfig()
	cfg.Models = []eval.ModelName{eval.ModelRF}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunTableIV(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Row("LP 4L"); row != nil {
			b.ReportMetric(row.Acc.Mean, "lp4-acc")
		}
		if row := res.Row("GNN 2L"); row != nil {
			b.ReportMetric(row.Acc.Mean, "gnn2-acc")
		}
	}
}

// BenchmarkCaseStudy_NewEvent regenerates the Figs. 5-6 case study:
// merge, enrich and attribute a post-cutoff event.
func BenchmarkCaseStudy_NewEvent(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunCaseStudy(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GNNConfVisible, "gnn-conf-visible")
	}
}

// BenchmarkFigure7_MonthlyConfusion regenerates the unseen-month
// confusion matrix.
func BenchmarkFigure7_MonthlyConfusion(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy, "acc")
	}
}

// BenchmarkFigure8_Drift regenerates the frozen-vs-retrained drift study.
func BenchmarkFigure8_Drift(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanGapLastMonths(2), "retrain-gap")
	}
}

// BenchmarkFigure9_SHAP regenerates the SHAP feature ranking for the XGB
// URL classifier.
func BenchmarkFigure9_SHAP(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure9(ctx, "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Impacts[0].MeanAbs, "top-mean-abs-shap")
	}
}

// BenchmarkFigure10_GNNExplainer regenerates the explanation subgraph for
// one event.
func BenchmarkFigure10_GNNExplainer(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure10(ctx, "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.TopNodes)), "top-nodes")
	}
}

// BenchmarkTKGScale_Build stresses the graph substrate at 4x the default
// world scale (comparable event count to the paper's 4,512), reporting
// throughput in nodes and edges.
func BenchmarkTKGScale_Build(b *testing.B) {
	b.ReportAllocs()
	cfg := osint.DefaultConfig()
	cfg.Months = 48
	cfg.EventsPerMonth = 90
	for i := 0; i < b.N; i++ {
		w := osint.NewWorld(cfg)
		tkg := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
		if _, err := tkg.Build(w.Pulses()); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tkg.EventNodes())), "events")
		b.ReportMetric(float64(tkg.G.NumNodes()), "nodes")
	}
}

// BenchmarkLabelPropagationScale measures LP 4L on the large graph — the
// traversal hot path of the production attribution flow.
func BenchmarkLabelPropagationScale(b *testing.B) {
	b.ReportAllocs()
	cfg := osint.DefaultConfig()
	cfg.Months = 48
	cfg.EventsPerMonth = 90
	w := osint.NewWorld(cfg)
	tkg := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
	if _, err := tkg.Build(w.Pulses()); err != nil {
		b.Fatal(err)
	}
	csr := tkg.G.CSR()
	events := tkg.EventNodes()
	seeds := make(map[graph.NodeID]int, len(events))
	for _, ev := range events[:len(events)/2] {
		seeds[ev] = tkg.G.Node(ev).Label
	}
	queries := events[len(events)/2:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := labelprop.AttributeCSR(csr, seeds, queries, 22, 4)
		b.ReportMetric(float64(len(preds)), "attributed")
	}
}

// --- kernel microbenches (internal/sparse + internal/mat) --------------------

// BenchmarkMatMul measures the dense GEMM hot path shared by every model
// (layer forward/backward), at a shape typical of SAGE hidden layers on
// the default world.
func BenchmarkMatMul(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	a := mat.RandNormalOf[float64](rng, 4096, 64, 0, 1)
	w := mat.RandNormalOf[float64](rng, 64, 64, 0, 1)
	dst := mat.NewOf[float64](4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulInto(dst, a, w)
	}
	b.SetBytes(int64(8 * 4096 * 64))
}

// BenchmarkSpMM measures the sparse aggregation kernel on a graph of
// roughly the default world's size and density (mean-normalised
// neighbour aggregation over 64-dim features).
func BenchmarkSpMM(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	const n, edges = 20000, 80000
	adj := make([][]graph.NodeID, n)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], graph.NodeID(v))
		adj[v] = append(adj[v], graph.NodeID(u))
	}
	s := sparse.FromAdj(adj).MeanNormalized()
	x := mat.RandNormalOf[float64](rng, n, 64, 0, 1)
	dst := mat.NewOf[float64](n, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMMInto(dst, x)
	}
	b.ReportMetric(float64(s.NNZ()), "nnz")
}

// --- ablation benches (DESIGN.md §5) -----------------------------------------

// BenchmarkAblation_EnrichmentDepth compares LP 3L with and without the
// secondary-IOC enrichment.
func BenchmarkAblation_EnrichmentDepth(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := eval.RunAblationEnrichmentDepth(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.AccA-row.AccB, "enrichment-gain")
	}
}

// BenchmarkAblation_EncoderType compares trained autoencoders against
// random projections as GNN input encoders.
func BenchmarkAblation_EncoderType(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := eval.RunAblationEncoder(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.AccA-row.AccB, "ae-gain")
	}
}

// BenchmarkAblation_L2Norm compares Eq. 4 normalisation on and off.
func BenchmarkAblation_L2Norm(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := eval.RunAblationL2Norm(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.AccA-row.AccB, "l2-gain")
	}
}

// BenchmarkAblation_SMOTE compares Table III balanced accuracy with and
// without SMOTE oversampling.
func BenchmarkAblation_SMOTE(b *testing.B) {
	b.ReportAllocs()
	ctx := fastContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := eval.RunAblationSMOTE(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.AccA-row.AccB, "smote-gain")
	}
}

// BenchmarkFigure3_EgoNet regenerates the enriched ego-net census.
func BenchmarkFigure3_EgoNet(b *testing.B) {
	b.ReportAllocs()
	ctx := defaultCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure3(ctx, "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalIOCs), "ego-iocs")
	}
}
