package gnn

import (
	"context"
	"fmt"
	"maps"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
	"trail/internal/sparse"
)

// EncoderSetOf bundles the three per-IOC-type autoencoders of §VI-C at
// element type T, each paired with the standard scaler fitted on its
// kind's feature matrix (autoencoding unscaled features lets
// large-magnitude lexical dimensions dominate the reconstruction loss
// and wrecks the code space). Scalers always operate in float64 — the
// engineered features are float64 and scaling is a cheap one-shot pass;
// only the autoencoder weights and codes carry T.
type EncoderSetOf[T mat.Float] struct {
	Config  AEConfig
	AEs     map[graph.NodeKind]*AutoencoderOf[T]
	Scalers map[graph.NodeKind]*ml.StandardScaler
}

// EncoderSet is the float64 reference instantiation of EncoderSetOf.
type EncoderSet = EncoderSetOf[float64]

// EncoderTrainOptsOf carries the crash-safety knobs for TrainEncodersCtx.
// Checkpointing is kind-granular: each IOC kind's autoencoder trains from
// its own seed (cfg.Seed + kind), so skipping already-trained kinds on
// resume reproduces the uninterrupted set bit for bit.
type EncoderTrainOptsOf[T mat.Float] struct {
	// Checkpoint, when non-nil, receives the partial set after each kind
	// finishes training.
	Checkpoint func(partial *EncoderSetOf[T]) error
	// Resume supplies a previously checkpointed (possibly partial) set;
	// kinds already present are not retrained.
	Resume *EncoderSetOf[T]
}

// EncoderTrainOpts is the float64 reference instantiation of
// EncoderTrainOptsOf.
type EncoderTrainOpts = EncoderTrainOptsOf[float64]

// TrainEncodersCtx fits one autoencoder per IOC kind present in feats and
// returns the set, with cooperative cancellation and kind-granular
// checkpoint/resume. feats maps node IDs to raw engineered vectors.
func TrainEncodersCtx[T mat.Float](ctx context.Context, g *graph.Graph, feats map[graph.NodeID][]float64, cfg AEConfig, opts EncoderTrainOptsOf[T]) (*EncoderSetOf[T], error) {
	set := newEncoderSet[T](cfg)
	if opts.Resume != nil {
		maps.Copy(set.AEs, opts.Resume.AEs)
		maps.Copy(set.Scalers, opts.Resume.Scalers)
	}
	err := set.addKinds(g, feats, opts.Checkpoint, func(kind graph.NodeKind, ae *AutoencoderOf[T], X *mat.Matrix, sc *ml.StandardScaler) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ae.FitCtx(ctx, mat.Cast[T](sc.Transform(X))); err != nil {
			return fmt.Errorf("gnn: train %s encoder: %w", kind, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// RandomEncodersOf builds an EncoderSet whose autoencoders are randomly
// initialised but never trained: the linear-projection baseline for the
// encoder-type ablation. Scalers are still fitted so the comparison
// isolates the reconstruction training itself.
func RandomEncodersOf[T mat.Float](g *graph.Graph, feats map[graph.NodeID][]float64, cfg AEConfig) *EncoderSetOf[T] {
	set := newEncoderSet[T](cfg)
	// No checkpoint and an init that cannot fail: addKinds returns nil.
	_ = set.addKinds(g, feats, nil, func(_ graph.NodeKind, ae *AutoencoderOf[T], X *mat.Matrix, _ *ml.StandardScaler) error {
		ae.InitRandom(X.Cols)
		return nil
	})
	return set
}

func newEncoderSet[T mat.Float](cfg AEConfig) *EncoderSetOf[T] {
	return &EncoderSetOf[T]{
		Config:  cfg,
		AEs:     make(map[graph.NodeKind]*AutoencoderOf[T]),
		Scalers: make(map[graph.NodeKind]*ml.StandardScaler),
	}
}

// addKinds is the per-kind loop behind TrainEncodersCtx and
// RandomEncodersOf. For each IOC kind not yet in s that has featurised
// nodes it collects the kind's raw rows, fits their scaler, and hands
// init an untrained autoencoder seeded with Config.Seed + kind. Once
// init succeeds the pair joins s and checkpoint (when non-nil) sees the
// grown set. Per-kind seeding is what makes skipping already-present
// kinds on resume bit-identical to an uninterrupted run.
func (s *EncoderSetOf[T]) addKinds(g *graph.Graph, feats map[graph.NodeID][]float64, checkpoint func(*EncoderSetOf[T]) error,
	init func(kind graph.NodeKind, ae *AutoencoderOf[T], X *mat.Matrix, sc *ml.StandardScaler) error) error {
	for _, kind := range []graph.NodeKind{graph.KindIP, graph.KindURL, graph.KindDomain} {
		if _, done := s.AEs[kind]; done {
			continue
		}
		var rows [][]float64
		g.ForEachNode(func(n graph.Node) {
			if n.Kind == kind {
				if v, ok := feats[n.ID]; ok {
					rows = append(rows, v)
				}
			}
		})
		if len(rows) == 0 {
			continue
		}
		X := mat.FromRows(rows)
		sc := ml.FitScaler(X)
		aeCfg := s.Config
		aeCfg.Seed += int64(kind)
		ae := NewAutoencoderOf[T](aeCfg)
		if err := init(kind, ae, X, sc); err != nil {
			return err
		}
		s.AEs[kind] = ae
		s.Scalers[kind] = sc
		if checkpoint != nil {
			if err := checkpoint(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeGraph produces the SAGE input matrix: one encoded row per node
// (zero rows for events, ASNs and unfeaturised IOCs).
func (s *EncoderSetOf[T]) EncodeGraph(g *graph.Graph, feats map[graph.NodeID][]float64) *mat.Dense[T] {
	enc := mat.NewOf[T](g.NumNodes(), s.Config.Encoding)
	// Batch per kind for cache-friendly encoding.
	for kind, ae := range s.AEs {
		var ids []graph.NodeID
		var rows [][]float64
		g.ForEachNode(func(n graph.Node) {
			if n.Kind == kind {
				if v, ok := feats[n.ID]; ok {
					ids = append(ids, n.ID)
					rows = append(rows, v)
				}
			}
		})
		if len(ids) == 0 {
			continue
		}
		codes := ae.Encode(mat.Cast[T](s.Scalers[kind].Transform(mat.FromRows(rows))))
		for i, id := range ids {
			copy(enc.Row(int(id)), codes.Row(i))
		}
	}
	return enc
}

// BuildInput assembles the full Input for a graph: encoded features,
// event flags and labels. The element type follows the encoder set's; at
// float64 the CSR snapshot (and its cached operators) is shared with the
// graph, at float32 the values are converted once.
func BuildInput[T mat.Float](g *graph.Graph, feats map[graph.NodeID][]float64, set *EncoderSetOf[T], classes int) InputOf[T] {
	n := g.NumNodes()
	in := InputOf[T]{
		CSR:     sparse.Cast[T](g.CSR()),
		Enc:     set.EncodeGraph(g, feats),
		IsEvent: make([]bool, n),
		Labels:  make([]int, n),
		Classes: classes,
	}
	for i := range in.Labels {
		in.Labels[i] = -1
	}
	g.ForEachNode(func(nd graph.Node) {
		if nd.Kind == graph.KindEvent {
			in.IsEvent[nd.ID] = true
			in.Labels[nd.ID] = nd.Label
		}
	})
	return in
}
