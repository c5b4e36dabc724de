// Package serve implements attribution-as-a-service: a long-running HTTP
// daemon that loads a checkpointed model + TKG snapshot and answers
// "attribute this event/IOC" queries at production concurrency.
//
// The design (DESIGN.md §3g) rests on three pieces:
//
//   - Snapshot isolation: every query reads an immutable Snapshot — a
//     frozen graph, encoded features, and a trained model — held behind
//     an atomic pointer. Reloads build the next snapshot off to the side
//     and swap the pointer; in-flight requests keep the epoch they
//     started on, so answers within one epoch are bit-identical and a
//     swap can never tear a read.
//
//   - Request batching: concurrent attribute requests coalesce in a
//     queue and share one full-graph forward pass
//     (gnn.PredictProbaInto), amortising the pooled workspaces and fused
//     SpMM kernels across the batch; softmax rows are demuxed back to
//     each caller.
//
//   - Operational hardening: graceful drain on shutdown, per-request
//     timeouts, request-size limits, structured JSON errors, and
//     Prometheus-text metrics from internal/metrics.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"trail/internal/apt"
	"trail/internal/ckpt"
	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/osint"
)

// Artefact filenames inside a training directory (`trail train -dir`).
const (
	TKGFile      = "tkg.ck"       // TKG snapshot (graph + features), ckpt envelope
	EncodersFile = "encoders.ck"  // per-IOC-kind autoencoder set
	ModelFile    = "model.ck"     // float64 GraphSAGE model
	ModelF32File = "model.f32.ck" // float32 serving model (preferred when present)
)

// Snapshot is one immutable serving state: the frozen graph, the encoded
// input tensors, the trained model, and the label context. All fields
// are read-only after construction; the server publishes snapshots via
// an atomic pointer and never mutates an installed one.
type Snapshot struct {
	// Epoch numbers the snapshot within the serving process (assigned at
	// install time, monotonically increasing across reloads). Answers are
	// bit-identical within one epoch.
	Epoch uint64
	// Precision reports the model element type: "float32" or "float64".
	Precision string
	// Names maps class index to APT name.
	Names []string
	// LoadedAt is the install time (zero until installed).
	LoadedAt time.Time

	// Inventory, for /v1/stats.
	NumNodes, NumEdges, NumEvents, NumLabeled int

	g   *graph.Graph
	eng engine
}

// engine is the precision-erased inference core of a snapshot: the
// generic model/input pair behind a monomorphic call surface, so the
// batcher and HTTP layer never carry a type parameter.
type engine interface {
	classes() int
	// attribute runs one batched forward pass and writes one probability
	// row (len == classes) per query into out.
	attribute(queries []graph.NodeID, out [][]float64)
}

type engineOf[T mat.Float] struct {
	model   *gnn.ModelOf[T]
	in      gnn.InputOf[T]
	visible map[graph.NodeID]int
}

func (e *engineOf[T]) classes() int { return e.model.Classes() }

func (e *engineOf[T]) attribute(queries []graph.NodeID, out [][]float64) {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	dst := mat.NewOf[T](len(queries), e.model.Classes())
	e.model.PredictProbaInto(dst, e.in, e.visible, queries, ws)
	for i := range queries {
		row := dst.Row(i)
		for j, v := range row {
			out[i][j] = float64(v)
		}
	}
}

func precisionOf[T mat.Float]() string {
	switch any(T(0)).(type) {
	case float32:
		return "float32"
	case float64:
		return "float64"
	default:
		return "custom"
	}
}

// NewSnapshot assembles a serving snapshot from a built TKG graph, its
// feature vectors, the APT roster, a trained encoder set and a trained
// model of any precision. The visible-label context is fixed here — every
// labelled event in the graph — so an answer depends only on the snapshot
// and the queried node, never on what else happens to share its batch.
// The construction runs one warm-up query to prime the lazy CSR operator
// caches (mean normalisation, degree reordering) and to verify the
// model/input shapes agree before the snapshot starts serving.
func NewSnapshot[T mat.Float](g *graph.Graph, feats map[graph.NodeID][]float64, names []string, enc *gnn.EncoderSet, model *gnn.ModelOf[T]) (*Snapshot, error) {
	if model.Classes() != len(names) {
		return nil, fmt.Errorf("serve: model predicts %d classes, roster has %d", model.Classes(), len(names))
	}
	in := gnn.CastInput[T](gnn.BuildInput(g, feats, enc, len(names)))
	events := g.NodesOfKind(graph.KindEvent)
	visible := make(map[graph.NodeID]int, len(events))
	for _, ev := range events {
		if l := g.Node(ev).Label; l >= 0 {
			visible[ev] = l
		}
	}
	snap := &Snapshot{
		Precision:  precisionOf[T](),
		Names:      append([]string(nil), names...),
		NumNodes:   g.NumNodes(),
		NumEdges:   g.NumEdges(),
		NumEvents:  len(events),
		NumLabeled: len(visible),
		g:          g,
		eng:        &engineOf[T]{model: model, in: in, visible: visible},
	}
	if len(events) > 0 {
		warm := [][]float64{make([]float64, len(names))}
		snap.eng.attribute(events[:1], warm)
	}
	return snap, nil
}

// Classes returns the number of APT classes the snapshot predicts over.
func (s *Snapshot) Classes() int { return s.eng.classes() }

// Lookup resolves a (kind, key) pair against the snapshot's frozen graph.
func (s *Snapshot) Lookup(kind graph.NodeKind, key string) (graph.NodeID, bool) {
	return s.g.Lookup(kind, key)
}

// SampleKeys returns up to limit node keys of the given kind, in ID
// order — the seed corpus for load generators.
func (s *Snapshot) SampleKeys(kind graph.NodeKind, limit int) []string {
	ids := s.g.NodesOfKind(kind)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = s.g.Node(id).Key
	}
	return keys
}

// Attribute answers queries directly against this snapshot, bypassing
// the batching queue — the entry used by warm-up, tests and the
// benchmarks. out must have one len==Classes() row per query.
func (s *Snapshot) Attribute(queries []graph.NodeID, out [][]float64) {
	s.eng.attribute(queries, out)
}

// Loader produces a fresh Snapshot. The server calls it once at startup
// and once per reload; each call must return independent state (the
// returned snapshot is installed and must never be mutated afterwards).
type Loader func() (*Snapshot, error)

// DirLoader returns a Loader over a `trail train` checkpoint directory:
// tkg.ck (graph + features), plus the encoders and model that
// LoadModelDir picks. The enrichment services and APT resolver reattach
// the TKG exactly as core.LoadTKG requires; logf (optional) receives
// progress notices.
func DirLoader(dir string, svc osint.Services, resolver *apt.Resolver, logf func(format string, args ...any)) Loader {
	return func() (*Snapshot, error) {
		tkg, err := core.LoadTKG(filepath.Join(dir, TKGFile), svc, resolver)
		if err != nil {
			return nil, fmt.Errorf("serve: load TKG: %w", err)
		}
		build, err := LoadModelDir(dir, resolver.Names(), logf)
		if err != nil {
			return nil, err
		}
		return build(tkg.G, tkg.Features)
	}
}

// LoadModelDir loads the artefacts of a `trail train` directory that stay
// fixed from one snapshot to the next — encoders.ck and the model — and
// returns a builder of snapshots over any graph and feature set. It is
// the one place that picks the serving precision: a float32 checkpoint
// (model.f32.ck) is preferred when present — the ROADMAP item-5 default —
// otherwise the float64 model.ck is served with a logged notice. logf
// (optional) receives those notices.
func LoadModelDir(dir string, names []string, logf func(format string, args ...any)) (func(*graph.Graph, map[graph.NodeID][]float64) (*Snapshot, error), error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	enc, err := gnn.LoadEncoders(filepath.Join(dir, EncodersFile))
	if err != nil {
		return nil, fmt.Errorf("serve: load encoders (run `trail train -dir %s` first): %w", dir, err)
	}
	f32Path := filepath.Join(dir, ModelF32File)
	if info, err := ckpt.Peek(f32Path); err == nil {
		model, err := gnn.LoadModelOf[float32](f32Path)
		if err != nil {
			return nil, fmt.Errorf("serve: load float32 model: %w", err)
		}
		logf("serve: loaded float32 model %s (kind %s v%d, %d payload bytes)",
			ModelF32File, info.Kind, info.Version, info.Length)
		return snapshotsOf(names, enc, model), nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("serve: inspect %s: %w", f32Path, err)
	}
	model, err := gnn.LoadModel(filepath.Join(dir, ModelFile))
	if err != nil {
		return nil, fmt.Errorf("serve: load model (run `trail train -dir %s` first): %w", dir, err)
	}
	logf("serve: no %s in %s — serving at float64 (run `trail train -f32` to emit a float32 serving checkpoint)",
		ModelF32File, dir)
	return snapshotsOf(names, enc, model), nil
}

func snapshotsOf[T mat.Float](names []string, enc *gnn.EncoderSet, model *gnn.ModelOf[T]) func(*graph.Graph, map[graph.NodeID][]float64) (*Snapshot, error) {
	return func(g *graph.Graph, feats map[graph.NodeID][]float64) (*Snapshot, error) {
		return NewSnapshot(g, feats, names, enc, model)
	}
}

// ParseKind maps the wire names of the attribute API to node kinds.
func ParseKind(s string) (graph.NodeKind, bool) {
	switch s {
	case "event":
		return graph.KindEvent, true
	case "ip":
		return graph.KindIP, true
	case "url":
		return graph.KindURL, true
	case "domain":
		return graph.KindDomain, true
	case "asn":
		return graph.KindASN, true
	default:
		return 0, false
	}
}

// KindName is the inverse of ParseKind.
func KindName(k graph.NodeKind) string {
	switch k {
	case graph.KindEvent:
		return "event"
	case graph.KindIP:
		return "ip"
	case graph.KindURL:
		return "url"
	case graph.KindDomain:
		return "domain"
	case graph.KindASN:
		return "asn"
	default:
		return "unknown"
	}
}
