package gnn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"trail/internal/ckpt"
	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
)

// Checkpoint kinds and payload versions for the gnn artefacts. Bump a
// version when its wire struct changes shape; ckpt.Load then rejects old
// files with a typed *ckpt.VersionError instead of misdecoding them.
//
// The element type is part of a checkpoint's identity: float64 models
// persist under the bare kinds below (wire-compatible with pre-generic
// checkpoints), while float32 models get a ".f32" dtype suffix on the
// kind (see kindFor). Loading a float32 checkpoint through a float64
// loader — or vice versa — therefore fails with a typed
// *ckpt.KindError instead of silently reinterpreting weights.
const (
	KindSAGE     = "gnn.sage"
	KindEncoders = "gnn.encoders"
	KindTrain    = "gnn.train"

	VersionSAGE     uint32 = 1
	VersionEncoders uint32 = 1
	VersionTrain    uint32 = 1
)

// kindFor returns the envelope kind string for a checkpoint of element
// type T: the bare kind at float64 (back-compatible), a ".f32"-suffixed
// kind at float32. Exotic named Float types are not persistable and keep
// an explicit marker so they can never collide with the canonical kinds.
func kindFor[T mat.Float](base string) string {
	switch any(T(0)).(type) {
	case float64:
		return base
	case float32:
		return base + ".f32"
	default:
		return base + ".custom"
	}
}

// --- wire structs ------------------------------------------------------------
//
// The models keep weights in unexported fields (they are not part of the
// training API), so gob needs explicit encoders. Only weights travel;
// gradient accumulators are rebuilt zeroed on decode. The wire structs
// are generic: gob matches fields by name, so the float64 instantiation
// stays decode-compatible with pre-generic payloads.

type linearWire[T mat.Float] struct {
	W, B *mat.Dense[T]
}

func wireLinear[T mat.Float](l *linear[T]) linearWire[T] {
	return linearWire[T]{W: l.w.W, B: l.b.W}
}

// reviveLayers rebuilds a chain of layers, each consuming the previous
// one's output width, that maps width in to width out. A missing or
// mis-sized W or B is an error, so a corrupt payload can neither panic
// the decoder nor hand a kernel inconsistent shapes.
func reviveLayers[T mat.Float](in, out int, ws ...linearWire[T]) ([]*linear[T], error) {
	ls := make([]*linear[T], len(ws))
	for i, w := range ws {
		if w.W == nil {
			return nil, fmt.Errorf("linear %d: W missing", i)
		}
		if err := errors.Join(checkShape(w.W, in, w.W.Cols), checkShape(w.B, 1, w.W.Cols)); err != nil {
			return nil, fmt.Errorf("linear %d: %w", i, err)
		}
		in = w.W.Cols
		ls[i] = &linear[T]{
			w: &ml.ParamOf[T]{W: w.W, G: mat.NewOf[T](w.W.Rows, w.W.Cols)},
			b: &ml.ParamOf[T]{W: w.B, G: mat.NewOf[T](w.B.Rows, w.B.Cols)},
		}
	}
	if in != out {
		return nil, fmt.Errorf("layers end at width %d, want %d", in, out)
	}
	return ls, nil
}

// checkShape rejects a missing matrix and one that is not rows x cols
// with exactly rows*cols elements (checked by division, so huge
// dimensions cannot overflow into a match).
func checkShape[T mat.Float](d *mat.Dense[T], rows, cols int) error {
	if d == nil {
		return errors.New("matrix missing")
	}
	if n := len(d.Data); d.Rows != rows || d.Cols != cols || rows < 0 || cols < 0 ||
		(cols == 0 && n != 0) || (cols > 0 && (n%cols != 0 || n/cols != rows)) {
		return fmt.Errorf("%dx%d matrix with %d elements, want %dx%d", d.Rows, d.Cols, n, rows, cols)
	}
	return nil
}

type modelWire[T mat.Float] struct {
	Config   Config
	Classes  int
	LabelEmb linearWire[T]
	Layers   []linearWire[T]
	SelfW    []*mat.Dense[T]
}

// GobEncode implements gob.GobEncoder for the GraphSAGE model.
func (m *ModelOf[T]) GobEncode() ([]byte, error) {
	w := modelWire[T]{Config: m.Config, Classes: m.classes, LabelEmb: wireLinear(m.labelEmb)}
	for i, l := range m.layers {
		w.Layers = append(w.Layers, wireLinear(l))
		w.SelfW = append(w.SelfW, m.selfW[i].W)
	}
	return gobBytes(w)
}

// GobDecode implements gob.GobDecoder for the GraphSAGE model.
func (m *ModelOf[T]) GobDecode(b []byte) error {
	var w modelWire[T]
	if err := gobValue(b, &w); err != nil {
		return err
	}
	if len(w.Layers) == 0 || len(w.Layers) != len(w.SelfW) {
		return fmt.Errorf("gnn: malformed SAGE checkpoint payload: %d layers, %d self weights", len(w.Layers), len(w.SelfW))
	}
	// The label embedding maps classes to the input width; the layers map
	// that back to class logits.
	ls, err := reviveLayers(w.Classes, w.Classes, append([]linearWire[T]{w.LabelEmb}, w.Layers...)...)
	if err != nil {
		return fmt.Errorf("gnn: malformed SAGE checkpoint payload: %w", err)
	}
	selfW := make([]*ml.ParamOf[T], len(w.SelfW))
	for i, sw := range w.SelfW {
		if err := checkShape(sw, ls[i+1].w.W.Rows, ls[i+1].w.W.Cols); err != nil {
			return fmt.Errorf("gnn: malformed SAGE checkpoint payload: self weight %d: %w", i, err)
		}
		selfW[i] = &ml.ParamOf[T]{W: sw, G: mat.NewOf[T](sw.Rows, sw.Cols)}
	}
	m.Config, m.classes = w.Config, w.Classes
	m.labelEmb, m.layers, m.selfW = ls[0], ls[1:], selfW
	return nil
}

type gcnWire[T mat.Float] struct {
	Config   Config
	Classes  int
	LabelEmb linearWire[T]
	Layers   []linearWire[T]
}

// GobEncode implements gob.GobEncoder for the GCN baseline.
func (g *GCNOf[T]) GobEncode() ([]byte, error) {
	w := gcnWire[T]{Config: g.Config, Classes: g.classes, LabelEmb: wireLinear(g.labelEmb)}
	for _, l := range g.layers {
		w.Layers = append(w.Layers, wireLinear(l))
	}
	return gobBytes(w)
}

// GobDecode implements gob.GobDecoder for the GCN baseline.
func (g *GCNOf[T]) GobDecode(b []byte) error {
	var w gcnWire[T]
	if err := gobValue(b, &w); err != nil {
		return err
	}
	if len(w.Layers) == 0 {
		return errors.New("gnn: malformed GCN checkpoint payload: no layers")
	}
	ls, err := reviveLayers(w.Classes, w.Classes, append([]linearWire[T]{w.LabelEmb}, w.Layers...)...)
	if err != nil {
		return fmt.Errorf("gnn: malformed GCN checkpoint payload: %w", err)
	}
	g.Config, g.classes = w.Config, w.Classes
	g.labelEmb, g.layers = ls[0], ls[1:]
	return nil
}

type aeWire[T mat.Float] struct {
	Config                 AEConfig
	InDim                  int
	Trained                bool
	Enc1, Enc2, Dec1, Dec2 linearWire[T]
}

// GobEncode implements gob.GobEncoder for an autoencoder (trained or
// merely initialised; a never-initialised one round-trips as such).
func (a *AutoencoderOf[T]) GobEncode() ([]byte, error) {
	w := aeWire[T]{Config: a.Config, InDim: a.inDim, Trained: a.enc1 != nil}
	if w.Trained {
		w.Enc1, w.Enc2 = wireLinear(a.enc1), wireLinear(a.enc2)
		w.Dec1, w.Dec2 = wireLinear(a.dec1), wireLinear(a.dec2)
	}
	return gobBytes(w)
}

// GobDecode implements gob.GobDecoder for an autoencoder.
func (a *AutoencoderOf[T]) GobDecode(b []byte) error {
	var w aeWire[T]
	if err := gobValue(b, &w); err != nil {
		return err
	}
	a.Config, a.inDim = w.Config, w.InDim
	a.enc1, a.enc2, a.dec1, a.dec2 = nil, nil, nil, nil
	if w.Trained {
		// enc1 → enc2 → dec1 → dec2 maps InDim back to InDim.
		ls, err := reviveLayers(w.InDim, w.InDim, w.Enc1, w.Enc2, w.Dec1, w.Dec2)
		if err != nil {
			return fmt.Errorf("gnn: malformed autoencoder checkpoint payload: %w", err)
		}
		a.enc1, a.enc2, a.dec1, a.dec2 = ls[0], ls[1], ls[2], ls[3]
	}
	return nil
}

type encoderSetWire[T mat.Float] struct {
	Config  AEConfig
	Kinds   []graph.NodeKind
	AEs     []*AutoencoderOf[T]
	Scalers []*ml.StandardScaler
}

// GobEncode implements gob.GobEncoder for an encoder set. Kinds are
// serialised in sorted order so the payload bytes are deterministic
// (gob's native map encoding follows Go's randomised iteration order).
func (s *EncoderSetOf[T]) GobEncode() ([]byte, error) {
	w := encoderSetWire[T]{Config: s.Config}
	for kind := range s.AEs {
		w.Kinds = append(w.Kinds, kind)
	}
	sort.Slice(w.Kinds, func(i, j int) bool { return w.Kinds[i] < w.Kinds[j] })
	for _, kind := range w.Kinds {
		w.AEs = append(w.AEs, s.AEs[kind])
		w.Scalers = append(w.Scalers, s.Scalers[kind])
	}
	return gobBytes(w)
}

// GobDecode implements gob.GobDecoder for an encoder set.
func (s *EncoderSetOf[T]) GobDecode(b []byte) error {
	var w encoderSetWire[T]
	if err := gobValue(b, &w); err != nil {
		return err
	}
	if len(w.Kinds) != len(w.AEs) || len(w.Kinds) != len(w.Scalers) {
		return errors.New("gnn: malformed encoder-set checkpoint payload")
	}
	s.Config = w.Config
	s.AEs = make(map[graph.NodeKind]*AutoencoderOf[T], len(w.Kinds))
	s.Scalers = make(map[graph.NodeKind]*ml.StandardScaler, len(w.Kinds))
	for i, kind := range w.Kinds {
		s.AEs[kind] = w.AEs[i]
		s.Scalers[kind] = w.Scalers[i]
	}
	return nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobValue(b []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(out)
}

// --- file-level save/load over the checksummed envelope ----------------------

// SaveModel atomically writes a SAGE model checkpoint. The envelope kind
// carries the model's element type, so a float32 model round-trips
// through its own kind and can never be confused with a float64 one.
func SaveModel[T mat.Float](path string, m *ModelOf[T]) error {
	return ckpt.SaveGob(path, kindFor[T](KindSAGE), VersionSAGE, m)
}

// LoadModel reads a float64 SAGE model checkpoint, verifying kind,
// version and payload integrity.
func LoadModel(path string) (*Model, error) { return LoadModelOf[float64](path) }

// LoadModelOf reads a SAGE model checkpoint at element type T.
func LoadModelOf[T mat.Float](path string) (*ModelOf[T], error) {
	m := &ModelOf[T]{}
	if err := ckpt.LoadGob(path, kindFor[T](KindSAGE), VersionSAGE, m); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveEncoders atomically writes an (optionally partial) encoder set.
func SaveEncoders[T mat.Float](path string, s *EncoderSetOf[T]) error {
	return ckpt.SaveGob(path, kindFor[T](KindEncoders), VersionEncoders, s)
}

// LoadEncoders reads a float64 encoder-set checkpoint.
func LoadEncoders(path string) (*EncoderSet, error) { return LoadEncodersOf[float64](path) }

// LoadEncodersOf reads an encoder-set checkpoint at element type T.
func LoadEncodersOf[T mat.Float](path string) (*EncoderSetOf[T], error) {
	s := &EncoderSetOf[T]{}
	if err := ckpt.LoadGob(path, kindFor[T](KindEncoders), VersionEncoders, s); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveTrainState atomically writes a mid-training checkpoint (weights +
// optimiser moments + RNG position + epoch index).
func SaveTrainState[T mat.Float](path string, st *TrainStateOf[T]) error {
	return ckpt.SaveGob(path, kindFor[T](KindTrain), VersionTrain, st)
}

// LoadTrainStateOf reads a mid-training checkpoint at element type T.
func LoadTrainStateOf[T mat.Float](path string) (*TrainStateOf[T], error) {
	st := &TrainStateOf[T]{}
	if err := ckpt.LoadGob(path, kindFor[T](KindTrain), VersionTrain, st); err != nil {
		return nil, err
	}
	return st, nil
}
