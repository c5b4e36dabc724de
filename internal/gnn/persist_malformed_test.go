package gnn

import (
	"math/rand"
	"testing"

	"trail/internal/mat"
)

// TestCheckpointDecodeRejectsMalformed feeds the model decoders
// well-formed gob payloads whose weights are missing, mis-sized, or do
// not compose. The envelope CRC cannot catch these (they are what a
// buggy writer would checksum faithfully); each must come back as an
// error, never a panic and never a model that would fault later inside a
// kernel.
func TestCheckpointDecodeRejectsMalformed(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 5, Encoding: 4, Seed: 1}
	sageWire := func() modelWire[float64] {
		m := NewModelOf[float64](cfg, 3)
		w := modelWire[float64]{Config: m.Config, Classes: m.classes, LabelEmb: wireLinear(m.labelEmb)}
		for i, l := range m.layers {
			w.Layers = append(w.Layers, wireLinear(l))
			w.SelfW = append(w.SelfW, m.selfW[i].W)
		}
		return w
	}
	gcnWireOf := func() gcnWire[float64] {
		g := NewGCNOf[float64](cfg, 3)
		w := gcnWire[float64]{Config: g.Config, Classes: g.classes, LabelEmb: wireLinear(g.labelEmb)}
		for _, l := range g.layers {
			w.Layers = append(w.Layers, wireLinear(l))
		}
		return w
	}
	aeWireOf := func() aeWire[float64] {
		a := NewAutoencoderOf[float64](AEConfig{Hidden: 6, Encoding: 4, Seed: 1})
		a.InitRandom(7)
		return aeWire[float64]{
			Config: a.Config, InDim: a.inDim, Trained: true,
			Enc1: wireLinear(a.enc1), Enc2: wireLinear(a.enc2),
			Dec1: wireLinear(a.dec1), Dec2: wireLinear(a.dec2),
		}
	}
	short := func(rows, cols int) *mat.Dense[float64] {
		return &mat.Dense[float64]{Rows: rows, Cols: cols, Data: make([]float64, rows*cols-1)}
	}
	rng := rand.New(rand.NewSource(1))
	glorot := func(rows, cols int) *mat.Dense[float64] { return mat.GlorotUniformOf[float64](rng, rows, cols) }

	type decoder interface{ GobDecode([]byte) error }
	cases := []struct {
		name    string
		payload func() any
		into    func() decoder
	}{
		{"sage layer B nil", func() any { w := sageWire(); w.Layers[0].B = nil; return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage layer W nil", func() any { w := sageWire(); w.Layers[1].W = nil; return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage label embedding B nil", func() any { w := sageWire(); w.LabelEmb.B = nil; return w },
			func() decoder { return &ModelOf[float64]{} }},
		// gob cannot carry a nil slice element: an empty matrix is the
		// closest a payload gets to a missing self weight.
		{"sage self weight empty", func() any { w := sageWire(); w.SelfW[1] = &mat.Dense[float64]{}; return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage 4x4 W with 3 elements", func() any {
			w := sageWire()
			w.Layers[0].W = &mat.Dense[float64]{Rows: 4, Cols: 4, Data: make([]float64, 3)}
			return w
		}, func() decoder { return &ModelOf[float64]{} }},
		{"sage short self weight", func() any { w := sageWire(); w.SelfW[0] = short(4, 5); return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage self weight shape differs from layer", func() any { w := sageWire(); w.SelfW[0] = glorot(5, 4); return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage layer widths disagree", func() any {
			w := sageWire()
			w.Layers[1] = linearWire[float64]{W: glorot(6, 3), B: mat.NewOf[float64](1, 3)}
			w.SelfW[1] = glorot(6, 3)
			return w
		}, func() decoder { return &ModelOf[float64]{} }},
		{"sage bias width differs from W", func() any { w := sageWire(); w.Layers[0].B = mat.NewOf[float64](1, 2); return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"sage logits differ from classes", func() any { w := sageWire(); w.Classes = 4; w.LabelEmb.W = glorot(4, 4); return w },
			func() decoder { return &ModelOf[float64]{} }},
		{"gcn layer W nil", func() any { w := gcnWireOf(); w.Layers[0].W = nil; return w },
			func() decoder { return &GCNOf[float64]{} }},
		{"gcn short label embedding", func() any { w := gcnWireOf(); w.LabelEmb.W = short(3, 4); return w },
			func() decoder { return &GCNOf[float64]{} }},
		{"gcn layer widths disagree", func() any {
			w := gcnWireOf()
			w.Layers[0] = linearWire[float64]{W: glorot(2, 5), B: mat.NewOf[float64](1, 5)}
			return w
		}, func() decoder { return &GCNOf[float64]{} }},
		{"autoencoder dec2 B nil", func() any { w := aeWireOf(); w.Dec2.B = nil; return w },
			func() decoder { return &AutoencoderOf[float64]{} }},
		{"autoencoder short enc2 W", func() any { w := aeWireOf(); w.Enc2.W = short(6, 4); return w },
			func() decoder { return &AutoencoderOf[float64]{} }},
		{"autoencoder output width differs from input", func() any {
			w := aeWireOf()
			w.Dec2 = linearWire[float64]{W: glorot(6, 5), B: mat.NewOf[float64](1, 5)}
			return w
		}, func() decoder { return &AutoencoderOf[float64]{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := gobBytes(tc.payload())
			if err != nil {
				t.Fatal(err)
			}
			var decErr error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panicked: %v", r)
					}
				}()
				decErr = tc.into().GobDecode(b)
			}()
			if decErr == nil {
				t.Fatal("malformed payload decoded without error")
			}
		})
	}

	// The unmodified payloads still decode.
	for name, p := range map[string]struct {
		payload any
		into    decoder
	}{
		"sage":        {sageWire(), &ModelOf[float64]{}},
		"gcn":         {gcnWireOf(), &GCNOf[float64]{}},
		"autoencoder": {aeWireOf(), &AutoencoderOf[float64]{}},
	} {
		b, err := gobBytes(p.payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.into.GobDecode(b); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", name, err)
		}
	}
}
