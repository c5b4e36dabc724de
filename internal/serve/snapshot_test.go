package serve

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"trail/internal/gnn"
)

// TestLoadModelDirPrecision: the serving precision follows the training
// directory — missing artefacts name the `trail train -dir` fix,
// model.ck alone serves float64 with a notice, and model.f32.ck is
// preferred once present.
func TestLoadModelDirPrecision(t *testing.T) {
	f := fixture(t)
	dir := t.TempDir()
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	load := func() (*Snapshot, error) {
		build, err := LoadModelDir(dir, f.ectx.Names, logf)
		if err != nil {
			return nil, err
		}
		return build(f.ectx.TKG.G, f.ectx.TKG.Features)
	}

	if _, err := load(); err == nil || !strings.Contains(err.Error(), "trail train -dir") {
		t.Fatalf("no encoders: want a `trail train -dir` hint, got %v", err)
	}
	if err := gnn.SaveEncoders(filepath.Join(dir, EncodersFile), f.enc); err != nil {
		t.Fatal(err)
	}
	if _, err := load(); err == nil || !strings.Contains(err.Error(), "trail train -dir") {
		t.Fatalf("no model: want a `trail train -dir` hint, got %v", err)
	}

	if err := gnn.SaveModel(filepath.Join(dir, ModelFile), f.model); err != nil {
		t.Fatal(err)
	}
	snap, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Precision != "float64" || !strings.Contains(logs[len(logs)-1], "serving at float64") {
		t.Fatalf("model.ck only: precision %s, last log %q", snap.Precision, logs[len(logs)-1])
	}

	if err := gnn.SaveModel(filepath.Join(dir, ModelF32File), f.m32); err != nil {
		t.Fatal(err)
	}
	if snap, err = load(); err != nil {
		t.Fatal(err)
	}
	if snap.Precision != "float32" || !strings.Contains(logs[len(logs)-1], "float32 model") {
		t.Fatalf("with model.f32.ck: precision %s, last log %q", snap.Precision, logs[len(logs)-1])
	}
}
