package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"trail/internal/core"
	"trail/internal/osint"
)

// TestCmdBuildMatchesLibraryBuild: `trail build` writes the same bytes as
// core.TKG.Build + Save over the same world, with and without enrichment
// faults injected through osint.NewChaosStack.
func TestCmdBuildMatchesLibraryBuild(t *testing.T) {
	for _, tc := range []struct {
		name             string
		chaos, transient float64
		extra            []string
	}{
		{"plain", 0, 0, nil},
		{"chaos", 0.2, 0.2, []string{"-chaos", "0.2", "-transient", "0.2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			got := filepath.Join(dir, "cmd.gob")
			args := append([]string{"-seed", "3", "-months", "4", "-events", "6", "-out", got}, tc.extra...)
			if err := cmdBuild(args); err != nil {
				t.Fatal(err)
			}

			cfg := osint.DefaultConfig()
			cfg.Seed, cfg.Months, cfg.EventsPerMonth = 3, 4, 6
			w := osint.NewWorld(cfg)
			var tkg *core.TKG
			if tc.chaos > 0 || tc.transient > 0 {
				tkg = core.NewTKGFallible(osint.NewChaosStack(w, cfg.Seed, tc.chaos, tc.transient), w.Resolver(), core.DefaultBuildConfig())
			} else {
				tkg = core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
			}
			if _, err := tkg.Build(w.Pulses()); err != nil {
				t.Fatal(err)
			}
			want := filepath.Join(dir, "lib.gob")
			if err := tkg.Save(want); err != nil {
				t.Fatal(err)
			}

			a, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("trail build wrote %d bytes that differ from the %d-byte library snapshot", len(a), len(b))
			}
		})
	}
}
