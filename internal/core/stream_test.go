package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"trail/internal/graph"
	"trail/internal/osint"
)

func tkgBytes(t *testing.T, tkg *TKG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tkg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyPulseMatchesBatchBuild is the streaming-apply equivalence
// contract: merging pulses one at a time through ApplyPulse (incremental
// finalisation after every event) reaches a TKG byte-identical to the
// batch Build path (one FinalizeLabels sweep at the end).
func TestApplyPulseMatchesBatchBuild(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	pulses := w.Pulses()

	batch := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	if _, err := batch.Build(pulses); err != nil {
		t.Fatal(err)
	}

	stream := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	ctx := context.Background()
	for i := range pulses {
		if _, err := stream.ApplyPulse(ctx, pulses[i]); err != nil && err != ErrSkipped {
			t.Fatalf("pulse %d: %v", i, err)
		}
	}

	if !bytes.Equal(tkgBytes(t, stream), tkgBytes(t, batch)) {
		t.Fatal("streamed TKG differs from batch-built TKG")
	}
}

// TestApplyPulseDuplicate: a replayed pulse ID reports the error without
// mutating the graph — the property WAL replay overlap relies on.
func TestApplyPulseDuplicate(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	p := w.Pulses()[0]
	tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	ctx := context.Background()
	if _, err := tkg.ApplyPulse(ctx, p); err != nil {
		t.Fatal(err)
	}
	before := tkgBytes(t, tkg)
	if _, err := tkg.ApplyPulse(ctx, p); err == nil {
		t.Fatal("duplicate pulse not rejected")
	}
	if !bytes.Equal(before, tkgBytes(t, tkg)) {
		t.Fatal("duplicate pulse mutated the TKG")
	}
}

// switchableServices fails every lookup with a permanent error until
// healed, then delegates to the real world — the shape of a provider
// outage that ends.
type switchableServices struct {
	inner  osint.FallibleServices
	broken atomic.Bool
}

var errOutage = context.DeadlineExceeded

func (s *switchableServices) LookupIP(ctx context.Context, addr string) (osint.IPRecord, bool, error) {
	if s.broken.Load() {
		return osint.IPRecord{}, false, errOutage
	}
	return s.inner.LookupIP(ctx, addr)
}

func (s *switchableServices) PassiveDNSDomain(ctx context.Context, name string) (osint.DomainRecord, bool, error) {
	if s.broken.Load() {
		return osint.DomainRecord{}, false, errOutage
	}
	return s.inner.PassiveDNSDomain(ctx, name)
}

func (s *switchableServices) PassiveDNSIP(ctx context.Context, addr string) ([]string, bool, error) {
	if s.broken.Load() {
		return nil, false, errOutage
	}
	return s.inner.PassiveDNSIP(ctx, addr)
}

func (s *switchableServices) ProbeURL(ctx context.Context, url string) (osint.URLRecord, bool, error) {
	if s.broken.Load() {
		return osint.URLRecord{}, false, errOutage
	}
	return s.inner.ProbeURL(ctx, url)
}

// TestRepairDegraded: an outage during the build degrades nodes; once
// the provider heals, the catch-up loop restores measured features and
// clears the flags, and a second pass finds nothing left to do.
func TestRepairDegraded(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	svc := &switchableServices{inner: osint.Infallible(w)}
	svc.broken.Store(true)
	tkg := NewTKGFallible(svc, w.Resolver(), DefaultBuildConfig())
	if _, err := tkg.Build(w.Pulses()); err != nil {
		t.Fatal(err)
	}
	rep := tkg.Report()
	degraded := rep.Degraded()
	if degraded == 0 {
		t.Fatal("outage degraded nothing; test is vacuous")
	}

	ctx := context.Background()
	// Still broken: repair attempts run but fix nothing.
	if repaired, _ := tkg.RepairDegraded(ctx, 0); repaired != 0 {
		t.Fatalf("repaired %d nodes during the outage", repaired)
	}

	svc.broken.Store(false)
	repaired, attempted := tkg.RepairDegraded(ctx, 0)
	if attempted == 0 || repaired == 0 {
		t.Fatalf("healed repair pass: repaired %d attempted %d", repaired, attempted)
	}
	left := 0
	tkg.G.ForEachNode(func(n graph.Node) {
		if n.Degraded {
			left++
		}
	})
	if left != 0 {
		t.Fatalf("%d nodes still degraded after healed repair", left)
	}
	if got := tkg.Report().Degraded(); got != 0 {
		t.Fatalf("report still counts %d degraded", got)
	}
	if r2, a2 := tkg.RepairDegraded(ctx, 0); r2 != 0 || a2 != 0 {
		t.Fatalf("second pass found work: repaired %d attempted %d", r2, a2)
	}

	// A bounded pass respects max.
	svc.broken.Store(true)
	tkg2 := NewTKGFallible(svc, w.Resolver(), DefaultBuildConfig())
	if _, err := tkg2.Build(w.Pulses()); err != nil {
		t.Fatal(err)
	}
	svc.broken.Store(false)
	if _, attempted := tkg2.RepairDegraded(ctx, 2); attempted > 2 {
		t.Fatalf("max=2 attempted %d", attempted)
	}
}

// TestTKGRoundTripSmall is the regression guard for the gob read-ahead
// bug: serialising a small TKG and reading it back must succeed and
// re-serialise to identical bytes. (encoding/gob buffers ahead when its
// reader lacks ReadByte, eating the start of the snapshot stream that
// follows the graph stream — which only bit on small graphs.)
func TestTKGRoundTripSmall(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	for _, n := range []int{1, 2, 4, 8} {
		tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
		if _, err := tkg.Build(w.Pulses()[:n]); err != nil {
			t.Fatal(err)
		}
		want := tkgBytes(t, tkg)
		back, err := ReadTKGFallible(bytes.NewReader(want), osint.Infallible(w), w.Resolver())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(tkgBytes(t, back), want) {
			t.Fatalf("n=%d: round trip not byte-identical", n)
		}
	}
}
