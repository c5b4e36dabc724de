package core

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"trail/internal/graph"
	"trail/internal/osint"
)

// chaosRate returns the fault rate for the chaos-gated tests: 0.2 by
// default, overridden by the TRAIL_CHAOS environment variable (the
// Makefile `chaos` target sets an aggressive rate).
func chaosRate(t *testing.T) float64 {
	if s := os.Getenv("TRAIL_CHAOS"); s != "" {
		r, err := strconv.ParseFloat(s, 64)
		if err != nil || r < 0 || r > 1 {
			t.Fatalf("bad TRAIL_CHAOS=%q", s)
		}
		return r
	}
	return 0.2
}

// buildStack assembles world -> chaos -> resilience -> TKG on a manual
// clock, the canonical fault-injected build used by these tests and the
// Makefile chaos gate.
func buildStack(t *testing.T, chaosCfg osint.ChaosConfig) (*osint.World, *osint.ChaosServices, *TKG, *BuildReport) {
	t.Helper()
	w := osint.NewWorld(osint.TestConfig())
	clock := osint.NewManualClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	chaosCfg.Clock = clock
	chaos := osint.NewChaosServices(w, chaosCfg)
	rcfg := osint.DefaultResilienceConfig()
	rcfg.Clock = clock
	rcfg.MaxAttempts = 5
	res := osint.NewResilientServices(chaos, rcfg)
	tkg := NewTKGFallible(res, w.Resolver(), DefaultBuildConfig())
	rep, err := tkg.Build(w.Pulses())
	if err != nil {
		t.Fatalf("chaotic build failed: %v", err)
	}
	return w, chaos, tkg, rep
}

// graphBytes serialises the graph deterministically for bit-identity
// comparison.
func graphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTransientChaosIsInvisible is the headline resilience guarantee:
// with 20% transient faults (and a consecutive-failure cap below the
// retry budget), a full TKG build completes, degrades nothing, and the
// resulting graph and features are bit-identical to a fault-free build
// over the same world.
func TestTransientChaosIsInvisible(t *testing.T) {
	rate := chaosRate(t)
	_, chaos, chaotic, rep := buildStack(t, osint.ChaosConfig{
		Seed:                    42,
		TransientRate:           rate,
		MaxConsecutiveTransient: 3,
	})
	if c := chaos.Counters(); c.Transient == 0 {
		t.Fatal("no transient faults injected; test is vacuous")
	}
	if d := rep.Degraded(); d != 0 {
		t.Fatalf("%d nodes degraded; retries should have absorbed all transient faults (report: %s)", d, rep.Render())
	}
	if rep.EnrichErrors != 0 {
		t.Fatalf("%d enrichment errors leaked past the middleware", rep.EnrichErrors)
	}
	if rep.Resilience == nil || rep.Resilience.Totals().Retries == 0 {
		t.Fatal("resilience metrics missing or show no retries")
	}

	// Fault-free reference build over an identical world.
	w2 := osint.NewWorld(osint.TestConfig())
	clean := NewTKG(w2, w2.Resolver(), DefaultBuildConfig())
	if _, err := clean.Build(w2.Pulses()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphBytes(t, chaotic.G), graphBytes(t, clean.G)) {
		t.Fatal("chaotic graph differs from fault-free graph")
	}
	if len(chaotic.Features) != len(clean.Features) {
		t.Fatalf("feature count differs: %d vs %d", len(chaotic.Features), len(clean.Features))
	}
	for id, v := range clean.Features {
		cv, ok := chaotic.Features[id]
		if !ok || len(cv) != len(v) {
			t.Fatalf("node %d: feature vector missing or resized", id)
		}
		for i := range v {
			if cv[i] != v[i] {
				t.Fatalf("node %d dim %d: %v vs %v", id, i, cv[i], v[i])
			}
		}
	}
}

// TestPermanentChaosDegradesGracefully: permanent provider failures must
// not abort the build; the affected IOCs stay in the graph with the
// Degraded flag and imputed features, and the report tallies them.
func TestPermanentChaosDegradesGracefully(t *testing.T) {
	rate := chaosRate(t)
	_, chaos, tkg, rep := buildStack(t, osint.ChaosConfig{
		Seed:          42,
		PermanentRate: rate,
	})
	if c := chaos.Counters(); c.Permanent == 0 {
		t.Fatal("no permanent faults injected; test is vacuous")
	}
	if rep.Degraded() == 0 {
		t.Fatalf("permanent faults injected but nothing degraded: %s", rep.Render())
	}
	if rep.EnrichErrors == 0 {
		t.Fatal("enrichment errors not tallied")
	}

	// Every degraded flag in the graph is accounted per kind, and every
	// degraded featurized node carries a usable (non-nil, right-size)
	// vector.
	perKind := map[graph.NodeKind]int{}
	degradedWithFeatures := 0
	imputedNonZero := 0
	tkg.G.ForEachNode(func(n graph.Node) {
		if !n.Degraded {
			return
		}
		perKind[n.Kind]++
		if v, ok := tkg.Features[n.ID]; ok {
			degradedWithFeatures++
			for _, x := range v {
				if x != 0 {
					imputedNonZero++
					break
				}
			}
		}
	})
	for k, want := range rep.DegradedByKind {
		if perKind[k] != want {
			t.Fatalf("kind %v: report says %d degraded, graph has %d", k, want, perKind[k])
		}
	}
	if degradedWithFeatures == 0 {
		t.Fatal("no degraded node kept a feature vector")
	}
	if imputedNonZero == 0 {
		t.Fatal("every degraded vector is all-zero: imputation never ran")
	}

	// Degraded flags survive snapshot round trips.
	var buf bytes.Buffer
	if _, err := tkg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	w2 := osint.NewWorld(osint.TestConfig())
	back, err := ReadTKGFallible(&buf, osint.Infallible(w2), w2.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	reloaded := 0
	back.G.ForEachNode(func(n graph.Node) {
		if n.Degraded {
			reloaded++
		}
	})
	if reloaded != rep.Degraded() {
		t.Fatalf("degraded flags lost in persistence: %d vs %d", reloaded, rep.Degraded())
	}
}

// TestBuildReportBookkeeping checks the report totals on a plain,
// fault-free build.
func TestBuildReportBookkeeping(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	rep, err := tkg.Build(w.Pulses())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulses != len(w.Pulses()) {
		t.Fatalf("pulses %d, want %d", rep.Pulses, len(w.Pulses()))
	}
	if rep.Merged != len(tkg.EventNodes()) {
		t.Fatalf("merged %d, events %d", rep.Merged, len(tkg.EventNodes()))
	}
	if rep.Merged+rep.Skipped != rep.Pulses {
		t.Fatalf("merged %d + skipped %d != pulses %d", rep.Merged, rep.Skipped, rep.Pulses)
	}
	if rep.Degraded() != 0 || rep.EnrichErrors != 0 {
		t.Fatalf("fault-free build reported damage: %s", rep.Render())
	}
	// The plain World exposes no metrics source.
	if rep.Resilience != nil {
		t.Fatal("unexpected resilience metrics on an infallible stack")
	}
}

// TestBuildContextCancel: a canceled context aborts between pulses with a
// wrapped cause rather than panicking or hanging.
func TestBuildContextCancel(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tkg.BuildContext(ctx, w.Pulses()); err == nil {
		t.Fatal("canceled build returned nil error")
	}
}

// failIPLookup fails every LookupIP and passes the other lookups through.
type failIPLookup struct{ osint.FallibleServices }

func (f failIPLookup) LookupIP(ctx context.Context, addr string) (osint.IPRecord, bool, error) {
	return osint.IPRecord{}, false, &osint.ProviderError{Kind: osint.ProviderIPLookup, Op: "LookupIP", Key: addr, Err: osint.ErrPermanent}
}

// TestChildFailureDoesNotDegradeParent: only IP nodes call LookupIP, so a
// LookupIP outage must degrade IPs alone. A domain or URL whose own
// lookups succeed stays clean even when the IPs it reveals fail.
func TestChildFailureDoesNotDegradeParent(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	tkg := NewTKGFallible(failIPLookup{osint.Infallible(w)}, w.Resolver(), DefaultBuildConfig())
	rep, err := tkg.Build(w.Pulses())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedByKind[graph.KindIP] == 0 {
		t.Fatal("no IP degraded; test is vacuous")
	}
	for k, n := range rep.DegradedByKind {
		if k != graph.KindIP && n != 0 {
			t.Fatalf("%d %v nodes degraded by their children's failures: %v", n, k, rep.DegradedByKind)
		}
	}
}
