package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"trail/internal/apt"
	"trail/internal/ckpt"
	"trail/internal/graph"
	"trail/internal/osint"
)

// tkgSnapshot is the gob-serialisable envelope for a complete TKG:
// the graph, the engineered feature vectors, and the build bookkeeping.
// Enrichment services and the extractor are reattached at load time.
type tkgSnapshot struct {
	Version       int
	Config        BuildConfig
	SkippedPulses int
	FeatureIDs    []graph.NodeID
	FeatureVecs   [][]float64
	EventAPTIDs   []graph.NodeID
	EventAPTSets  [][]int32
}

const tkgSnapshotVersion = 1

// WriteTo serialises the full TKG (graph, features, metadata) to w.
func (t *TKG) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n, err := t.G.WriteTo(bw)
	if err != nil {
		return n, err
	}
	snap := tkgSnapshot{
		Version:       tkgSnapshotVersion,
		Config:        t.Config,
		SkippedPulses: t.SkippedPulses,
	}
	// Maps are walked in sorted ID order so two snapshots of the same TKG
	// are byte-identical — the checksummed checkpoint layer (and any
	// content-addressed storage above it) depends on deterministic bytes.
	featIDs := make([]graph.NodeID, 0, len(t.Features))
	for id := range t.Features {
		featIDs = append(featIDs, id)
	}
	sort.Slice(featIDs, func(i, j int) bool { return featIDs[i] < featIDs[j] })
	for _, id := range featIDs {
		snap.FeatureIDs = append(snap.FeatureIDs, id)
		snap.FeatureVecs = append(snap.FeatureVecs, t.Features[id])
	}
	evIDs := make([]graph.NodeID, 0, len(t.eventAPTs))
	for id := range t.eventAPTs {
		evIDs = append(evIDs, id)
	}
	sort.Slice(evIDs, func(i, j int) bool { return evIDs[i] < evIDs[j] })
	for _, id := range evIDs {
		snap.EventAPTIDs = append(snap.EventAPTIDs, id)
		apts := make([]int32, 0, len(t.eventAPTs[id]))
		for a := range t.eventAPTs[id] {
			apts = append(apts, int32(a))
		}
		sort.Slice(apts, func(i, j int) bool { return apts[i] < apts[j] })
		snap.EventAPTSets = append(snap.EventAPTSets, apts)
	}
	if err := gob.NewEncoder(bw).Encode(&snap); err != nil {
		return n, fmt.Errorf("core: encode TKG snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("core: flush TKG snapshot: %w", err)
	}
	return n, nil
}

// ReadTKGFallible loads a TKG written by WriteTo, reattaching the given
// error-aware services stack and resolver (which are not serialised),
// so a recovered TKG keeps the degradation ladder (resilience
// middleware, Degraded flags, imputation) it was built under —
// streaming ingest recovers through this path.
func ReadTKGFallible(r io.Reader, fsvc osint.FallibleServices, resolver *apt.Resolver) (*TKG, error) {
	br := bufio.NewReader(r)
	g := graph.New()
	if _, err := g.ReadFrom(br); err != nil {
		return nil, err
	}
	var snap tkgSnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode TKG snapshot: %w", err)
	}
	if snap.Version != tkgSnapshotVersion {
		return nil, fmt.Errorf("core: unsupported TKG snapshot version %d", snap.Version)
	}
	if len(snap.FeatureIDs) != len(snap.FeatureVecs) || len(snap.EventAPTIDs) != len(snap.EventAPTSets) {
		return nil, fmt.Errorf("core: corrupt TKG snapshot: ragged arrays")
	}
	t := NewTKGFallible(fsvc, resolver, snap.Config)
	t.G = g
	t.SkippedPulses = snap.SkippedPulses
	nodes := g.NumNodes()
	for i, id := range snap.FeatureIDs {
		if int(id) >= nodes {
			return nil, fmt.Errorf("core: corrupt TKG snapshot: feature node %d out of range", id)
		}
		t.Features[id] = snap.FeatureVecs[i]
	}
	for i, id := range snap.EventAPTIDs {
		if int(id) >= nodes {
			return nil, fmt.Errorf("core: corrupt TKG snapshot: eventAPT node %d out of range", id)
		}
		set := make(map[apt.ID]bool, len(snap.EventAPTSets[i]))
		for _, a := range snap.EventAPTSets[i] {
			set[apt.ID(a)] = true
		}
		t.eventAPTs[id] = set
	}
	return t, nil
}

// TKGCheckpointKind tags TKG snapshots inside the checkpoint envelope.
const TKGCheckpointKind = "core.tkg"

// Save writes the TKG snapshot to path atomically inside the checksummed
// checkpoint envelope: a crashed writer leaves the previous file intact,
// and a corrupted file is detected on load instead of misdecoding.
func (t *TKG) Save(path string) error {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return err
	}
	return ckpt.Save(path, TKGCheckpointKind, tkgSnapshotVersion, buf.Bytes())
}

// LoadTKG reads a TKG snapshot from path, verifying envelope integrity
// (kind, version, checksum) before decoding. Corruption and version skew
// surface as the ckpt package's typed errors.
func LoadTKG(path string, svc osint.Services, resolver *apt.Resolver) (*TKG, error) {
	return LoadTKGFallible(path, osint.Infallible(svc), resolver)
}

// LoadTKGFallible is LoadTKG reattaching an error-aware services stack.
func LoadTKGFallible(path string, fsvc osint.FallibleServices, resolver *apt.Resolver) (*TKG, error) {
	payload, err := ckpt.Load(path, TKGCheckpointKind, tkgSnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return ReadTKGFallible(bytes.NewReader(payload), fsvc, resolver)
}
