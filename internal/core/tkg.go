// Package core implements the paper's primary contribution: the TRAIL
// system that turns a feed of attributed OSINT incident reports into the
// TRAIL Knowledge Graph (TKG).
//
// The pipeline follows §III-§IV of the paper:
//
//  1. Collect: parse pulses, resolve APT tags (discarding reports whose
//     tags map to more than one group), refang and classify indicators.
//  2. Enrich: query passive DNS, IP lookup and URL probing for every
//     reported IOC; the responses both yield feature vectors and reveal
//     secondary IOCs (IPs behind domains, domains historically on an IP,
//     ASN groups), which are themselves analysed, up to a configurable
//     hop limit (2 in the paper).
//  3. Merge: connect everything into the shared knowledge graph using the
//     Table I schema (InReport, ARecord, InGroup, ResolvesTo, HostedOn).
//
// The resulting TKG bundles the property graph, per-node feature vectors,
// and event labels; the analysis packages (labelprop, gnn, ml, tree)
// consume it directly.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"trail/internal/apt"
	"trail/internal/feature"
	"trail/internal/graph"
	"trail/internal/ioc"
	"trail/internal/osint"
)

// BuildConfig controls TKG construction.
type BuildConfig struct {
	// MaxHops bounds how far from the event node relation expansion
	// proceeds: IOCs at hop <= MaxHops-1 have their relations followed
	// (the paper uses 2: reported IOCs sit at hop 1 and are expanded, the
	// secondary IOCs they reveal sit at hop 2 and are not).
	MaxHops int
	// FeaturizeSecondaries requests feature analysis for secondary IOCs
	// too (the paper does). Disabling it is an ablation knob.
	FeaturizeSecondaries bool
}

// DefaultBuildConfig mirrors the paper's construction parameters.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{MaxHops: 2, FeaturizeSecondaries: true}
}

// TKG is the TRAIL knowledge graph: the property graph plus node feature
// vectors and build bookkeeping.
type TKG struct {
	G *graph.Graph
	// Features holds the engineered vector for IOC nodes that have one
	// (events and ASNs have none).
	Features map[graph.NodeID][]float64
	// Extractor is the featurizer used during the build; the analysis
	// code reuses it for fresh, not-yet-merged IOCs.
	Extractor *feature.Extractor
	Resolver  *apt.Resolver
	Config    BuildConfig

	// svc is the infallible view the Extractor and relation expansion
	// consume; it taps enrichment errors from fsvc into the build report
	// so failed lookups degrade nodes instead of masquerading as misses.
	svc  osint.Services
	fsvc osint.FallibleServices
	// metricsSrc, when non-nil, supplies resilience middleware counters
	// for the build report.
	metricsSrc osint.MetricsSource
	// buildCtx is the context of the in-progress build (Background
	// outside one).
	buildCtx context.Context
	// enrichErrs counts enrichment errors observed through the tap.
	enrichErrs atomic.Int64
	report     BuildReport
	imp        *imputer
	// SkippedPulses counts reports discarded for conflicting tags.
	SkippedPulses int
	// eventAPTs tracks, per IOC node, the set of distinct APTs of events
	// it appears in; used to derive single-label IOC labels (Table III).
	eventAPTs map[graph.NodeID]map[apt.ID]bool
	// touched accumulates, while trackTouched is set, the IOC nodes whose
	// event membership changed during the current ApplyPulse, so the
	// streaming path can re-finalise exactly those instead of sweeping
	// every labelled IOC per event.
	trackTouched bool
	touched      []graph.NodeID
}

// NewTKG returns an empty TKG that enriches through svc and resolves tags
// through resolver. The services are treated as infallible (every lookup
// either finds data or is a clean miss); deployments with real, flaky
// providers should use NewTKGFallible with the resilience middleware.
func NewTKG(svc osint.Services, resolver *apt.Resolver, cfg BuildConfig) *TKG {
	return NewTKGFallible(osint.Infallible(svc), resolver, cfg)
}

// NewTKGFallible returns an empty TKG enriching through an error-aware
// services stack. Enrichment errors do not abort the build: the affected
// IOC keeps its node, receives imputed (feature-mean/zero) features, is
// flagged Degraded, and the failure is tallied in the BuildReport.
func NewTKGFallible(fsvc osint.FallibleServices, resolver *apt.Resolver, cfg BuildConfig) *TKG {
	if cfg.MaxHops < 1 {
		cfg.MaxHops = 1
	}
	t := &TKG{
		G:         graph.New(),
		Features:  make(map[graph.NodeID][]float64),
		Resolver:  resolver,
		Config:    cfg,
		fsvc:      fsvc,
		buildCtx:  context.Background(),
		imp:       newImputer(),
		eventAPTs: make(map[graph.NodeID]map[apt.ID]bool),
	}
	t.report.DegradedByKind = make(map[graph.NodeKind]int)
	if ms, ok := fsvc.(osint.MetricsSource); ok {
		t.metricsSrc = ms
	}
	t.svc = &errTap{t: t}
	t.Extractor = feature.NewExtractor(t.svc)
	return t
}

// errTap adapts the TKG's FallibleServices to the infallible Services
// shape the Extractor consumes, recording every enrichment error so the
// builder can tell outages apart from genuine negative results.
type errTap struct{ t *TKG }

func (a *errTap) LookupIP(addr string) (osint.IPRecord, bool) {
	rec, ok, err := a.t.fsvc.LookupIP(a.t.buildCtx, addr)
	if err != nil {
		a.t.noteEnrichErr()
		return osint.IPRecord{}, false
	}
	return rec, ok
}

func (a *errTap) PassiveDNSDomain(name string) (osint.DomainRecord, bool) {
	rec, ok, err := a.t.fsvc.PassiveDNSDomain(a.t.buildCtx, name)
	if err != nil {
		a.t.noteEnrichErr()
		return osint.DomainRecord{}, false
	}
	return rec, ok
}

func (a *errTap) PassiveDNSIP(addr string) ([]string, bool) {
	doms, ok, err := a.t.fsvc.PassiveDNSIP(a.t.buildCtx, addr)
	if err != nil {
		a.t.noteEnrichErr()
		return nil, false
	}
	return doms, ok
}

func (a *errTap) ProbeURL(url string) (osint.URLRecord, bool) {
	rec, ok, err := a.t.fsvc.ProbeURL(a.t.buildCtx, url)
	if err != nil {
		a.t.noteEnrichErr()
		return osint.URLRecord{}, false
	}
	return rec, ok
}

func (t *TKG) noteEnrichErr() { t.enrichErrs.Add(1) }

// Build ingests a batch of pulses, finalises derived labels, and returns
// the build report. Pulses without a unique APT tag are skipped and
// counted, not treated as errors; enrichment failures degrade individual
// nodes without aborting the build.
func (t *TKG) Build(pulses []osint.Pulse) (*BuildReport, error) {
	return t.BuildContext(context.Background(), pulses)
}

// BuildContext is Build under a context: cancellation stops enrichment
// (in-flight lookups fail fast) and aborts between pulses.
func (t *TKG) BuildContext(ctx context.Context, pulses []osint.Pulse) (*BuildReport, error) {
	t.buildCtx = ctx
	defer func() { t.buildCtx = context.Background() }()
	for i := range pulses {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: build canceled at pulse %d: %w", i, err)
		}
		if _, err := t.AddPulse(pulses[i]); err != nil && err != ErrSkipped {
			return nil, fmt.Errorf("core: pulse %d (%s): %w", i, pulses[i].ID, err)
		}
	}
	t.FinalizeLabels()
	return t.Report(), nil
}

// Report snapshots the cumulative build bookkeeping, including the
// resilience middleware counters when the enrichment stack exposes them.
func (t *TKG) Report() *BuildReport {
	rep := t.report
	rep.EnrichErrors = int(t.enrichErrs.Load())
	rep.Skipped = t.SkippedPulses
	rep.DegradedByKind = make(map[graph.NodeKind]int, len(t.report.DegradedByKind))
	for k, v := range t.report.DegradedByKind {
		rep.DegradedByKind[k] = v
	}
	if t.metricsSrc != nil {
		m := t.metricsSrc.Metrics()
		rep.Resilience = &m
	}
	return &rep
}

// ErrSkipped is returned by AddPulse for reports discarded by the tag
// resolution rule; the TKG is unchanged in that case.
var ErrSkipped = fmt.Errorf("core: pulse skipped (no unique APT tag)")

// ErrDuplicate is returned (wrapped with the pulse ID) when a pulse's ID
// is already an event in the graph. The TKG is unchanged; streaming
// replay relies on this to make WAL overlap harmless.
var ErrDuplicate = fmt.Errorf("core: duplicate pulse ID")

// AddPulse merges one incident report into the TKG and returns the event
// node ID. Reports whose tags do not resolve to exactly one APT return
// ErrSkipped.
func (t *TKG) AddPulse(p osint.Pulse) (graph.NodeID, error) {
	t.report.Pulses++
	label, ok := t.Resolver.ResolveTags(p.Tags)
	if !ok {
		t.SkippedPulses++
		return 0, ErrSkipped
	}

	eventID, created := t.G.Upsert(graph.KindEvent, p.ID)
	if !created {
		return eventID, fmt.Errorf("%w %q", ErrDuplicate, p.ID)
	}
	t.report.Merged++
	month := p.Month
	t.G.UpdateNode(eventID, func(n *graph.Node) {
		n.Label = int(label)
		n.Month = month
	})

	// hop tracks the shortest distance (in IOC links) from the event at
	// which we first saw each IOC this pulse contributes.
	type pending struct {
		id  graph.NodeID
		ioc ioc.IOC
		hop int
	}
	var queue []pending

	touch := func(i ioc.IOC, hop int) (graph.NodeID, bool) {
		kind, ok := KindOf(i.Type)
		if !ok {
			return 0, false
		}
		id, created := t.G.Upsert(kind, i.Value)
		if created {
			t.G.UpdateNode(id, func(n *graph.Node) { n.Month = month })
			if t.Config.FeaturizeSecondaries || hop <= 1 {
				t.featurize(id, i)
			}
			queue = append(queue, pending{id: id, ioc: i, hop: hop})
		}
		return id, true
	}

	// First-order IOCs: refang, classify, connect to the event.
	for _, ind := range p.Indicators {
		item, ok := ioc.Classify(ind.Indicator)
		if !ok {
			continue // data-quality filter (§IX)
		}
		id, ok := touch(item, 1)
		if !ok {
			continue
		}
		t.G.UpdateNode(id, func(n *graph.Node) {
			if !n.FirstOrder {
				n.FirstOrder = true
			}
		})
		t.G.AddEdge(eventID, id, graph.EdgeInReport)
		t.noteEventAPT(id, label)
		// Late featurization: a node first seen as a secondary IOC in an
		// earlier pulse may have been skipped by the ablation flag.
		if _, has := t.Features[id]; !has {
			t.featurize(id, item)
		}
	}

	// Relation expansion, bounded by MaxHops.
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hop >= t.Config.MaxHops {
			continue
		}
		t.expand(cur.id, cur.ioc, cur.hop, touch)
	}
	return eventID, nil
}

// expand follows the Table I relations of one IOC, creating secondary
// nodes via touch at hop+1. Enrichment failures leave the node in place
// with whatever relations did resolve, flagged Degraded. Only expand's
// own lookups count: touch featurizes each new child, and a child's
// failed lookup degrades the child, not this node.
func (t *TKG) expand(id graph.NodeID, item ioc.IOC, hop int, touch func(ioc.IOC, int) (graph.NodeID, bool)) {
	switch item.Type {
	case ioc.TypeIP:
		before := t.enrichErrs.Load()
		rec, okRec := t.svc.LookupIP(item.Value)
		domains, okDomains := t.svc.PassiveDNSIP(item.Value)
		t.degradeOnErrors(id, before)
		if okRec && rec.ASN != 0 {
			asnID, _ := t.G.Upsert(graph.KindASN, fmt.Sprintf("AS%d", rec.ASN))
			t.G.AddEdge(id, asnID, graph.EdgeInGroup)
		}
		if okDomains {
			for _, d := range domains {
				if dID, ok := touch(ioc.IOC{Type: ioc.TypeDomain, Value: d}, hop+1); ok {
					t.G.AddEdge(id, dID, graph.EdgeARecord)
				}
			}
		}
	case ioc.TypeDomain:
		before := t.enrichErrs.Load()
		rec, ok := t.svc.PassiveDNSDomain(item.Value)
		t.degradeOnErrors(id, before)
		if ok {
			for _, ip := range rec.ARecords {
				if ipID, ok := touch(ioc.IOC{Type: ioc.TypeIP, Value: ip}, hop+1); ok {
					t.G.AddEdge(id, ipID, graph.EdgeResolvesTo)
				}
			}
		}
	case ioc.TypeURL:
		// HostedOn comes from lexical analysis of the URL itself.
		if u, ok := ioc.ParseURL(item.Value); ok && !u.HostIsIP {
			if dID, ok := touch(ioc.IOC{Type: ioc.TypeDomain, Value: u.Host}, hop+1); ok {
				t.G.AddEdge(id, dID, graph.EdgeHostedOn)
			}
		}
		before := t.enrichErrs.Load()
		rec, ok := t.svc.ProbeURL(item.Value)
		t.degradeOnErrors(id, before)
		if ok {
			for _, ip := range rec.ResolvesTo {
				if ipID, ok := touch(ioc.IOC{Type: ioc.TypeIP, Value: ip}, hop+1); ok {
					t.G.AddEdge(id, ipID, graph.EdgeResolvesTo)
				}
			}
		}
	}
}

// degradeOnErrors flags id Degraded if the enrichment error count has
// grown past before.
func (t *TKG) degradeOnErrors(id graph.NodeID, before int64) {
	if t.enrichErrs.Load() > before {
		t.markDegraded(id)
	}
}

func (t *TKG) featurize(id graph.NodeID, item ioc.IOC) {
	before := t.enrichErrs.Load()
	v, ok := t.Extractor.Extract(item)
	if v == nil {
		return
	}
	if t.enrichErrs.Load() > before {
		// Enrichment errored (not merely a miss): impute the provider-
		// derived dimensions from the running per-type feature mean and
		// flag the node, keeping any lexical dimensions the extractor
		// computed from the indicator string itself.
		t.imp.impute(item.Type, v)
		t.markDegraded(id)
	} else if ok {
		t.imp.observe(item.Type, v)
	}
	t.Features[id] = v
}

// markDegraded flags a node as enrichment-degraded exactly once and
// tallies it in the build report.
func (t *TKG) markDegraded(id graph.NodeID) {
	n := t.G.Node(id)
	if n.Degraded {
		return
	}
	t.G.UpdateNode(id, func(n *graph.Node) { n.Degraded = true })
	t.report.DegradedByKind[n.Kind]++
}

func (t *TKG) noteEventAPT(id graph.NodeID, label apt.ID) {
	set := t.eventAPTs[id]
	if set == nil {
		set = make(map[apt.ID]bool, 1)
		t.eventAPTs[id] = set
	}
	set[label] = true
	if t.trackTouched {
		t.touched = append(t.touched, id)
	}
}

// FinalizeLabels derives per-IOC metadata from event membership: the
// EventCount reuse statistic and, for first-order IOCs whose events all
// share one APT, the IOC label used by the Table III experiments.
// Safe to call repeatedly (e.g. after merging a new pulse).
func (t *TKG) FinalizeLabels() {
	for id := range t.eventAPTs {
		t.finalizeOne(id)
	}
}

// finalizeOne recomputes the derived label and EventCount for one IOC
// from its current event membership. Idempotent: the result is a pure
// function of eventAPTs[id] and the node's InReport adjacency, which is
// what makes per-pulse incremental finalisation converge to the same
// state as one batch FinalizeLabels sweep.
func (t *TKG) finalizeOne(id graph.NodeID) {
	set := t.eventAPTs[id]
	if set == nil {
		return
	}
	label := -1
	if len(set) == 1 {
		for a := range set {
			label = int(a)
		}
	}
	count := 0
	t.G.NeighborEdges(id, func(_ graph.NodeID, et graph.EdgeType, _ bool) bool {
		if et == graph.EdgeInReport {
			count++
		}
		return true
	})
	t.G.UpdateNode(id, func(n *graph.Node) {
		n.Label = label
		n.EventCount = count
	})
}

// EventNodes returns all event node IDs.
func (t *TKG) EventNodes() []graph.NodeID {
	return t.G.NodesOfKind(graph.KindEvent)
}

// LabeledIOCs returns, for the given kind, the first-order IOC nodes
// carrying a unique APT label: the training set of the per-IOC
// attribution experiments.
func (t *TKG) LabeledIOCs(kind graph.NodeKind) (ids []graph.NodeID, labels []int) {
	t.G.ForEachNode(func(n graph.Node) {
		if n.Kind == kind && n.FirstOrder && n.Label >= 0 {
			ids = append(ids, n.ID)
			labels = append(labels, n.Label)
		}
	})
	return ids, labels
}

// KindOf maps an IOC type to the kind of node that carries it in the
// graph; ok is false for types the TKG does not model.
func KindOf(t ioc.Type) (graph.NodeKind, bool) {
	switch t {
	case ioc.TypeIP:
		return graph.KindIP, true
	case ioc.TypeURL:
		return graph.KindURL, true
	case ioc.TypeDomain:
		return graph.KindDomain, true
	case ioc.TypeASN:
		return graph.KindASN, true
	default:
		return 0, false
	}
}
