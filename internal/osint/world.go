package osint

import (
	"fmt"
	"math/rand"
	"time"

	"trail/internal/apt"
	"trail/internal/ioc"
)

// World is the deterministic synthetic threat-intelligence universe. It
// generates an attributed pulse feed and implements the Services
// enrichment interfaces over the same hidden state, so enrichment
// discovers genuine second-order structure (shared hosting, shared ASNs,
// historic DNS) rather than random noise.
type World struct {
	cfg      WorldConfig
	roster   []apt.Profile
	resolver *apt.Resolver
	rng      *rand.Rand

	asns    map[int]*asnState
	ips     map[string]*ipState
	domains map[string]*domainState
	urls    map[string]*urlState
	pulses  []Pulse

	groups    []*groupState
	sharedIPs []string

	// Global vocabularies (head-biased sampling for noise draws).
	countries, issuers, fileTypes, fileClasses, httpCodes []string
	encodings, servers, oses, services, tlds              []string

	nextIPOctet int
	nextASN     int
}

type asnState struct {
	Number  int
	Country string
	Issuer  string
	// prefix is the first two IPv4 octets owned by this ASN.
	prefix string
}

type ipState struct {
	rec     IPRecord
	domains []string // passive-DNS: domains that resolved here
	owner   apt.ID   // -1 for shared/benign
	month   int
}

type domainState struct {
	rec   DomainRecord
	month int
}

type urlState struct {
	rec   URLRecord
	owner apt.ID
	month int
}

type groupState struct {
	profile apt.Profile
	asns    []int
	// lone marks a scratch state used to stage an isolated event: no
	// foreign hosting, no shared-IP contamination, nothing added to the
	// real group pools.
	lone bool
	// Cumulative infrastructure pools.
	ips, domains, urls []string
	// Current campaign pools (rotated every CampaignSize events).
	campIPs, campDomains, campURLs []string
	campEvents                     int
	eventSeq                       int
}

// NewWorld generates the complete world for cfg using the default APT
// roster. Generation is deterministic in cfg.Seed.
func NewWorld(cfg WorldConfig) *World {
	if cfg.Months <= 0 || cfg.EventsPerMonth <= 0 {
		panic("osint: WorldConfig must set Months and EventsPerMonth")
	}
	if cfg.StartTime.IsZero() {
		cfg.StartTime = time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	}
	w := &World{
		cfg:         cfg,
		roster:      apt.DefaultRoster(),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		asns:        make(map[int]*asnState),
		ips:         make(map[string]*ipState),
		domains:     make(map[string]*domainState),
		urls:        make(map[string]*urlState),
		countries:   Countries(),
		issuers:     Issuers(),
		fileTypes:   FileTypes(),
		fileClasses: FileClasses(),
		httpCodes:   HTTPCodes(),
		encodings:   Encodings(),
		servers:     Servers(),
		oses:        OSes(),
		services:    ServiceNames(),
		tlds:        TLDs(),
	}
	w.resolver = apt.NewResolver(w.roster)
	w.buildInfrastructure()
	w.generateActivity()
	return w
}

// Roster returns the APT profiles driving the world.
func (w *World) Roster() []apt.Profile { return w.roster }

// Resolver returns the alias resolver for the roster.
func (w *World) Resolver() *apt.Resolver { return w.resolver }

// Pulses returns every generated pulse in creation order.
func (w *World) Pulses() []Pulse { return w.pulses }

// PulsesInMonths returns pulses with lo <= Month < hi.
func (w *World) PulsesInMonths(lo, hi int) []Pulse {
	var out []Pulse
	for _, p := range w.pulses {
		if p.Month >= lo && p.Month < hi {
			out = append(out, p)
		}
	}
	return out
}

// --- generation -----------------------------------------------------------

func (w *World) newASN(country string) *asnState {
	if w.nextASN == 0 {
		w.nextASN = 1000
	}
	a := &asnState{
		Number:  w.nextASN,
		Country: country,
		Issuer:  w.issuers[w.rng.Intn(24)], // realistic head of the vocab
		prefix:  fmt.Sprintf("%d.%d", 11+w.rng.Intn(180), w.rng.Intn(256)),
	}
	w.asns[a.Number] = a
	w.nextASN++
	return a
}

func (w *World) buildInfrastructure() {
	// Global ASN pool: ~6 per group plus shared public ASNs.
	newASN := w.newASN

	w.groups = make([]*groupState, len(w.roster))
	var allASNs []int
	for i, p := range w.roster {
		gs := &groupState{profile: p}
		// Sorted iteration: the loop body draws from the rng, so random
		// map order would scramble the ASN assignment per process run.
		for _, c := range sortedKeys(p.HostCountryWeights) {
			// Hosting providers serve many tenants: with some probability
			// a group rents space in an ASN another group already uses,
			// which is what keeps 4-hop ASN paths from being a pure
			// signal (the paper's LP 4L plateaus at 0.82).
			if len(allASNs) > 4 && w.rng.Float64() < 0.55 {
				gs.asns = append(gs.asns, allASNs[w.rng.Intn(len(allASNs))])
				continue
			}
			a := newASN(c)
			gs.asns = append(gs.asns, a.Number)
			allASNs = append(allASNs, a.Number)
			if w.rng.Float64() < 0.5 {
				b := newASN(c)
				gs.asns = append(gs.asns, b.Number)
				allASNs = append(allASNs, b.Number)
			}
		}
		w.groups[i] = gs
	}

	// Shared public ASNs and IPs: cloud providers and compromised hosts
	// that any group (and plenty of benign traffic) may touch.
	var sharedASNs []int
	for i := 0; i < 6; i++ {
		a := newASN(w.countries[w.rng.Intn(10)])
		sharedASNs = append(sharedASNs, a.Number)
	}
	for i := 0; i < w.cfg.SharedIPs; i++ {
		asn := sharedASNs[w.rng.Intn(len(sharedASNs))]
		addr := w.newIPAddr(asn)
		st := w.registerIP(addr, asn, apt.Unknown, 0)
		// Shared IPs accumulate lots of unrelated benign domains.
		w.attachBenignDomains(st, 2+w.rng.Intn(2*w.cfg.BenignFanout+1), 0)
		w.sharedIPs = append(w.sharedIPs, addr)
	}
}

func (w *World) generateActivity() {
	totalWeight := 0.0
	for _, p := range w.roster {
		totalWeight += p.ActivityWeight
	}
	for m := 0; m < w.cfg.Months; m++ {
		for gi := range w.groups {
			gs := w.groups[gi]
			expected := float64(w.cfg.EventsPerMonth) * gs.profile.ActivityWeight / totalWeight
			n := int(expected)
			if w.rng.Float64() < expected-float64(n) {
				n++
			}
			for e := 0; e < n; e++ {
				w.genEvent(gs, m)
			}
		}
	}
}

func (w *World) genEvent(gs *groupState, month int) {
	p := gs.profile
	gs.campEvents++
	gs.eventSeq++
	if gs.campEvents > p.CampaignSize {
		gs.campEvents = 1
		gs.campIPs = gs.campIPs[:0]
		gs.campDomains = gs.campDomains[:0]
		gs.campURLs = gs.campURLs[:0]
	}

	// Lone events are staged from a scratch state with fresh
	// infrastructure and no links to anything the group used before.
	src := gs
	if w.rng.Float64() < w.cfg.LoneEventRate {
		country := w.weighted(p.HostCountryWeights)
		src = &groupState{
			profile: p,
			asns:    []int{w.newASN(country).Number},
			lone:    true,
		}
	}

	nIOC := w.poissonish(w.cfg.MeanIOCsPerEvent)
	if nIOC < 3 {
		nIOC = 3
	}
	var inds []Indicator
	addIndicator := func(t ioc.Type, value string) {
		wire := value
		if w.rng.Float64() < 0.5 {
			wire = ioc.Defang(value)
		}
		inds = append(inds, Indicator{Indicator: wire, Type: t.String()})
	}

	seen := make(map[string]bool)
	for i := 0; i < nIOC; i++ {
		roll := w.rng.Float64()
		var t ioc.Type
		switch {
		case roll < 0.45:
			t = ioc.TypeURL
		case roll < 0.80:
			t = ioc.TypeDomain
		default:
			t = ioc.TypeIP
		}
		val := w.pickIOC(src, t, month)
		if val == "" || seen[val] {
			continue
		}
		seen[val] = true
		addIndicator(t, val)
	}

	// Cross-group noise: a shared public IP shows up in the report.
	if !src.lone && w.rng.Float64() < w.cfg.CrossNoise && len(w.sharedIPs) > 0 {
		addr := w.sharedIPs[w.rng.Intn(len(w.sharedIPs))]
		if !seen[addr] {
			seen[addr] = true
			addIndicator(ioc.TypeIP, addr)
		}
	}

	// Tags: canonical name or alias, occasionally multiple aliases of the
	// same group (which must still resolve), plus free-form noise tags.
	var tags []string
	if w.rng.Float64() < w.cfg.AliasTagProb && len(p.Aliases) > 0 {
		tags = append(tags, p.Aliases[w.rng.Intn(len(p.Aliases))])
		if w.rng.Float64() < 0.3 {
			tags = append(tags, p.Name)
		}
	} else {
		tags = append(tags, p.Name)
	}
	for _, noise := range []string{"phishing", "c2", "malware", "spearphish"} {
		if w.rng.Float64() < 0.2 {
			tags = append(tags, noise)
		}
	}

	created := w.cfg.StartTime.AddDate(0, month, w.rng.Intn(28))
	w.pulses = append(w.pulses, Pulse{
		ID:         fmt.Sprintf("pulse-%s-%04d", p.Name, gs.eventSeq),
		Name:       fmt.Sprintf("%s activity report #%d", p.Name, gs.eventSeq),
		Created:    created,
		Tags:       tags,
		Indicators: inds,
		TrueAPT:    int(p.ID),
		Month:      month,
	})
}

// pickIOC returns an IOC value of type t for an event: a reused one from
// the campaign/group pools or a freshly created one.
func (w *World) pickIOC(gs *groupState, t ioc.Type, month int) string {
	p := gs.profile
	reuse := p.ReuseRate
	if w.cfg.ReuseScale > 0 {
		reuse *= w.cfg.ReuseScale
	}
	if w.rng.Float64() < reuse {
		if v := w.reuseFromPools(gs, t); v != "" {
			return v
		}
	}
	switch t {
	case ioc.TypeIP:
		return w.newGroupIP(gs, month)
	case ioc.TypeDomain:
		return w.newGroupDomain(gs, month)
	case ioc.TypeURL:
		return w.newGroupURL(gs, month)
	}
	return ""
}

func (w *World) reuseFromPools(gs *groupState, t ioc.Type) string {
	camp, all := gs.campIPs, gs.ips
	switch t {
	case ioc.TypeDomain:
		camp, all = gs.campDomains, gs.domains
	case ioc.TypeURL:
		camp, all = gs.campURLs, gs.urls
	}
	// Prefer the live campaign pool; fall back to the group's history.
	if len(camp) > 0 && (w.rng.Float64() < 0.8 || len(all) == 0) {
		return camp[w.rng.Intn(len(camp))]
	}
	if len(all) > 0 {
		return all[w.rng.Intn(len(all))]
	}
	return ""
}

// --- IOC factories ---------------------------------------------------------

func (w *World) newIPAddr(asn int) string {
	a := w.asns[asn]
	for {
		addr := fmt.Sprintf("%s.%d.%d", a.prefix, w.rng.Intn(256), 1+w.rng.Intn(254))
		if _, exists := w.ips[addr]; !exists {
			return addr
		}
	}
}

func (w *World) registerIP(addr string, asn int, owner apt.ID, month int) *ipState {
	a := w.asns[asn]
	st := &ipState{
		rec: IPRecord{
			Addr:    addr,
			ASN:     asn,
			Country: a.Country,
			Issuer:  a.Issuer,
			Lat:     -60 + w.rng.Float64()*120,
			Lon:     -180 + w.rng.Float64()*360,
		},
		owner: owner,
		month: month,
	}
	// Feature noise: lookup services sometimes disagree with the ASN's
	// registration country or issuer.
	if w.rng.Float64() < w.cfg.FeatureNoise {
		st.rec.Country = w.headBiased(w.countries, 40)
	}
	if w.rng.Float64() < w.cfg.FeatureNoise {
		st.rec.Issuer = w.headBiased(w.issuers, 24)
	}
	w.ips[addr] = st
	return st
}

func (w *World) newGroupIP(gs *groupState, month int) string {
	asn := gs.asns[w.rng.Intn(len(gs.asns))]
	addr := w.newIPAddr(asn)
	st := w.registerIP(addr, asn, gs.profile.ID, month)
	w.attachBenignDomains(st, w.poissonish(w.cfg.BenignFanout), month)
	gs.ips = append(gs.ips, addr)
	gs.campIPs = append(gs.campIPs, addr)
	return addr
}

// hostingIP returns an IP to host a new resource on: with CrossHostRate a
// foreign or shared IP (compromised/rented shared hosting, which plants
// misleading indirect-reuse paths), with InfraReuseRate an IP the group
// already controls (true indirect reuse), otherwise a new one.
func (w *World) hostingIP(gs *groupState, month int) string {
	if !gs.lone && w.rng.Float64() < w.cfg.CrossHostRate {
		if addr := w.foreignIP(gs); addr != "" {
			return addr
		}
	}
	infra := gs.profile.InfraReuseRate
	if w.cfg.InfraScale > 0 {
		infra *= w.cfg.InfraScale
	}
	if len(gs.ips) > 0 && w.rng.Float64() < infra {
		if len(gs.campIPs) > 0 && w.rng.Float64() < 0.7 {
			return gs.campIPs[w.rng.Intn(len(gs.campIPs))]
		}
		return gs.ips[w.rng.Intn(len(gs.ips))]
	}
	return w.newGroupIP(gs, month)
}

// foreignIP picks an IP the group does not control: the shared public
// pool or another group's infrastructure.
func (w *World) foreignIP(gs *groupState) string {
	if len(w.sharedIPs) > 0 && w.rng.Float64() < 0.5 {
		return w.sharedIPs[w.rng.Intn(len(w.sharedIPs))]
	}
	for attempt := 0; attempt < 4; attempt++ {
		other := w.groups[w.rng.Intn(len(w.groups))]
		if other == gs || len(other.ips) == 0 {
			continue
		}
		return other.ips[w.rng.Intn(len(other.ips))]
	}
	if len(w.sharedIPs) > 0 {
		return w.sharedIPs[w.rng.Intn(len(w.sharedIPs))]
	}
	return ""
}

// foreignDomain picks a domain the group does not own: another group's
// domain or a benign one (a compromised legitimate site). Returns "" if
// the world has none yet.
func (w *World) foreignDomain(gs *groupState) string {
	for attempt := 0; attempt < 4; attempt++ {
		other := w.groups[w.rng.Intn(len(w.groups))]
		if other == gs || len(other.domains) == 0 {
			continue
		}
		return other.domains[w.rng.Intn(len(other.domains))]
	}
	// Fall back to a benign domain hanging off a shared IP.
	for _, addr := range w.sharedIPs {
		if ds := w.ips[addr].domains; len(ds) > 0 {
			return ds[w.rng.Intn(len(ds))]
		}
	}
	return ""
}

func (w *World) newGroupDomain(gs *groupState, month int) string {
	p := gs.profile
	name := w.uniqueDomain(func() string {
		label := genLabel(w.rng, p.DGAEntropy, p.DGADigits, p.DomainLen)
		tld := w.weighted(p.TLDWeights)
		if w.rng.Float64() < w.cfg.FeatureNoise {
			tld = w.headBiased(w.tlds, 33)
		}
		if w.rng.Float64() < 0.25 {
			sub := genLabel(w.rng, p.DGAEntropy, p.DGADigits, 5)
			return sub + "." + label + "." + tld
		}
		return label + "." + tld
	})

	nA := 1
	if w.rng.Float64() < 0.3 {
		nA = 2
	}
	var arecords []string
	for i := 0; i < nA; i++ {
		arecords = append(arecords, w.hostingIP(gs, month))
	}
	st := &domainState{
		rec: DomainRecord{
			Name:      name,
			ARecords:  arecords,
			FirstSeen: w.cfg.StartTime.AddDate(0, month, 0),
			LastSeen:  w.cfg.StartTime.AddDate(0, month+w.rng.Intn(4), w.rng.Intn(28)),
			NXDomain:  w.rng.Float64() < 0.35,
			Registrar: w.headBiased(w.issuers, 24),
		},
		month: month,
	}
	st.rec.Counts = DNSRecordCounts{
		A:     nA,
		AAAA:  w.rng.Intn(2),
		CNAME: 0,
		MX:    w.rng.Intn(3),
		NS:    1 + w.rng.Intn(3),
		TXT:   w.rng.Intn(4),
		SOA:   1,
	}
	if len(gs.domains) > 0 && w.rng.Float64() < 0.15 {
		st.rec.CNAME = gs.domains[w.rng.Intn(len(gs.domains))]
		st.rec.Counts.CNAME = 1
	}
	w.domains[name] = st
	for _, ip := range arecords {
		w.ips[ip].domains = append(w.ips[ip].domains, name)
	}
	gs.domains = append(gs.domains, name)
	gs.campDomains = append(gs.campDomains, name)
	return name
}

func (w *World) newGroupURL(gs *groupState, month int) string {
	p := gs.profile

	var host string
	var hostDomain string
	var resolves []string
	if w.rng.Float64() < 0.85 {
		// Host on a domain: usually the group's own (preferring live
		// campaign domains), but sometimes a compromised legitimate site
		// or another group's domain — the "typical, yet weak-confidence"
		// behaviour the paper's case study describes. Those hostings
		// plant misleading 3-hop paths between unrelated events.
		switch {
		case !gs.lone && w.rng.Float64() < w.cfg.CrossHostRate*0.8:
			hostDomain = w.foreignDomain(gs)
		case len(gs.campDomains) > 0 && w.rng.Float64() < 0.6:
			hostDomain = gs.campDomains[w.rng.Intn(len(gs.campDomains))]
		}
		if hostDomain == "" {
			hostDomain = w.newGroupDomain(gs, month)
		}
		host = hostDomain
		resolves = append([]string(nil), w.domains[hostDomain].rec.ARecords...)
	} else {
		ip := w.hostingIP(gs, month)
		host = ip
		resolves = []string{ip}
	}

	scheme := "http"
	if w.rng.Float64() < 0.4 {
		scheme = "https"
	}
	path := ""
	depth := 1 + w.rng.Intn(p.URLDepth+1)
	for i := 0; i < depth; i++ {
		path += "/" + genPathSegment(w.rng, p.DGAEntropy, p.DGADigits)
	}
	ftype := w.sampleCat(p.FileTypeWeights, w.fileTypes, 44)
	path += "." + ftype
	if w.rng.Float64() < 0.3 {
		path += fmt.Sprintf("?%s=%d", genPathSegment(w.rng, 1, 0.5), w.rng.Intn(1000))
	}
	url := scheme + "://" + host + path
	if _, exists := w.urls[url]; exists {
		return url
	}

	code := 200
	alive := w.rng.Float64() < 0.7
	if !alive {
		codes := []int{404, 410, 503, 403}
		code = codes[w.rng.Intn(len(codes))]
	}
	// Sorted iteration: ranging the map directly would pair each rng draw
	// with a different service on every run of the process.
	var svcs []string
	for _, s := range sortedKeys(p.ServiceWeights) {
		if w.rng.Float64() < 0.6 {
			svcs = append(svcs, s)
		}
	}
	if w.rng.Float64() < w.cfg.FeatureNoise {
		svcs = append(svcs, w.headBiased(w.services, 18))
	}
	st := &urlState{
		rec: URLRecord{
			URL:        url,
			Alive:      alive,
			HTTPCode:   code,
			FileType:   ftype,
			FileClass:  fileClassOf(ftype),
			Encoding:   w.sampleCat(p.EncodingWeights, w.encodings, 6),
			Server:     w.sampleCat(p.ServerWeights, w.servers, 17),
			ServerOS:   w.sampleCat(p.OSWeights, w.oses, 13),
			Services:   svcs,
			ResolvesTo: resolves,
			HostDomain: hostDomain,
		},
		owner: p.ID,
		month: month,
	}
	w.urls[url] = st
	gs.urls = append(gs.urls, url)
	gs.campURLs = append(gs.campURLs, url)
	return url
}

// attachBenignDomains registers n benign domains whose passive DNS points
// at ip. With small probability a benign domain is shared with another
// random IP already in the world, modelling shared hosting (a source of
// cross-group noise paths).
func (w *World) attachBenignDomains(ip *ipState, n int, month int) {
	for i := 0; i < n; i++ {
		name := w.uniqueDomain(func() string {
			return genLabel(w.rng, 0.2, 0.05, 8+w.rng.Intn(5)) + "." + w.headBiased(w.tlds, 33)
		})
		st := &domainState{
			rec: DomainRecord{
				Name:      name,
				ARecords:  []string{ip.rec.Addr},
				FirstSeen: w.cfg.StartTime.AddDate(0, month, 0),
				LastSeen:  w.cfg.StartTime.AddDate(0, month+w.rng.Intn(6), 0),
				NXDomain:  w.rng.Float64() < 0.1,
				Registrar: w.headBiased(w.issuers, 24),
				Counts: DNSRecordCounts{
					A: 1, NS: 2, SOA: 1, MX: w.rng.Intn(2), TXT: w.rng.Intn(2),
				},
			},
			month: month,
		}
		w.domains[name] = st
		ip.domains = append(ip.domains, name)
		if w.rng.Float64() < 0.12 && len(w.sharedIPs) > 0 {
			other := w.sharedIPs[w.rng.Intn(len(w.sharedIPs))]
			if other != ip.rec.Addr {
				st.rec.ARecords = append(st.rec.ARecords, other)
				st.rec.Counts.A++
				w.ips[other].domains = append(w.ips[other].domains, name)
			}
		}
	}
}

// --- sampling helpers -------------------------------------------------------

func (w *World) uniqueDomain(gen func() string) string {
	for i := 0; ; i++ {
		name := gen()
		if i > 20 {
			name = fmt.Sprintf("x%d%s", len(w.domains), name)
		}
		if _, ok := w.domains[name]; !ok {
			if _, valid := ioc.CanonicalDomain(name); valid {
				return name
			}
		}
	}
}

// weighted samples a key from a weight map.
func (w *World) weighted(weights map[string]float64) string {
	// Map iteration order is random per run of the process; to keep the
	// world deterministic in the seed, both the total (float addition is
	// not associative, and an ulp shift in total can flip a boundary
	// draw) and the selection scan iterate keys in sorted order.
	keys := sortedKeys(weights)
	total := 0.0
	for _, k := range keys {
		total += weights[k]
	}
	r := w.rng.Float64() * total
	for _, k := range keys {
		r -= weights[k]
		if r <= 0 {
			return k
		}
	}
	// Rounding can leave r marginally positive after the scan; fall back
	// to the last key deterministically rather than a map-order pick.
	if len(keys) > 0 {
		return keys[len(keys)-1]
	}
	return ""
}

// sampleCat draws from profile weights, or (with FeatureNoise) uniformly
// from the head of the global vocabulary.
func (w *World) sampleCat(weights map[string]float64, vocab []string, head int) string {
	if w.rng.Float64() < w.cfg.FeatureNoise {
		return w.headBiased(vocab, head)
	}
	return w.weighted(weights)
}

// headBiased samples mostly from the first `head` entries of vocab but
// with a 10% chance anywhere, producing the realistic long tail.
func (w *World) headBiased(vocab []string, head int) string {
	if head > len(vocab) {
		head = len(vocab)
	}
	if w.rng.Float64() < 0.1 {
		return vocab[w.rng.Intn(len(vocab))]
	}
	return vocab[w.rng.Intn(head)]
}

// poissonish returns a cheap Poisson-like sample with the given mean.
func (w *World) poissonish(mean int) int {
	if mean <= 0 {
		return 0
	}
	n := 0
	for i := 0; i < 2*mean; i++ {
		if w.rng.Float64() < 0.5 {
			n++
		}
	}
	return n
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort: maps here have <= 8 keys
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fileClassOf(ftype string) string {
	switch ftype {
	case "php", "js", "jsp", "asp", "aspx", "vbs", "ps1", "sh", "py", "bat":
		return "script"
	case "exe", "dll", "bin", "scr", "msi", "apk", "jar":
		return "binary"
	case "doc", "docx", "pdf", "xls", "xlsx", "ppt", "rtf", "txt", "chm":
		return "document"
	case "zip", "rar", "7z", "iso", "img", "cab":
		return "archive"
	case "html", "css", "xml", "json":
		return "webpage"
	case "gif", "png", "jpg", "swf":
		return "image"
	default:
		return "data"
	}
}

// --- Services implementation -------------------------------------------------

var _ Services = (*World)(nil)

// LookupIP implements Services.
func (w *World) LookupIP(addr string) (IPRecord, bool) {
	st, ok := w.ips[addr]
	if !ok {
		return IPRecord{}, false
	}
	return st.rec, true
}

// PassiveDNSDomain implements Services.
func (w *World) PassiveDNSDomain(name string) (DomainRecord, bool) {
	st, ok := w.domains[name]
	if !ok {
		return DomainRecord{}, false
	}
	rec := st.rec
	rec.ARecords = append([]string(nil), st.rec.ARecords...)
	return rec, true
}

// PassiveDNSIP implements Services.
func (w *World) PassiveDNSIP(addr string) ([]string, bool) {
	st, ok := w.ips[addr]
	if !ok {
		return nil, false
	}
	return append([]string(nil), st.domains...), true
}

// ProbeURL implements Services.
func (w *World) ProbeURL(url string) (URLRecord, bool) {
	st, ok := w.urls[url]
	if !ok {
		return URLRecord{}, false
	}
	rec := st.rec
	rec.Services = append([]string(nil), st.rec.Services...)
	rec.ResolvesTo = append([]string(nil), st.rec.ResolvesTo...)
	return rec, true
}
