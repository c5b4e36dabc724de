// Package apt defines the roster of advanced persistent threat (APT)
// groups the reproduction tracks, together with the per-group behavioural
// profiles that drive the synthetic OSINT world.
//
// The paper's TKG covers 22 APTs discovered by searching AlienVault OTX
// for APT names and their aliases (§IV-A). We model the same roster size
// and, where the paper names groups (APT28, APT29, APT37, APT38, APT27,
// KIMSUKY, FIN11, TA511), we use those names so the case-study
// experiments read like the paper's.
//
// A Profile is a bundle of behavioural biases: where the group registers
// domains, which hosting countries and ASNs it favours, what server
// stacks it runs, how its DGA names look, and how aggressively it reuses
// infrastructure. These are exactly the signals the paper's feature
// engineering is designed to surface, so generating data from them lets
// every downstream model exercise the same causal pathway the real system
// relies on.
package apt

import (
	"fmt"
	"strings"
)

// ID is an APT class index in [0, Count).
type ID int

// Unknown marks an unattributed or multi-attributed label slot.
const Unknown ID = -1

// Profile describes one threat group's observable behaviour. Weights are
// relative (they need not sum to 1); the osint generator normalises them.
type Profile struct {
	ID      ID
	Name    string
	Aliases []string
	// Country is the group's publicly attributed country of origin. It
	// biases, but does not determine, hosting choices.
	Country string

	// TLDWeights biases which top-level domains the group registers.
	TLDWeights map[string]float64
	// HostCountryWeights biases which countries host the group's servers.
	HostCountryWeights map[string]float64
	// ServerWeights biases the web-server software observed when probing
	// the group's URLs (nginx, Apache, IIS, ...).
	ServerWeights map[string]float64
	// OSWeights biases the server operating system.
	OSWeights map[string]float64
	// EncodingWeights biases the content encoding of hosted files.
	EncodingWeights map[string]float64
	// FileTypeWeights biases the file types hosted at the group's URLs.
	FileTypeWeights map[string]float64
	// IssuerWeights biases which IP issuers (hosting providers) the group
	// rents addresses from.
	IssuerWeights map[string]float64
	// ServiceWeights biases the additional services found on the group's
	// servers.
	ServiceWeights map[string]float64

	// DGAEntropy in [0,1] scales how random the group's generated domain
	// labels look (0 = dictionary words, 1 = uniform random).
	DGAEntropy float64
	// DGADigits in [0,1] is the probability a generated label character is
	// a digit.
	DGADigits float64
	// DomainLen is the typical second-level-domain label length.
	DomainLen int
	// URLDepth is the typical path depth of the group's URLs.
	URLDepth int

	// ReuseRate in [0,1] is the probability an event reuses an IOC from
	// the same group's earlier events (direct resource reuse — what LP 2L
	// measures).
	ReuseRate float64
	// InfraReuseRate in [0,1] is the probability a *new* IOC is hosted on
	// infrastructure (IPs, ASNs) the group used before (indirect reuse —
	// what LP 3L/4L and the GNN exploit).
	InfraReuseRate float64
	// ActivityWeight scales how many events per month the group produces.
	ActivityWeight float64
	// CampaignSize is the typical number of events sharing one campaign's
	// infrastructure pool.
	CampaignSize int
}

// Count is the number of APTs in the default roster, matching the paper's
// 22 groups.
const Count = 22

// DefaultRoster returns the 22-group roster. The returned slice is
// freshly allocated; callers may modify it.
func DefaultRoster() []Profile {
	specs := []struct {
		name    string
		aliases []string
		country string
		tlds    []string
		hosts   []string
		servers []string
		dgaE    float64
		dgaD    float64
		dlen    int
		reuse   float64
		infra   float64
		act     float64
	}{
		{"APT28", []string{"Fancy Bear", "Sofacy", "Pawn Storm"}, "RU",
			[]string{"com", "net", "org", "club"}, []string{"LV", "RO", "NL"},
			[]string{"nginx", "apache"}, 0.85, 0.35, 9, 0.30, 0.55, 1.4},
		{"APT29", []string{"Cozy Bear", "The Dukes", "NOBELIUM"}, "RU",
			[]string{"com", "org", "online"}, []string{"NL", "DE", "US"},
			[]string{"nginx", "caddy"}, 0.55, 0.15, 11, 0.22, 0.48, 1.2},
		{"TURLA", []string{"Snake", "Venomous Bear"}, "RU",
			[]string{"net", "com", "info"}, []string{"DE", "CZ", "RU"},
			[]string{"apache", "nginx"}, 0.45, 0.10, 10, 0.35, 0.50, 0.8},
		{"SANDWORM", []string{"Voodoo Bear", "IRIDIUM"}, "RU",
			[]string{"com", "su", "ru"}, []string{"RU", "BG", "FR"},
			[]string{"nginx", "lighttpd"}, 0.70, 0.25, 8, 0.28, 0.52, 0.9},
		{"GAMAREDON", []string{"Primitive Bear", "Shuckworm"}, "RU",
			[]string{"ru", "site", "xyz"}, []string{"RU", "UA"},
			[]string{"apache", "nginx"}, 0.90, 0.45, 7, 0.40, 0.60, 1.6},
		{"APT38", []string{"Lazarus", "Hidden Cobra", "ZINC"}, "KP",
			[]string{"com", "org", "biz"}, []string{"CN", "HK", "IN"},
			[]string{"apache", "iis"}, 0.60, 0.20, 9, 0.38, 0.62, 1.8},
		{"APT37", []string{"Reaper", "ScarCruft", "Group123"}, "KP",
			[]string{"com", "net", "kr"}, []string{"KR", "CN", "JP"},
			[]string{"apache", "nginx"}, 0.58, 0.22, 8, 0.30, 0.58, 1.0},
		{"KIMSUKY", []string{"Velvet Chollima", "Thallium"}, "KP",
			[]string{"com", "online", "space"}, []string{"KR", "CN", "US"},
			[]string{"apache", "litespeed"}, 0.62, 0.30, 10, 0.33, 0.57, 1.1},
		{"APT27", []string{"Emissary Panda", "LuckyMouse"}, "CN",
			[]string{"com", "net", "top"}, []string{"CN", "HK", "SG"},
			[]string{"iis", "nginx"}, 0.50, 0.18, 9, 0.26, 0.50, 0.7},
		{"APT41", []string{"Double Dragon", "Wicked Panda"}, "CN",
			[]string{"com", "net", "cc"}, []string{"CN", "HK", "US"},
			[]string{"nginx", "iis"}, 0.65, 0.28, 10, 0.30, 0.54, 1.3},
		{"APT40", []string{"Leviathan", "Kryptonite Panda"}, "CN",
			[]string{"com", "org", "asia"}, []string{"CN", "MY", "SG"},
			[]string{"iis", "apache"}, 0.52, 0.16, 9, 0.24, 0.49, 0.8},
		{"APT30", []string{"Naikon adjacent", "Override Panda"}, "CN",
			[]string{"com", "info", "net"}, []string{"CN", "TH", "VN"},
			[]string{"apache", "iis"}, 0.48, 0.14, 8, 0.27, 0.45, 0.5},
		{"APT33", []string{"Elfin", "Peach Sandstorm"}, "IR",
			[]string{"com", "net", "site"}, []string{"IR", "TR", "NL"},
			[]string{"nginx", "apache"}, 0.68, 0.26, 9, 0.29, 0.51, 0.8},
		{"APT34", []string{"OilRig", "Helix Kitten"}, "IR",
			[]string{"com", "org", "me"}, []string{"IR", "AE", "DE"},
			[]string{"apache", "nginx"}, 0.55, 0.20, 10, 0.31, 0.53, 0.9},
		{"APT35", []string{"Charming Kitten", "Phosphorus"}, "IR",
			[]string{"com", "live", "online"}, []string{"IR", "US", "DE"},
			[]string{"nginx", "litespeed"}, 0.60, 0.24, 11, 0.27, 0.50, 1.0},
		{"APT32", []string{"OceanLotus", "SeaLotus"}, "VN",
			[]string{"com", "net", "vn"}, []string{"VN", "SG", "JP"},
			[]string{"nginx", "apache"}, 0.57, 0.19, 9, 0.25, 0.47, 0.7},
		{"APT39", []string{"Chafer", "Remix Kitten"}, "IR",
			[]string{"com", "net", "org"}, []string{"IR", "TR", "GB"},
			[]string{"apache", "iis"}, 0.50, 0.15, 8, 0.28, 0.46, 0.5},
		{"FIN6", []string{"Skeleton Spider", "ITG08"}, "XX",
			[]string{"com", "shop", "net"}, []string{"US", "CA", "GB"},
			[]string{"nginx", "apache"}, 0.72, 0.32, 9, 0.26, 0.44, 0.6},
		{"FIN7", []string{"Carbanak", "Sangria Tempest"}, "XX",
			[]string{"com", "biz", "net"}, []string{"US", "DE", "FR"},
			[]string{"apache", "nginx"}, 0.66, 0.28, 10, 0.30, 0.48, 1.0},
		{"FIN8", []string{"Syssphinx"}, "XX",
			[]string{"com", "net", "info"}, []string{"US", "NL", "GB"},
			[]string{"nginx", "iis"}, 0.63, 0.25, 9, 0.27, 0.45, 0.5},
		{"FIN11", []string{"Clop adjacent", "TA505 splinter"}, "XX",
			[]string{"com", "xyz", "top"}, []string{"RU", "NL", "US"},
			[]string{"nginx", "apache"}, 0.80, 0.40, 8, 0.35, 0.55, 0.9},
		{"TA511", []string{"Hancitor operators"}, "XX",
			[]string{"com", "ru", "net"}, []string{"RU", "US", "DE"},
			[]string{"apache", "nginx"}, 0.75, 0.38, 9, 0.32, 0.52, 0.6},
	}
	if len(specs) != Count {
		panic(fmt.Sprintf("apt: roster has %d entries, want %d", len(specs), Count))
	}

	profiles := make([]Profile, len(specs))
	for i, s := range specs {
		p := Profile{
			ID:             ID(i),
			Name:           s.name,
			Aliases:        s.aliases,
			Country:        s.country,
			DGAEntropy:     s.dgaE,
			DGADigits:      s.dgaD,
			DomainLen:      s.dlen,
			URLDepth:       1 + i%3,
			ReuseRate:      s.reuse,
			InfraReuseRate: s.infra,
			ActivityWeight: s.act,
			CampaignSize:   3 + i%4,
		}
		p.TLDWeights = rankWeights(s.tlds)
		p.HostCountryWeights = rankWeights(s.hosts)
		p.ServerWeights = rankWeights(s.servers)
		p.OSWeights = rankWeights(pick2(i, []string{"linux", "ubuntu", "debian", "centos", "windows", "freebsd"}))
		p.EncodingWeights = rankWeights(pick2(i, []string{"gzip", "identity", "deflate", "br"}))
		p.FileTypeWeights = rankWeights(pick3(i, []string{"php", "html", "exe", "zip", "js", "doc", "pdf", "jsp", "asp", "rar"}))
		p.IssuerWeights = rankWeights(pick2(i, []string{"hostkey", "ovh", "digitalocean", "choopa", "leaseweb", "alibaba", "selectel", "hetzner"}))
		p.ServiceWeights = rankWeights(pick2(i, []string{"ssh", "ftp", "rdp", "smtp", "dns", "telnet"}))
		profiles[i] = p
	}
	return profiles
}

// rankWeights turns an ordered preference list into geometric weights:
// first choice weight 1, second 1/2, third 1/4, ...
func rankWeights(prefs []string) map[string]float64 {
	w := make(map[string]float64, len(prefs))
	v := 1.0
	for _, p := range prefs {
		w[p] += v
		v /= 2
	}
	return w
}

func pick2(seed int, pool []string) []string {
	a := seed % len(pool)
	b := (seed*7 + 3) % len(pool)
	if b == a {
		b = (b + 1) % len(pool)
	}
	return []string{pool[a], pool[b]}
}

func pick3(seed int, pool []string) []string {
	out := pick2(seed, pool)
	c := (seed*13 + 5) % len(pool)
	for c == (seed%len(pool)) || pool[c] == out[1] {
		c = (c + 1) % len(pool)
	}
	return append(out, pool[c])
}

// Resolver maps event tags (APT names and aliases, case-insensitive) to
// roster IDs, implementing the paper's tag-resolution rule: an event with
// tags mapping to more than one distinct APT is discarded.
type Resolver struct {
	byAlias map[string]ID
	names   []string
}

// NewResolver builds a Resolver over the given roster.
func NewResolver(roster []Profile) *Resolver {
	r := &Resolver{byAlias: make(map[string]ID), names: make([]string, len(roster))}
	for _, p := range roster {
		r.names[p.ID] = p.Name
		r.byAlias[strings.ToLower(p.Name)] = p.ID
		for _, a := range p.Aliases {
			r.byAlias[strings.ToLower(a)] = p.ID
		}
	}
	return r
}

// Resolve maps a single tag to an APT ID.
func (r *Resolver) Resolve(tag string) (ID, bool) {
	id, ok := r.byAlias[strings.ToLower(strings.TrimSpace(tag))]
	return id, ok
}

// ResolveTags applies the paper's rule to a tag list: return the unique
// APT all recognised tags map to, or ok=false if none map or two map to
// different APTs.
func (r *Resolver) ResolveTags(tags []string) (ID, bool) {
	found := Unknown
	for _, t := range tags {
		id, ok := r.Resolve(t)
		if !ok {
			continue
		}
		if found != Unknown && found != id {
			return Unknown, false
		}
		found = id
	}
	return found, found != Unknown
}

// Names returns the canonical names in roster order.
func (r *Resolver) Names() []string { return append([]string(nil), r.names...) }
