// Package feature converts enriched IOC records into the fixed-width
// feature vectors described in §IV-B of the paper:
//
//   - IPs:     507 features (249 country one-hot, 250 issuer one-hot,
//     8 numeric/geo features).
//   - URLs:    1,517 features (106 file type, 21 file class, 68 HTTP
//     response code, 12 encoding, 944 server, 50 server OS, 183 services
//     multi-hot, 100 TLD, 10 lexical, 23 numeric/derived).
//   - Domains: 115 features (100 TLD one-hot, 9 passive-DNS record-type
//     counts, 1 NXDOMAIN flag, 4 lexical, 1 engineered active-period).
//
// The Extractor queries an osint.Services enrichment backend, so the same
// code path runs over the synthetic world in this repository or any
// future real data provider.
package feature

import (
	"math"

	"trail/internal/ioc"
	"trail/internal/osint"
)

// Feature vector dimensionalities, matching the paper.
const (
	IPDim     = osint.NumCountries + osint.NumIssuers + 8                                                                                                                            // 507
	URLDim    = osint.NumFileTypes + osint.NumFileClasses + osint.NumHTTPCodes + osint.NumEncodings + osint.NumServers + osint.NumOSes + osint.NumServices + osint.NumTLDs + 10 + 23 // 1517
	DomainDim = osint.NumTLDs + 9 + 1 + 4 + 1                                                                                                                                        // 115
)

// Extractor computes feature vectors by querying an enrichment backend.
// It is stateless apart from the immutable vocabulary indexes and safe
// for concurrent use.
type Extractor struct {
	svc osint.Services

	countryIdx, issuerIdx, ftypeIdx, fclassIdx, codeIdx map[string]int
	encIdx, serverIdx, osIdx, svcIdx, tldIdx            map[string]int
}

// NewExtractor builds an Extractor over the given enrichment services.
func NewExtractor(svc osint.Services) *Extractor {
	return &Extractor{
		svc:        svc,
		countryIdx: indexOf(osint.Countries()),
		issuerIdx:  indexOf(osint.Issuers()),
		ftypeIdx:   indexOf(osint.FileTypes()),
		fclassIdx:  indexOf(osint.FileClasses()),
		codeIdx:    indexOf(osint.HTTPCodes()),
		encIdx:     indexOf(osint.Encodings()),
		serverIdx:  indexOf(osint.Servers()),
		osIdx:      indexOf(osint.OSes()),
		svcIdx:     indexOf(osint.ServiceNames()),
		tldIdx:     indexOf(osint.TLDs()),
	}
}

func indexOf(vocab []string) map[string]int {
	m := make(map[string]int, len(vocab))
	for i, v := range vocab {
		m[v] = i
	}
	return m
}

func setOneHot(dst []float64, idx map[string]int, key string) {
	if i, ok := idx[key]; ok {
		dst[i] = 1
	}
}

// IP returns the 507-dimensional feature vector for an IP address. The
// second result reports whether enrichment data was available; when it is
// not, the vector is all-zero (an "unknown" IOC still participates in the
// graph, just featurelessly, as in the paper's pipeline).
func (e *Extractor) IP(addr string) ([]float64, bool) {
	v := make([]float64, IPDim)
	rec, ok := e.svc.LookupIP(addr)
	if !ok {
		return v, false
	}
	off := 0
	setOneHot(v[off:off+osint.NumCountries], e.countryIdx, rec.Country)
	off += osint.NumCountries
	setOneHot(v[off:off+osint.NumIssuers], e.issuerIdx, rec.Issuer)
	off += osint.NumIssuers

	pdns, _ := e.svc.PassiveDNSIP(addr)
	misc := v[off:]
	misc[0] = rec.Lat / 90
	misc[1] = rec.Lon / 180
	misc[2] = boolF(rec.ASN != 0)
	misc[3] = boolF(rec.Issuer != "")
	misc[4] = boolF(rec.Country != "")
	misc[5] = math.Log1p(float64(len(pdns)))
	misc[6] = boolF(len(pdns) > 0)
	misc[7] = 1 // bias/known flag
	return v, true
}

// Domain returns the 115-dimensional feature vector for a domain name.
func (e *Extractor) Domain(name string) ([]float64, bool) {
	v := make([]float64, DomainDim)
	rec, ok := e.svc.PassiveDNSDomain(name)
	if !ok {
		// Lexical features are still computable from the name itself.
		e.fillDomainLexical(v, name)
		return v, false
	}
	off := 0
	setOneHot(v[off:off+osint.NumTLDs], e.tldIdx, ioc.TLD(name))
	off += osint.NumTLDs
	copy(v[off:off+9], rec.Counts.Vector())
	off += 9
	v[off] = boolF(rec.NXDomain)
	off++
	e.fillDomainLexicalAt(v, off, name)
	off += 4
	// Engineered "active period" feature (§VI-A preprocessing): days
	// between first and last passive-DNS sighting, log-scaled.
	period := rec.LastSeen.Sub(rec.FirstSeen).Hours() / 24
	if period < 0 {
		period = 0
	}
	v[off] = math.Log1p(period)
	return v, true
}

func (e *Extractor) fillDomainLexical(v []float64, name string) {
	setOneHot(v[:osint.NumTLDs], e.tldIdx, ioc.TLD(name))
	e.fillDomainLexicalAt(v, osint.NumTLDs+9+1, name)
}

func (e *Extractor) fillDomainLexicalAt(v []float64, off int, name string) {
	lex := ioc.LexicalFeatures(name).DomainVector()
	copy(v[off:off+4], lex)
}

// URL returns the 1,517-dimensional feature vector for a URL.
func (e *Extractor) URL(raw string) ([]float64, bool) {
	v := make([]float64, URLDim)
	u, parsed := ioc.ParseURL(raw)
	rec, ok := e.svc.ProbeURL(raw)

	off := 0
	if ok {
		setOneHot(v[off:off+osint.NumFileTypes], e.ftypeIdx, rec.FileType)
	}
	off += osint.NumFileTypes
	if ok {
		setOneHot(v[off:off+osint.NumFileClasses], e.fclassIdx, rec.FileClass)
	}
	off += osint.NumFileClasses
	if ok {
		setOneHot(v[off:off+osint.NumHTTPCodes], e.codeIdx, itoa(rec.HTTPCode))
	}
	off += osint.NumHTTPCodes
	if ok {
		setOneHot(v[off:off+osint.NumEncodings], e.encIdx, rec.Encoding)
	}
	off += osint.NumEncodings
	if ok {
		setOneHot(v[off:off+osint.NumServers], e.serverIdx, rec.Server)
	}
	off += osint.NumServers
	if ok {
		setOneHot(v[off:off+osint.NumOSes], e.osIdx, rec.ServerOS)
	}
	off += osint.NumOSes
	if ok {
		for _, s := range rec.Services {
			setOneHot(v[off:off+osint.NumServices], e.svcIdx, s)
		}
	}
	off += osint.NumServices
	if parsed && !u.HostIsIP {
		setOneHot(v[off:off+osint.NumTLDs], e.tldIdx, ioc.TLD(u.Host))
	}
	off += osint.NumTLDs

	lex := ioc.LexicalFeatures(raw)
	copy(v[off:off+10], lex.Vector())
	off += 10

	misc := v[off:]
	if parsed {
		misc[0] = boolF(u.Scheme == "https")
		misc[2] = boolF(u.HostIsIP)
		misc[3] = boolF(u.Port != "")
		misc[5] = boolF(u.Query != "")
		misc[9] = float64(len(u.FileExt()))
		misc[10] = float64(len(u.Host)) / 253
		misc[11] = float64(len(u.Path)) / 200
		misc[12] = float64(countByte(u.Query, '&'))
		if !u.HostIsIP {
			hostLex := ioc.LexicalFeatures(u.Host)
			misc[13] = hostLex.Dots
			misc[14] = hostLex.Entropy
			misc[15] = hostLex.DigitRatio
			misc[16] = maxLabelLen(u.Host)
		}
	}
	if ok {
		misc[1] = boolF(rec.Alive)
		misc[4] = math.Log1p(float64(len(rec.ResolvesTo)))
		misc[6] = boolF(rec.HTTPCode == 200)
		misc[7] = boolF(rec.HTTPCode == 404 || rec.HTTPCode == 410)
		misc[8] = boolF(rec.HTTPCode >= 500)
		misc[17] = float64(len(rec.Services))
		misc[18] = boolF(rec.HostDomain != "")
		misc[19] = boolF(rec.Encoding != "")
		misc[20] = boolF(rec.Server != "")
		misc[21] = boolF(rec.ServerOS != "")
		misc[22] = 1 // probe-known flag
	}
	return v, ok
}

// Extract dispatches on IOC type. ASN and event nodes have no features.
func (e *Extractor) Extract(i ioc.IOC) ([]float64, bool) {
	switch i.Type {
	case ioc.TypeIP:
		return e.IP(i.Value)
	case ioc.TypeURL:
		return e.URL(i.Value)
	case ioc.TypeDomain:
		return e.Domain(i.Value)
	default:
		return nil, false
	}
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func countByte(s string, c byte) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			n++
		}
	}
	return n
}

func maxLabelLen(host string) float64 {
	max, cur := 0, 0
	for i := 0; i <= len(host); i++ {
		if i == len(host) || host[i] == '.' {
			if cur > max {
				max = cur
			}
			cur = 0
			continue
		}
		cur++
	}
	return float64(max)
}
