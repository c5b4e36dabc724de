// Package ioc defines the value types for network-based indicators of
// compromise (IOCs) — IP addresses, URLs, domains and ASNs — together with
// the parsing utilities the TRAIL pipeline needs: defanging/refanging,
// indicator classification, URL decomposition (the HostedOn relation of
// Table I is derived lexically from URLs), and validation.
package ioc

import (
	"net/netip"
	"strings"
)

// Type enumerates the IOC categories tracked by the TKG.
type Type uint8

// IOC types. Event is not an IOC but shares the identifier space in
// incident reports, so parsing code can classify it too.
const (
	TypeUnknown Type = iota
	TypeIP
	TypeURL
	TypeDomain
	TypeASN
)

// String returns the type name used in OTX-style pulse JSON.
func (t Type) String() string {
	switch t {
	case TypeIP:
		return "IPv4"
	case TypeURL:
		return "URL"
	case TypeDomain:
		return "domain"
	case TypeASN:
		return "ASN"
	default:
		return "unknown"
	}
}

// IOC is one indicator: a type plus its canonical (refanged, lowercase
// where applicable) string value.
type IOC struct {
	Type  Type
	Value string
}

// Refang reverses the common "defanging" conventions threat reports use
// to stop indicators being clickable: hxxp:// -> http://, [.] -> ., (.)
// -> ., [:]// -> ://. It is idempotent on already-clean input.
func Refang(s string) string {
	r := strings.NewReplacer(
		"hxxps://", "https://",
		"hxxp://", "http://",
		"hXXps://", "https://",
		"hXXp://", "http://",
		"[.]", ".",
		"(.)", ".",
		"[:]", ":",
		"[at]", "@",
		"[@]", "@",
	)
	return r.Replace(s)
}

// Defang applies the standard defanging conventions so indicator strings
// can be rendered safely in reports: http -> hxxp and the last-label dot
// of any hostname -> [.]. Only the scheme and dots are rewritten.
func Defang(s string) string {
	s = strings.Replace(s, "https://", "hxxps://", 1)
	s = strings.Replace(s, "http://", "hxxp://", 1)
	// Bracket every dot in the host portion. For bare domains/IPs that is
	// the whole string up to the first '/' or ':'.
	hostEnd := len(s)
	start := 0
	if i := strings.Index(s, "://"); i >= 0 {
		start = i + 3
	}
	for j := start; j < len(s); j++ {
		if s[j] == '/' || s[j] == '?' {
			hostEnd = j
			break
		}
	}
	host := strings.ReplaceAll(s[start:hostEnd], ".", "[.]")
	return s[:start] + host + s[hostEnd:]
}

// Classify determines the IOC type of a raw (possibly defanged) indicator
// string and returns its canonical IOC. Unknown or malformed indicators
// return ok=false; this is the filter that discards the "javascript
// snippets matching a URL regex" data-quality problem the paper reports.
func Classify(raw string) (IOC, bool) {
	s := strings.TrimSpace(Refang(raw))
	if s == "" || strings.ContainsAny(s, " \t\n<>{}\"'`") {
		return IOC{}, false
	}
	if strings.HasPrefix(strings.ToUpper(s), "AS") && isDigits(s[2:]) && len(s) > 2 {
		return IOC{Type: TypeASN, Value: "AS" + s[2:]}, true
	}
	if addr, err := netip.ParseAddr(s); err == nil {
		return IOC{Type: TypeIP, Value: addr.String()}, true
	}
	if strings.Contains(s, "://") {
		u, ok := ParseURL(s)
		if !ok {
			return IOC{}, false
		}
		return IOC{Type: TypeURL, Value: u.Canonical}, true
	}
	if d, ok := CanonicalDomain(s); ok {
		return IOC{Type: TypeDomain, Value: d}, true
	}
	return IOC{}, false
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// CanonicalDomain validates and lower-cases a domain name. It enforces
// RFC-1035-style label rules (letters, digits, hyphens; labels 1-63
// chars; at least two labels; TLD not all digits).
func CanonicalDomain(s string) (string, bool) {
	s = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(s), "."))
	if len(s) == 0 || len(s) > 253 {
		return "", false
	}
	labels := strings.Split(s, ".")
	if len(labels) < 2 {
		return "", false
	}
	for _, l := range labels {
		if len(l) == 0 || len(l) > 63 {
			return "", false
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return "", false
		}
		for i := 0; i < len(l); i++ {
			c := l[i]
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_') {
				return "", false
			}
		}
	}
	if isDigits(labels[len(labels)-1]) {
		return "", false // would be an IP-like string, not a domain
	}
	return s, true
}

// TLD returns the final label of a domain ("com" for "evil.example.com").
func TLD(domain string) string {
	i := strings.LastIndexByte(domain, '.')
	if i < 0 {
		return domain
	}
	return domain[i+1:]
}
