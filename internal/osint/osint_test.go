package osint

import (
	"bytes"
	"testing"

	"trail/internal/ioc"
)

func testWorld(t testing.TB) *World {
	t.Helper()
	return NewWorld(TestConfig())
}

// collectIPs returns the canonical IP indicators of every pulse in w.
func collectIPs(w *World) map[string]bool {
	out := map[string]bool{}
	for _, p := range w.Pulses() {
		for _, ind := range p.Indicators {
			// Indicators may be defanged on the wire; canonicalise.
			if item, ok := ioc.Classify(ind.Indicator); ok && item.Type == ioc.TypeIP {
				out[item.Value] = true
			}
		}
	}
	return out
}

func TestWorldDeterministic(t *testing.T) {
	a := NewWorld(TestConfig())
	b := NewWorld(TestConfig())
	pa, pb := a.Pulses(), b.Pulses()
	if len(pa) != len(pb) {
		t.Fatalf("pulse counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].ID != pb[i].ID || len(pa[i].Indicators) != len(pb[i].Indicators) {
			t.Fatalf("pulse %d differs", i)
		}
		for j := range pa[i].Indicators {
			if pa[i].Indicators[j] != pb[i].Indicators[j] {
				t.Fatalf("pulse %d indicator %d differs", i, j)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed = 99
	a := NewWorld(TestConfig())
	b := NewWorld(cfg)
	if len(a.Pulses()) == len(b.Pulses()) {
		same := true
		for i := range a.Pulses() {
			if a.Pulses()[i].ID != b.Pulses()[i].ID {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical worlds")
		}
	}
}

func TestPulsesResolveAndParse(t *testing.T) {
	w := testWorld(t)
	resolver := w.Resolver()
	resolved := 0
	for _, p := range w.Pulses() {
		if p.Month < 0 || p.Month >= TestConfig().Months {
			t.Fatalf("pulse %s month %d out of range", p.ID, p.Month)
		}
		id, ok := resolver.ResolveTags(p.Tags)
		if ok {
			resolved++
			if int(id) != p.TrueAPT {
				t.Fatalf("pulse %s tags resolve to %d, truth %d", p.ID, id, p.TrueAPT)
			}
		}
		for _, ind := range p.Indicators {
			if _, ok := ioc.Classify(ind.Indicator); !ok {
				t.Fatalf("pulse %s indicator %q unparseable", p.ID, ind.Indicator)
			}
		}
	}
	if resolved < len(w.Pulses())*9/10 {
		t.Fatalf("only %d/%d pulses resolve", resolved, len(w.Pulses()))
	}
}

func TestEnrichmentConsistency(t *testing.T) {
	w := testWorld(t)
	checked := 0
	for _, p := range w.Pulses() {
		for _, ind := range p.Indicators {
			item, _ := ioc.Classify(ind.Indicator)
			switch item.Type {
			case ioc.TypeIP:
				rec, ok := w.LookupIP(item.Value)
				if !ok {
					t.Fatalf("reported IP %s unknown to lookup service", item.Value)
				}
				if rec.ASN == 0 || rec.Country == "" {
					t.Fatalf("IP %s lookup incomplete: %+v", item.Value, rec)
				}
				// Passive DNS of the IP and of its domains must agree.
				domains, _ := w.PassiveDNSIP(item.Value)
				for _, d := range domains {
					drec, ok := w.PassiveDNSDomain(d)
					if !ok {
						t.Fatalf("pDNS domain %s of %s unknown", d, item.Value)
					}
					found := false
					for _, a := range drec.ARecords {
						if a == item.Value {
							found = true
						}
					}
					if !found {
						t.Fatalf("domain %s pDNS does not resolve back to %s", d, item.Value)
					}
				}
			case ioc.TypeDomain:
				rec, ok := w.PassiveDNSDomain(item.Value)
				if !ok {
					t.Fatalf("reported domain %s unknown", item.Value)
				}
				if len(rec.ARecords) == 0 {
					t.Fatalf("domain %s has no A records", item.Value)
				}
				if rec.LastSeen.Before(rec.FirstSeen) {
					t.Fatalf("domain %s seen interval inverted", item.Value)
				}
			case ioc.TypeURL:
				rec, ok := w.ProbeURL(item.Value)
				if !ok {
					t.Fatalf("reported URL %s unknown to probe", item.Value)
				}
				if rec.Server == "" || rec.FileType == "" {
					t.Fatalf("URL %s probe incomplete: %+v", item.Value, rec)
				}
				u, _ := ioc.ParseURL(item.Value)
				if !u.HostIsIP && rec.HostDomain != u.Host {
					t.Fatalf("URL %s host %s != probe domain %s", item.Value, u.Host, rec.HostDomain)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no indicators checked")
	}
}

func TestUnknownLookupsReturnFalse(t *testing.T) {
	w := testWorld(t)
	if _, ok := w.LookupIP("203.0.113.250"); ok {
		t.Error("unknown IP resolved")
	}
	if _, ok := w.PassiveDNSDomain("definitely-not-generated.example"); ok {
		t.Error("unknown domain resolved")
	}
	if _, ok := w.ProbeURL("http://nope.example/x"); ok {
		t.Error("unknown URL probed")
	}
}

func TestPulseEncodeDecodeRoundTrip(t *testing.T) {
	w := testWorld(t)
	pulses := w.Pulses()[:10]
	var buf bytes.Buffer
	if err := EncodePulses(&buf, pulses); err != nil {
		t.Fatal(err)
	}
	var got []Pulse
	if err := ScanPulses(&buf, func(p Pulse) error { got = append(got, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pulses) {
		t.Fatalf("decoded %d pulses", len(got))
	}
	for i := range got {
		if got[i].ID != pulses[i].ID || len(got[i].Indicators) != len(pulses[i].Indicators) {
			t.Fatalf("pulse %d mismatch", i)
		}
		if !got[i].Created.Equal(pulses[i].Created) {
			t.Fatalf("pulse %d timestamp mismatch", i)
		}
	}
}

func TestVocabularySizes(t *testing.T) {
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"countries", len(Countries()), NumCountries},
		{"issuers", len(Issuers()), NumIssuers},
		{"file types", len(FileTypes()), NumFileTypes},
		{"file classes", len(FileClasses()), NumFileClasses},
		{"http codes", len(HTTPCodes()), NumHTTPCodes},
		{"encodings", len(Encodings()), NumEncodings},
		{"servers", len(Servers()), NumServers},
		{"oses", len(OSes()), NumOSes},
		{"services", len(ServiceNames()), NumServices},
		{"tlds", len(TLDs()), NumTLDs},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s vocabulary has %d entries, want %d", c.name, c.got, c.want)
		}
	}
	seen := map[string]bool{}
	for _, v := range Servers() {
		if seen[v] {
			t.Fatalf("duplicate vocab entry %q", v)
		}
		seen[v] = true
	}
}

func TestMonthsWindowing(t *testing.T) {
	w := testWorld(t)
	all := len(w.Pulses())
	sum := 0
	for m := 0; m < TestConfig().Months; m++ {
		sum += len(w.PulsesInMonths(m, m+1))
	}
	if sum != all {
		t.Fatalf("month windows sum to %d, total %d", sum, all)
	}
	if len(w.PulsesInMonths(0, TestConfig().Months)) != all {
		t.Fatal("full window mismatch")
	}
}

func TestLoneEventsExist(t *testing.T) {
	cfg := TestConfig()
	cfg.LoneEventRate = 1.0
	w := NewWorld(cfg)
	// With every event lone, no IOC should repeat across events.
	seen := map[string]string{}
	for _, p := range w.Pulses() {
		for _, ind := range p.Indicators {
			item, _ := ioc.Classify(ind.Indicator)
			if prev, ok := seen[item.Value]; ok && prev != p.ID {
				t.Fatalf("lone world reused IOC %s across %s and %s", item.Value, prev, p.ID)
			}
			seen[item.Value] = p.ID
		}
	}
}
