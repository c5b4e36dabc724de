package apt

import "testing"

func TestRosterSizeAndUniqueness(t *testing.T) {
	roster := DefaultRoster()
	if len(roster) != Count {
		t.Fatalf("roster has %d groups, want %d", len(roster), Count)
	}
	seen := map[string]bool{}
	for i, p := range roster {
		if p.ID != ID(i) {
			t.Fatalf("profile %d has ID %d", i, p.ID)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate group name %s", p.Name)
		}
		seen[p.Name] = true
		if len(p.TLDWeights) == 0 || len(p.HostCountryWeights) == 0 || len(p.ServerWeights) == 0 {
			t.Fatalf("%s missing behavioural weights", p.Name)
		}
		if p.DGAEntropy < 0 || p.DGAEntropy > 1 || p.DGADigits < 0 || p.DGADigits > 1 {
			t.Fatalf("%s has out-of-range DGA parameters", p.Name)
		}
		if p.ReuseRate <= 0 || p.ReuseRate >= 1 || p.InfraReuseRate <= 0 || p.InfraReuseRate >= 1 {
			t.Fatalf("%s has out-of-range reuse rates", p.Name)
		}
		if p.CampaignSize < 1 {
			t.Fatalf("%s campaign size %d", p.Name, p.CampaignSize)
		}
	}
}

func TestPaperGroupsPresent(t *testing.T) {
	// The paper's case studies name these groups explicitly.
	r := NewResolver(DefaultRoster())
	for _, name := range []string{"APT28", "APT29", "APT37", "APT38", "KIMSUKY", "APT27", "FIN11", "TA511"} {
		if _, ok := r.Resolve(name); !ok {
			t.Errorf("paper group %s missing from roster", name)
		}
	}
}

func TestResolverAliases(t *testing.T) {
	r := NewResolver(DefaultRoster())
	id38, _ := r.Resolve("APT38")
	for _, alias := range []string{"Lazarus", "lazarus", "HIDDEN COBRA", "zinc"} {
		got, ok := r.Resolve(alias)
		if !ok || got != id38 {
			t.Errorf("alias %q resolved to %v (ok=%v), want APT38", alias, got, ok)
		}
	}
	if _, ok := r.Resolve("NotAGroup"); ok {
		t.Error("unknown tag resolved")
	}
}

func TestResolveTagsRule(t *testing.T) {
	r := NewResolver(DefaultRoster())
	id28, _ := r.Resolve("APT28")

	// Single tag plus noise tags: resolves.
	if got, ok := r.ResolveTags([]string{"phishing", "APT28", "c2"}); !ok || got != id28 {
		t.Fatalf("noise tags broke resolution: %v %v", got, ok)
	}
	// Two aliases of the same group: resolves.
	if got, ok := r.ResolveTags([]string{"Fancy Bear", "Sofacy"}); !ok || got != id28 {
		t.Fatalf("same-group aliases rejected: %v %v", got, ok)
	}
	// Tags mapping to different groups: rejected (the paper's rule).
	if _, ok := r.ResolveTags([]string{"APT28", "APT29"}); ok {
		t.Fatal("conflicting tags accepted")
	}
	// No recognised tags: rejected.
	if _, ok := r.ResolveTags([]string{"malware", "botnet"}); ok {
		t.Fatal("unrecognised tags accepted")
	}
}

func TestResolverNames(t *testing.T) {
	r := NewResolver(DefaultRoster())
	names := r.Names()
	if len(names) != Count {
		t.Fatalf("%d names", len(names))
	}
}
