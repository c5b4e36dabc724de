package main

import (
	"flag"
	"testing"
)

// TestCommandRegistry: every command has a unique name that
// lookupCommand resolves to that entry and a non-nil run function, and
// an unknown name resolves to nil.
func TestCommandRegistry(t *testing.T) {
	seen := map[string]bool{}
	for i, c := range commands {
		if seen[c.name] {
			t.Errorf("command %q registered twice", c.name)
		}
		seen[c.name] = true
		if c.run == nil {
			t.Errorf("command %q has no run function", c.name)
		}
		if got := lookupCommand(c.name); got != &commands[i] {
			t.Errorf("lookupCommand(%q) = %v, want entry %d", c.name, got, i)
		}
	}
	if got := lookupCommand("no-such-command"); got != nil {
		t.Errorf("lookupCommand(unknown) = %+v, want nil", got)
	}
}

// TestWorldFlags: the shared world flags land in the WorldConfig.
func TestWorldFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := worldFlags(fs)
	if err := fs.Parse([]string{"-seed", "7", "-months", "3", "-events", "5"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Months != 3 || cfg.EventsPerMonth != 5 {
		t.Fatalf("parsed config = seed %d, months %d, events %d; want 7, 3, 5",
			cfg.Seed, cfg.Months, cfg.EventsPerMonth)
	}
}
