package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"trail/internal/core"
	"trail/internal/ingest"
	"trail/internal/osint"
)

func feedWorld() *osint.World {
	cfg := osint.TestConfig()
	cfg.Months, cfg.EventsPerMonth = 4, 6
	return osint.NewWorld(cfg)
}

func openPipeline(t *testing.T, w *osint.World, dir string) *ingest.Pipeline {
	t.Helper()
	p, err := ingest.New(ingest.Config{
		Dir:           dir,
		Resolver:      w.Resolver(),
		Services:      osint.Infallible(w),
		Build:         core.DefaultBuildConfig(),
		EnqueueWait:   -1,
		PublishEvery:  -1,
		FlushInterval: -1,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func readerFeed(r io.Reader) func(func(osint.Pulse) error) error {
	return func(fn func(osint.Pulse) error) error { return osint.ScanPulses(r, fn) }
}

func encode(t *testing.T, pulses []osint.Pulse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := osint.EncodePulses(&buf, pulses); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunFeedStreams: a pulse written into a still-open pipe reaches the
// pipeline before the writer closes, so `producer | trail ingest -feed -`
// ingests as the producer writes.
func TestRunFeedStreams(t *testing.T) {
	w := feedWorld()
	p := openPipeline(t, w, t.TempDir())
	defer p.Close()

	pr, pw := io.Pipe()
	submitted := make(chan error, 1) // the test writes one pulse
	feed := func(fn func(osint.Pulse) error) error {
		return osint.ScanPulses(pr, func(pulse osint.Pulse) error {
			err := fn(pulse)
			submitted <- err
			return err
		})
	}
	done := make(chan error, 1)
	go func() { done <- runFeed(context.Background(), p, feed, 0, t.Logf) }()
	if _, err := pw.Write(encode(t, w.Pulses()[:1])); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no pulse submitted while the feed is still open")
	}
	if got := p.Stats().Accepted; got != 1 {
		t.Fatalf("pipeline accepted %d pulses before EOF, want 1", got)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := p.DurableSeq(); got != 1 {
		t.Fatalf("durable seq %d after a one-pulse feed, want 1", got)
	}
}

// TestRunFeedResumes: a restarted feed skips the durable prefix (no
// duplicates), logs where it resumed, and a feed shorter than the
// durable prefix is an error.
func TestRunFeedResumes(t *testing.T) {
	w := feedWorld()
	pulses := w.Pulses()
	dir := t.TempDir()
	ctx := context.Background()

	p := openPipeline(t, w, dir)
	if err := runFeed(ctx, p, readerFeed(bytes.NewReader(encode(t, pulses[:5]))), 0, t.Logf); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p = openPipeline(t, w, dir)
	var log strings.Builder
	logf := func(format string, a ...any) { fmt.Fprintf(&log, format+"\n", a...) }
	err := runFeed(ctx, p, readerFeed(bytes.NewReader(encode(t, pulses[:3]))), 0, logf)
	if err == nil || !strings.Contains(err.Error(), "5 events ahead of a 3-event feed") {
		t.Fatalf("short feed: err = %v, want the events-ahead error", err)
	}
	if err := runFeed(ctx, p, readerFeed(bytes.NewReader(encode(t, pulses))), 0, logf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "ingest: resuming feed at event 5") {
		t.Fatalf("resume not logged: %q", log.String())
	}
	st := p.Stats()
	if got := p.DurableSeq(); got != uint64(len(pulses)) || st.Duplicates != 0 {
		t.Fatalf("durable seq %d with %d duplicates, want %d with none", got, st.Duplicates, len(pulses))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
