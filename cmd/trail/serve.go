package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"trail/internal/osint"
	"trail/internal/serve"
)

// cmdServe runs the attribution daemon over a `trail train` checkpoint
// directory. The world flags must match the training run so the
// enrichment services and APT roster reattach to the TKG snapshot.
//
// Signals: SIGHUP reloads the checkpoints into a fresh snapshot without
// dropping in-flight requests (POST /v1/reload does the same); SIGINT
// and SIGTERM drain gracefully — the listener stops accepting, in-flight
// requests are answered, then the process exits.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := worldFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8099", "listen address")
	dir := fs.String("dir", "trail-ckpt", "checkpoint directory written by `trail train`")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes")
	topk := fs.Int("topk", 5, "default ranked predictions per answer (requests may override with top_k)")
	staleAfter := fs.Duration("stale-after", 0, "report /healthz degraded (503) when the snapshot is older than this (0 disables)")
	fs.Parse(args)

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	w := osint.NewWorld(*cfg)
	sc := serve.Config{MaxBody: *maxBody, TopK: *topk, StaleAfter: *staleAfter, Logf: logf}
	srv, err := serve.New(sc, serve.DirLoader(*dir, w, w.Resolver(), logf))
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			logf("serve: SIGHUP — reloading checkpoints from %s", *dir)
			if _, err := srv.Reload(); err != nil {
				logf("serve: reload failed: %v", err)
			}
		}
	}()
	return srv.Run(ctx, *addr)
}
