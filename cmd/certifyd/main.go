// Command certifyd is the HTTP/JSON certification service: a long-running
// daemon that ingests graphs (edge-list or DIMACS via the graphio formats),
// proves catalog properties on them through a bounded prover worker pool,
// stores the resulting PLSC certificates in an in-process store keyed by
// configuration fingerprint, and verifies uploaded certificates
// against stored graphs. Backpressure is explicit: when the prove queue is
// full the service answers 429 rather than buffering without bound, and
// every request is cancellable end to end.
//
//	certifyd -addr :8080 -workers 8 -queue 128 -timeout 60s
//
//	curl -X POST --data-binary @graph.txt 'localhost:8080/v1/graphs?format=auto'
//	curl -X POST -d '{"fingerprint":"<fp>","properties":["bipartite"]}' localhost:8080/v1/prove
//	curl 'localhost:8080/v1/certificates/<fp>?props=bipartite' -o proof.plsc
//	curl -X POST -d '{"fingerprint":"<fp>","certificate":"<base64>"}' localhost:8080/v1/verify
//
// See the repro/certify/serve package for the endpoint reference and
// DESIGN.md §7 for the service architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/certify"
	"repro/certify/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "certifyd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("certifyd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers   = fs.Int("workers", 0, "prover worker pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 64, "pending prove queue depth (full queue answers 429)")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-request proving budget")
		maxBody   = fs.Int64("max-body", 8<<20, "request body cap in bytes")
		maxGraphs = fs.Int("max-graphs", 4096, "stored graph capacity (full store answers 507; -1 = unlimited)")
		lanesMax  = fs.Int("lanes", certify.DefaultMaxLanes, "default lane budget for prove requests")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := serve.New(serve.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		ProveTimeout: *timeout,
		MaxBodyBytes: *maxBody,
		MaxGraphs:    *maxGraphs,
		MaxLanes:     *lanesMax,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("certifyd listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		log.Printf("certifyd: %v, shutting down (draining for up to %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain deadline exceeded: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("certifyd: drained, bye")
		return nil
	}
}
