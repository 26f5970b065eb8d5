// Package repro is a Go reproduction of "Optimal local certification on
// graphs of bounded pathwidth" (Baterisna & Chang, PODC 2025,
// arXiv:2502.00676): O(log n)-bit proof labeling schemes for every supported
// MSO₂ property on bounded-pathwidth graphs, with all substrates implemented
// from scratch.
//
// The public API is the certify package: a Certifier built with functional
// options proves, serializes, and verifies certificates with context-aware
// Prove / ProveBatch / Verify / VerifyDistributed methods and a typed error
// taxonomy (certify.ErrUnknownProperty, ErrTooWide, ErrPropertyFails,
// ErrVerifyFailed, ErrBadCertificate, ErrWrongGraph). Certificates marshal
// to a versioned binary wire format, so a labeling proved once can be
// written to disk, shipped over a network, and verified by a different
// process — see the runnable Example in the certify package docs.
//
// The library also runs as a service: cmd/certifyd is a long-running HTTP
// daemon (package repro/certify/serve) that ingests graphs in the
// repro/certify/graphio interchange formats (strictly validated edge-list
// and DIMACS), proves catalog properties through a bounded prover worker
// pool with queue backpressure, stores certificates in an in-process store
// keyed by configuration fingerprint, and verifies uploaded certificates
// against stored graphs. Quickstart:
//
//	go run ./cmd/certifyd &
//	go run ./cmd/certify -graph ladder -n 20 -graph-out /tmp/g.txt
//	curl -X POST --data-binary @/tmp/g.txt 'localhost:8080/v1/graphs?format=auto'
//	curl -X POST -d '{"fingerprint":"<fp>","properties":["bipartite"]}' localhost:8080/v1/prove
//	curl 'localhost:8080/v1/certificates/<fp>?props=bipartite' -o proof.plsc
//
// The certbench service-mix workload (cmd/certbench) drives an in-process
// certifyd with open-loop traffic and measures it.
//
// The implementation lives in internal/ packages behind the facade (see
// DESIGN.md for the map); cmd/certify, cmd/certifyd and cmd/bench are the
// executables, examples/ holds runnable walkthroughs built exclusively on
// the certify API, and bench_test.go regenerates the EXPERIMENTS.md series.
package repro
