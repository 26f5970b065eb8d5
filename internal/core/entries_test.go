package core

import (
	"context"
	"testing"

	"repro/internal/cert"
	"repro/internal/interval"
)

// prove builds the structure with the scheme's worker bound and runs the
// scheme's property pass over it: the one-property prove the tests use.
func prove(s *Scheme, cfg *cert.Config, pd *interval.PathDecomposition) (*Labeling, *Stats, error) {
	return proveOpts(s, cfg, pd, StructureOptions{Parallelism: s.Workers})
}

// proveOpts is prove with explicit structure options.
func proveOpts(s *Scheme, cfg *cert.Config, pd *interval.PathDecomposition, opts StructureOptions) (*Labeling, *Stats, error) {
	sp, err := BuildStructureCtx(context.Background(), cfg, pd, opts)
	if err != nil {
		return nil, nil, err
	}
	return s.ProveWithCtx(context.Background(), sp)
}

// verify runs the verifier and fails the test if it errs, so no caller
// reads the verdicts of a failed run (AllAccept(nil) is true).
func verify(t testing.TB, s *Scheme, cfg *cert.Config, labeling *Labeling) []bool {
	t.Helper()
	verdicts, err := s.VerifyParallelCtx(context.Background(), cfg, labeling)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return verdicts
}
