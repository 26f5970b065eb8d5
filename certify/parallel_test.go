package certify

// WithParallelism is a throughput knob with no observable semantics: the
// certificate bytes and the reported stats must be identical at every
// parallelism level, on every generator family. These tests are the public
// face of the byte-identity guarantee the core prover pins internally.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
)

func TestProveByteIdenticalAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	levels := []int{1, 2, runtime.NumCPU()}
	for name, fc := range families() {
		t.Run(name, func(t *testing.T) {
			var refBlob []byte
			var refStats *Stats
			for _, p := range levels {
				c, err := New(WithProperty(mustProp(t, fc.prop)), WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				crt, stats, err := c.Prove(ctx, fc.g)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := crt.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Verify(ctx, fc.g, crt); err != nil {
					t.Fatalf("parallelism %d: verify: %v", p, err)
				}
				if refBlob == nil {
					refBlob, refStats = blob, stats
					continue
				}
				if string(blob) != string(refBlob) {
					t.Fatalf("parallelism %d: certificate bytes differ from parallelism %d", p, levels[0])
				}
				if *stats != *refStats {
					t.Fatalf("parallelism %d: stats %+v differ from parallelism %d stats %+v", p, *stats, levels[0], *refStats)
				}
			}
		})
	}
}

func TestWithParallelismValidation(t *testing.T) {
	if _, err := New(WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	for _, p := range []int{0, 1, 2, runtime.NumCPU()} {
		if _, err := New(WithParallelism(p)); err != nil {
			t.Fatalf("parallelism %d rejected: %v", p, err)
		}
	}
}

// TestParallelismOneSequentialVerify checks the documented contract that
// parallelism 1 runs verification inline, and that Verify and
// VerifyDistributed give the same verdict at every parallelism level: accept
// on the honest certificate, rejection of a wrong graph, and — for every
// fault of the catalog — equal *VerifyErrors (same property, same rejecting
// vertices), identical across levels too.
func TestParallelismOneSequentialVerify(t *testing.T) {
	ctx := context.Background()
	g := Path(24)
	prover, err := New(WithProperty(mustProp(t, "acyclic")))
	if err != nil {
		t.Fatal(err)
	}
	crt, _, err := prover.Prove(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := make([]*Certificate, len(FaultNames()))
	for i, fault := range FaultNames() {
		if corrupted[i], err = crt.Corrupt(1, fault); err != nil {
			t.Fatalf("corrupt %s: %v", fault, err)
		}
	}
	ref := make([]*VerifyError, len(corrupted))
	for _, p := range []int{1, 0, 2} {
		v, err := New(WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		verifiers := []struct {
			name string
			run  func(context.Context, *Graph, *Certificate) error
		}{{"Verify", v.Verify}, {"VerifyDistributed", v.VerifyDistributed}}
		for _, vf := range verifiers {
			if err := vf.run(ctx, g, crt); err != nil {
				t.Fatalf("parallelism %d: %s: %v", p, vf.name, err)
			}
			// Wrong graph: every verifier must reject identically.
			if err := vf.run(ctx, Cycle(24), crt); err == nil {
				t.Fatalf("parallelism %d: %s accepted certificate for wrong graph", p, vf.name)
			}
			for i, bad := range corrupted {
				var ve *VerifyError
				if err := vf.run(ctx, g, bad); !errors.As(err, &ve) {
					t.Fatalf("parallelism %d: %s on %s: err=%v, want *VerifyError", p, vf.name, FaultNames()[i], err)
				}
				if ref[i] == nil {
					ref[i] = ve
				} else if ve.Property != ref[i].Property || !slices.Equal(ve.Rejected, ref[i].Rejected) {
					t.Fatalf("parallelism %d: %s on %s: %+v, want %+v", p, vf.name, FaultNames()[i], ve, ref[i])
				}
			}
		}
	}
}
