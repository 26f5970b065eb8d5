package certify_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/certify"
)

// bipartiteSrc is the reference bipartiteness formula in source form; the
// compiled property must behave byte-for-byte like any catalog property on
// the wire.
const bipartiteSrc = "(exists S V-set (forall u V (forall v V (-> (adj u v) (not (<-> (in u S) (in v S)))))))"

// TestFormulaCertificateRoundTrip is the cross-process story for compiled
// formulas: prove with a compiled property, marshal the certificate, and
// verify the decoded bytes with a certifier built fresh in "another
// process" — the verifier reconstructs the algebra and its class registry
// from the certificate's property name alone.
func TestFormulaCertificateRoundTrip(t *testing.T) {
	ctx := context.Background()
	for gname, g := range map[string]*certify.Graph{
		"path-16":     certify.Path(16),
		"cycle-12":    certify.Cycle(12),
		"caterpillar": certify.Caterpillar(5, 1),
		"ladder-5":    certify.Ladder(5),
	} {
		prover, err := certify.New(certify.WithFormula(bipartiteSrc))
		if err != nil {
			t.Fatal(err)
		}
		crt, _, err := prover.ProveBatch(ctx, g)
		if err != nil {
			t.Fatalf("%s: prove: %v", gname, err)
		}
		blob, err := crt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}

		// A second marshal must reproduce the same bytes: the compiled
		// algebra's class keys are content-derived, not pointer-derived.
		again, err := crt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("%s: marshal not deterministic", gname)
		}

		var decoded certify.Certificate
		if err := decoded.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: unmarshal: %v", gname, err)
		}
		verifier, err := certify.New() // certificates are self-describing
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.Verify(ctx, g, &decoded); err != nil {
			t.Fatalf("%s: cross-process verify: %v", gname, err)
		}
	}
}

// TestConjunctionWithFormulaRoundTrip pins that a conjunction may nest a
// compiled formula: "and(mso:…,maxdeg:3)" resolves both operands, proves
// on a ladder, and its certificate verifies after a wire round trip in a
// certifier that knows nothing but the certificate's property name.
func TestConjunctionWithFormulaRoundTrip(t *testing.T) {
	ctx := context.Background()
	name := "and(mso:" + bipartiteSrc + ",maxdeg:3)"
	p, err := certify.PropertyByName(name)
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	prover, err := certify.New(certify.WithProperties(p))
	if err != nil {
		t.Fatal(err)
	}
	g := certify.Ladder(5)
	crt, _, err := prover.ProveBatch(ctx, g)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded certify.Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := decoded.Properties(); len(got) != 1 || got[0] != name {
		t.Fatalf("decoded properties %q, want [%q]", got, name)
	}
	verifier, err := certify.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(ctx, g, &decoded); err != nil {
		t.Fatalf("verify decoded: %v", err)
	}
}

// TestFormulaFaultParity pins soundness parity between a compiled formula
// and its hand-written catalog twin: for every fault in the catalog, both
// certificates react identically — the same fault is detected (or, for
// faults that happen to produce another valid certificate, missed) by both.
func TestFormulaFaultParity(t *testing.T) {
	ctx := context.Background()
	g := certify.Ladder(6)

	verdict := func(t *testing.T, c *certify.Certifier, crt *certify.Certificate, seed int64, fault string) string {
		t.Helper()
		bad, err := crt.Corrupt(seed, fault)
		if err != nil {
			t.Fatalf("corrupt %s: %v", fault, err)
		}
		err = c.Verify(ctx, g, bad)
		var ve *certify.VerifyError
		switch {
		case err == nil:
			return "accept"
		case errors.As(err, &ve):
			return "reject"
		default:
			// Structural damage the decoder itself refuses also counts as
			// detection; fold it with reject for the parity comparison.
			return "reject"
		}
	}

	compiled, err := certify.New(certify.WithFormula(bipartiteSrc))
	if err != nil {
		t.Fatal(err)
	}
	hand, err := certify.New(certify.WithProperty(mustProp(t, "bipartite")))
	if err != nil {
		t.Fatal(err)
	}
	compiledCrt, _, err := compiled.ProveBatch(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	handCrt, _, err := hand.ProveBatch(ctx, g)
	if err != nil {
		t.Fatal(err)
	}

	for _, fault := range certify.FaultNames() {
		for seed := int64(1); seed <= 3; seed++ {
			got := verdict(t, compiled, compiledCrt, seed, fault)
			want := verdict(t, hand, handCrt, seed, fault)
			if got != want {
				t.Errorf("fault %s seed %d: compiled=%s, hand-written=%s", fault, seed, got, want)
			}
		}
	}
}

func mustProp(t *testing.T, name string) certify.Property {
	t.Helper()
	p, err := certify.PropertyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ExampleWithFormula certifies an ad-hoc MSO₂ formula — no hand-written
// algebra anywhere — and verifies the certificate with a fresh certifier
// that learns the property from the certificate itself.
func ExampleWithFormula() {
	ctx := context.Background()
	// "Triangle-free": no three pairwise adjacent vertices.
	const src = "(forall u V (forall v V (forall w V (not (and (adj u v) (and (adj v w) (adj u w)))))))"
	prover, err := certify.New(certify.WithFormula(src))
	if err != nil {
		panic(err)
	}
	g := certify.Cycle(9)
	crt, _, err := prover.ProveBatch(ctx, g)
	if err != nil {
		panic(err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		panic(err)
	}

	var decoded certify.Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		panic(err)
	}
	verifier, err := certify.New()
	if err != nil {
		panic(err)
	}
	if err := verifier.Verify(ctx, g, &decoded); err != nil {
		panic(err)
	}
	fmt.Println("triangle-freeness certified and verified")
	// Output: triangle-freeness certified and verified
}
