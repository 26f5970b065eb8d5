package certify

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/core"
)

// families is the generator coverage grid shared by the round-trip tests:
// one representative per built-in family, with a property that holds on it.
type familyCase struct {
	g    *Graph
	prop string
}

func families() map[string]familyCase {
	return map[string]familyCase{
		"path":        {Path(24), "acyclic"},
		"cycle":       {Cycle(16), "bipartite"},
		"caterpillar": {Caterpillar(8, 2), "acyclic"},
		"lobster":     {Lobster(6, 1), "acyclic"},
		"ladder":      {Ladder(7), "maxdeg:3"},
		"spider":      {Spider(4), "maxdeg:3"},
		"interval":    {Interval(1, 40, 3), "vc:64"},
	}
}

func mustProp(t *testing.T, name string) Property {
	t.Helper()
	p, err := PropertyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProveVerifyEveryFamily(t *testing.T) {
	ctx := context.Background()
	for name, fc := range families() {
		t.Run(name, func(t *testing.T) {
			c, err := New(WithProperty(mustProp(t, fc.prop)))
			if err != nil {
				t.Fatal(err)
			}
			crt, stats, err := c.Prove(ctx, fc.g)
			if err != nil {
				t.Fatal(err)
			}
			if stats.MaxLabelBits <= 0 {
				t.Fatal("no label size reported")
			}
			if err := c.Verify(ctx, fc.g, crt); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if err := c.VerifyDistributed(ctx, fc.g, crt); err != nil {
				t.Fatalf("distributed verify: %v", err)
			}
		})
	}
}

// TestWireRoundTripEveryFamily is the prove-once/verify-everywhere property
// end to end: marshal, unmarshal in a "different process" (a certificate
// value with no scheme state), verify sequentially, in parallel, and on the
// network simulator.
func TestWireRoundTripEveryFamily(t *testing.T) {
	ctx := context.Background()
	for name, fc := range families() {
		g := fc.g
		t.Run(name, func(t *testing.T) {
			prover, err := New(WithProperties(mustProp(t, fc.prop), mustProp(t, "vc:128")))
			if err != nil {
				t.Fatal(err)
			}
			crt, stats, err := prover.ProveBatch(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if crt == nil {
				t.Fatalf("no property held (failed: %v)", stats.Failed)
			}
			blob, err := crt.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			var decoded Certificate
			if err := decoded.UnmarshalBinary(blob); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got, want := decoded.Properties(), crt.Properties(); len(got) != len(want) {
				t.Fatalf("decoded properties %v, want %v", got, want)
			}
			verifier, err := New() // no properties: certificates self-describe
			if err != nil {
				t.Fatal(err)
			}
			if err := verifier.Verify(ctx, g, &decoded); err != nil {
				t.Fatalf("verify decoded: %v", err)
			}
			if err := verifier.VerifyDistributed(ctx, g, &decoded); err != nil {
				t.Fatalf("distributed verify decoded: %v", err)
			}

			// Interning: the decoded labelings hold one pointer per distinct
			// node entry and certificate, across both properties.
			entries, entryKeys := map[*core.NodeEntry]bool{}, map[string]bool{}
			certs, certKeys := map[*core.CEdgeLabel]bool{}, map[string]bool{}
			for _, l := range decoded.labelings {
				for _, el := range l.Edges {
					payloads := []*core.CEdgeLabel{el.Own}
					for _, emb := range el.Emb {
						payloads = append(payloads, emb.Payload)
					}
					for _, c := range payloads {
						if c == nil {
							continue
						}
						certKey := strconv.Itoa(c.OwnerPos)
						for _, en := range c.Path {
							entries[en], entryKeys[en.Key()] = true, true
							certKey += "|" + en.Key()
						}
						certs[c], certKeys[certKey] = true, true
					}
				}
			}
			if len(entries) != len(entryKeys) || len(certs) != len(certKeys) {
				t.Fatalf("decoded %d entry pointers for %d distinct entries, %d certificate pointers for %d distinct certificates",
					len(entries), len(entryKeys), len(certs), len(certKeys))
			}

			// Byte-identical re-marshal.
			again, err := decoded.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(blob) {
				t.Fatal("re-marshal differs from original blob")
			}
		})
	}
}

// TestDecodedFaultSoundness is the wire-format soundness check: every fault
// of the transient-corruption catalog, injected into a certificate that was
// decoded from bytes (so verification runs on a reconstructed registry), is
// still rejected, on every generator family. A decoded certificate shares
// its entries and payloads by pointer, so the test also pins that Corrupt
// is copy-on-write: the decoded original still verifies and still
// re-marshals to its own bytes.
func TestDecodedFaultSoundness(t *testing.T) {
	ctx := context.Background()
	type wireCase struct {
		name string
		g    *Graph
		blob []byte
	}
	var cases []wireCase
	for name, fc := range families() {
		prover, err := New(WithProperty(mustProp(t, fc.prop)))
		if err != nil {
			t.Fatal(err)
		}
		crt, _, err := prover.Prove(ctx, fc.g)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := crt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, wireCase{name, fc.g, blob})
	}
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range FaultNames() {
		t.Run(fault, func(t *testing.T) {
			injected := 0
			for _, tc := range cases {
				var decoded Certificate
				if err := decoded.UnmarshalBinary(tc.blob); err != nil {
					t.Fatal(err)
				}
				corrupted, err := decoded.Corrupt(7, fault)
				if errors.Is(err, ErrBadConfig) {
					continue // the fault has no host on this family's labels
				}
				if err != nil {
					t.Fatal(err)
				}
				injected++
				err = verifier.Verify(ctx, tc.g, corrupted)
				if err == nil {
					t.Fatalf("%s: corrupted decoded certificate accepted — soundness violated", tc.name)
				}
				if !errors.Is(err, ErrVerifyFailed) {
					t.Fatalf("%s: rejection has wrong class: %v", tc.name, err)
				}
				if err := verifier.Verify(ctx, tc.g, &decoded); err != nil {
					t.Fatalf("%s: decoded original no longer verifies after Corrupt: %v", tc.name, err)
				}
				again, err := decoded.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if string(again) != string(tc.blob) {
					t.Fatalf("%s: Corrupt changed the decoded original's bytes", tc.name)
				}
			}
			if injected == 0 {
				t.Fatal("fault not injectable on any family — sweep is vacuous")
			}
		})
	}
}

func TestTypedErrors(t *testing.T) {
	ctx := context.Background()

	if _, err := PropertyByName("definitely-not-a-property"); !errors.Is(err, ErrUnknownProperty) {
		t.Fatalf("unknown property: %v", err)
	}

	// Property fails: an odd cycle is not bipartite.
	c, err := New(WithProperty(mustProp(t, "bipartite")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Prove(ctx, Cycle(7)); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("odd cycle: %v", err)
	}

	// Too wide: a lane budget of 1 cannot host a cycle's partition.
	narrow, err := New(WithProperty(mustProp(t, "bipartite")), WithMaxLanes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := narrow.Prove(ctx, Cycle(8)); !errors.Is(err, ErrTooWide) {
		t.Fatalf("lane budget: %v", err)
	}

	// Empty and disconnected graphs are outside the scheme, on the prove
	// and the incremental path alike.
	disconnected, err := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{disconnected, empty} {
		if _, _, err := c.Prove(ctx, g); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("prove on n=%d m=%d: %v", g.N(), g.M(), err)
		}
		if _, err := c.NewUpdater(ctx, g); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("updater on n=%d m=%d: %v", g.N(), g.M(), err)
		}
	}
	// No edit is valid on a single vertex, so its updater is refused.
	if _, err := c.NewUpdater(ctx, Path(1)); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("updater on one vertex: %v", err)
	}

	// Wrong graph: a certificate is bound to its configuration, including
	// the marked set.
	dom, err := New(WithProperty(mustProp(t, "dominating")))
	if err != nil {
		t.Fatal(err)
	}
	g := Path(10)
	g.Mark(0, 2, 4, 6, 8)
	crt, _, err := dom.Prove(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	other := Path(10) // same topology, no marks
	if err := dom.Verify(ctx, other, crt); !errors.Is(err, ErrWrongGraph) {
		t.Fatalf("wrong graph: %v", err)
	}

	// Verify failed carries the rejecting vertices.
	corrupted, err := crt.Corrupt(3, "flip-class")
	if err != nil {
		t.Fatal(err)
	}
	verr := dom.Verify(ctx, g, corrupted)
	if !errors.Is(verr, ErrVerifyFailed) {
		t.Fatalf("corrupt verify: %v", verr)
	}
	var ve *VerifyError
	if !errors.As(verr, &ve) || len(ve.Rejected) == 0 {
		t.Fatalf("rejection carries no vertices: %v", verr)
	}
}

func TestBatchMixedOutcome(t *testing.T) {
	ctx := context.Background()
	props, err := PropertiesByName("bipartite", "acyclic", "maxdeg:2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	crt, stats, err := c.ProveBatch(ctx, Cycle(8)) // bipartite+maxdeg hold, acyclic fails
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Failed) != 1 || stats.Failed[0] != "acyclic" {
		t.Fatalf("failed = %v, want [acyclic]", stats.Failed)
	}
	if got := crt.Properties(); len(got) != 2 {
		t.Fatalf("certificate properties = %v", got)
	}
	if err := c.Verify(ctx, Cycle(8), crt); err != nil {
		t.Fatal(err)
	}
}

// TestStructureReuse pins the amortization path: one structure, many
// batches, same certificates.
func TestStructureReuse(t *testing.T) {
	ctx := context.Background()
	g := Path(32)
	c, err := New(WithProperties(mustProp(t, "bipartite"), mustProp(t, "acyclic")))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.BuildStructure(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := c.ProveBatchOn(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.ProveBatchOn(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := first.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := second.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("re-proving against a reused structure changed the certificate bytes")
	}
}

// TestConjunctionRoundTrip pins the and(...) catalog syntax through the wire
// format: conjunction certificates resolve back by name in a fresh process.
func TestConjunctionRoundTrip(t *testing.T) {
	ctx := context.Background()
	p := And(mustProp(t, "bipartite"), mustProp(t, "evenedges"))
	if _, err := PropertyByName(p.Name()); err != nil {
		t.Fatalf("conjunction name %q does not resolve: %v", p.Name(), err)
	}
	c, err := New(WithProperty(p))
	if err != nil {
		t.Fatal(err)
	}
	g := Cycle(8)
	crt, _, err := c.Prove(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(ctx, g, &decoded); err != nil {
		t.Fatal(err)
	}
}

func TestModelCheckAgreement(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		prop string
		g    *Graph
	}{
		{"bipartite", Cycle(8)},
		{"bipartite", Cycle(7)},
		{"acyclic", Caterpillar(5, 1)},
		{"acyclic", Cycle(6)},
		{"matching", Cycle(8)},
		{"hamiltonian", Cycle(8)},
		{"maxdeg:2", Spider(2)},
		{"vc:4", Cycle(8)},
		{"and(bipartite,evenedges)", Cycle(8)},
	}
	for _, tc := range cases {
		p := mustProp(t, tc.prop)
		want, supported := ModelCheck(tc.g, p)
		if !supported {
			t.Fatalf("%s: model check unsupported", tc.prop)
		}
		c, err := New(WithProperty(p))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.Prove(ctx, tc.g)
		got := err == nil
		if err != nil && !errors.Is(err, ErrPropertyFails) {
			t.Fatalf("%s: %v", tc.prop, err)
		}
		if got != want {
			t.Fatalf("%s on n=%d: scheme says %v, ground truth says %v", tc.prop, tc.g.N(), got, want)
		}
	}
}

// TestStructureFingerprintFrozen pins that a certificate proved against a
// prebuilt structure binds to the configuration frozen in the structure: a
// graph mutated after BuildStructure fails the ErrWrongGraph gate instead
// of reaching per-vertex verification with mismatched labels.
func TestStructureFingerprintFrozen(t *testing.T) {
	ctx := context.Background()
	g := Path(16)
	c, err := New(WithProperty(mustProp(t, "bipartite")))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.BuildStructure(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	g.Mark(3) // mutate the live graph after the structure froze its config
	crt, _, err := c.ProveBatchOn(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(ctx, g, crt); !errors.Is(err, ErrWrongGraph) {
		t.Fatalf("mutated graph: err=%v, want ErrWrongGraph", err)
	}
	fresh := Path(16)
	if err := c.Verify(ctx, fresh, crt); err != nil {
		t.Fatalf("certificate rejected on the configuration it was proved for: %v", err)
	}
}
