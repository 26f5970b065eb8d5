package certify

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"testing"
)

// faultDigests maps each fault of FaultNames to the hex SHA-256 of
// Corrupt(faultSeed, fault).MarshalBinary() on faultGraph's certificate.
// Fault injection is seeded, so the corrupted bytes are a fixed function of
// the certificate and the seed: E5, vertexd's memory faults and certbench's
// corrupted blobs all depend on that. Only a deliberate change of the
// corruption model or of the wire format may re-capture the table.
var faultDigests = map[string]string{
	"flip-class":     "b127644ef26d2117f9a8fa30875cba54e4cd0f4adbc007ad7358e89f768cd159",
	"flip-real-bit":  "ffd73659c8016a944dffcd17b9e3b5453ee2a340d4e2153c51fffc48f9f32bc3",
	"shift-terminal": "36180a4597faf5310f7b33541011411d9db0d74511eb1e7ee5cda37e18b252a4",
	"rank-skew":      "2e44473d64d0982809a0a33542f9e749459f37cb925da6fa0471562883aa9cc9",
	"erase-label":    "fedf04752b96d00df90e927e712c8f17ea10853fa29d7677488b6f10a4a3f195",
}

const faultSeed = 7

// faultGraph is the graph the table was captured on, and faultProps its
// property set: a colouring and the degree bound at the graph's exact
// maximum degree, as certbench's verify-wire certifies.
func faultGraph() *Graph { return Interval(5, 300, 2) }

func faultProps(g *Graph) []string {
	deg := make([]int, g.N())
	for _, e := range g.Edges() {
		deg[e[0]]++
		deg[e[1]]++
	}
	return []string{"3color", "maxdeg:" + strconv.Itoa(slices.Max(deg))}
}

// TestGoldenFaultDigests pins every fault's corrupted certificate bytes,
// injected into a freshly proved certificate and into a decoded copy of it
// (whose labels share their entries by pointer, as a decoder hands them
// out): both must give the table's bytes, and both must be rejected.
func TestGoldenFaultDigests(t *testing.T) {
	ctx := context.Background()
	g := faultGraph()
	ps, err := PropertiesByName(faultProps(g)...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(ps...))
	if err != nil {
		t.Fatal(err)
	}
	crt, bst, err := c.ProveBatch(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bst.Failed) > 0 {
		t.Fatalf("properties failed: %v", bst.Failed)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, f := range FaultNames() {
		for _, src := range []struct {
			name string
			crt  *Certificate
		}{{"proved", crt}, {"decoded", &decoded}} {
			bad, err := src.crt.Corrupt(faultSeed, f)
			if err != nil {
				t.Fatalf("%s %s: %v", src.name, f, err)
			}
			sum := sha256.Sum256(mustMarshal(t, bad))
			if got := hex.EncodeToString(sum[:]); got != faultDigests[f] {
				t.Errorf("%s %s: corrupted digest %s, golden %s", src.name, f, got, faultDigests[f])
			}
			if err := c.Verify(ctx, g, bad); err == nil {
				t.Errorf("%s %s: corrupted certificate accepted", src.name, f)
			}
		}
	}
	if again := mustMarshal(t, crt); string(again) != string(blob) {
		t.Fatal("Corrupt changed the certificate it was called on")
	}
}

func mustMarshal(t *testing.T, crt *Certificate) []byte {
	t.Helper()
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
