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
	"flip-class":     "c7e2c7bcd33a671e9893481a71236c0857454e625428e60e533b6ab40d40dc19",
	"flip-real-bit":  "712782c62f52092d774d5f970c246c1dedbc537d6f62c523361ca955b714dcb7",
	"shift-terminal": "ff1a7a5bd230d0d171a0fed5f201ab3b7b3ea5e815ff9c5c3362c811553ab3f5",
	"rank-skew":      "7fa6c428c50964915f77b363b3c62e933fc9d5d4c50bb3b36defcf2a1a8638a9",
	"erase-label":    "60fad6320fb4c017c2b8a58d25be21c2234315db2f4abf8e2f96ef5df948572a",
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
