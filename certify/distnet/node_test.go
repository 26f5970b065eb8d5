package distnet

import (
	"bytes"
	"testing"

	"repro/certify"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestCutCopiesAgreeByBytes pins the exchange's agreement rule on a cut
// edge whose receiving endpoint's own view verifies: a peer copy that
// differs from the endpoint's own copy in any one bit, or that the peer
// reports as absent, makes the endpoint reject, and a bit-identical copy
// does not. The endpoint's own memory stays honest throughout, so the
// corruption is asymmetric and only the exchange can catch it.
func TestCutCopiesAgreeByBytes(t *testing.T) {
	g := certify.Ladder(6)
	n, err := NewNode(NodeConfig{Graph: g, Certificate: proveLocal(t, g, "bipartite"), Parts: 2, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// The honest exchange: every peer sends the canonical encoding of its
	// copy of each shared cut edge.
	got := map[int]map[graph.Edge]labelEntry{}
	for p, cut := range n.cutIn {
		got[p] = map[graph.Edge]labelEntry{}
		for e := range cut {
			data, nbits := core.EncodeLabel(n.mem[e])
			got[p][e] = labelEntry{u: e.U, v: e.V, bits: nbits, data: data}
		}
	}
	u, e, p := -1, graph.Edge{}, -1
	for _, v := range n.locals {
		for _, w := range n.cl.g.Neighbors(v) {
			if q := PartOf(w, n.cl.g.N(), n.cl.parts); q != n.part && u < 0 {
				u, e, p = v, graph.NewEdge(v, w), q
			}
		}
	}
	if u < 0 {
		t.Fatal("partition 0 has no cut edge")
	}

	var c roundCheck
	decide := func() bool { return n.decide(&c, u, n.mem, got) }
	if !decide() {
		t.Fatalf("vertex %d rejects bit-identical copies", u)
	}
	honest := got[p][e]
	for bit := range 8 * len(honest.data) {
		flipped := bytes.Clone(honest.data)
		flipped[bit/8] ^= 1 << (bit % 8)
		got[p][e] = labelEntry{u: honest.u, v: honest.v, bits: honest.bits, data: flipped}
		if decide() {
			t.Fatalf("vertex %d accepts the copy of %v with bit %d flipped", u, e, bit)
		}
	}
	got[p][e] = labelEntry{u: honest.u, v: honest.v} // the peer holds no label
	if decide() {
		t.Fatalf("vertex %d accepts a copy of %v its peer reports absent", u, e)
	}
	got[p][e] = honest
	if !decide() {
		t.Fatalf("vertex %d rejects once the honest copy is back", u)
	}
}
