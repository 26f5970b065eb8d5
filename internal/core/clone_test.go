package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
)

// TestCloneIsFaithfulAndIndependent: a clone encodes bit-identically to the
// original, and mutating the clone never affects the original (no shared
// structure).
func TestCloneIsFaithfulAndIndependent(t *testing.T) {
	g := graph.CycleGraph(9)
	s := NewScheme(algebra.Colorable{Q: 3}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clone := labeling.Clone()
	if len(clone.Edges) != len(labeling.Edges) {
		t.Fatal("clone lost edges")
	}
	for e, el := range labeling.Edges {
		cl := clone.Edges[e]
		d1, n1 := EncodeLabel(el)
		d2, n2 := EncodeLabel(cl)
		if n1 != n2 || string(d1) != string(d2) {
			t.Fatalf("edge %v: clone encodes differently", e)
		}
	}
	// Mutate every mutable field of every clone entry.
	for _, el := range clone.Edges {
		for _, en := range el.Own.Path {
			en.Classes[0] += 1000
			for l := range en.InIDs {
				en.InIDs[l] += 7
			}
			for i := range en.RealBits {
				en.RealBits[i] = !en.RealBits[i]
			}
			for i := range en.VInputs {
				en.VInputs[i] += 3
			}
			for ci, c := range en.Children {
				en.Classes[2+ci] += 5 // child ci's merged class
				mutateSummary(c)
			}
			if en.Left != nil {
				en.Classes[en.opsAt()] += 9 // the left operand's class
			}
			// Summaries are shared between shapes on the prover side, so
			// writes through the clone's must reach none of them.
			for _, sum := range []*NodeSummary{en.Left, en.Right, en.RootMember} {
				if sum != nil {
					mutateSummary(sum)
				}
			}
		}
		for i := range el.Emb {
			el.Emb[i].Fwd += 4
		}
		if el.Pointing != nil {
			el.Pointing.DU += 11
		}
	}
	// The original must still verify (untouched by clone mutations).
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("mutating the clone corrupted the original labeling")
	}
}

// mutateSummary shifts the summary's node id and every one of its ids.
func mutateSummary(s *NodeSummary) {
	s.NodeID += 2
	for _, ids := range [][]uint64{s.InIDs, s.OutIDs, s.MergedOutIDs} {
		for l := range ids {
			ids[l] += 7
		}
	}
}
