package core

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
)

// These tests craft structured (not random) attacks against specific
// verifier checks, complementing the random corruption battery.

func provenPathLabeling(t *testing.T, n int, prop algebra.Property, maxLanes int) (*Scheme, *cert.Config, *Labeling) {
	t.Helper()
	s := NewScheme(prop, maxLanes)
	cfg := cert.NewConfig(graph.PathGraph(n))
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg, labeling
}

// TestAttackLaneBudgetEscalation relabels entries with lanes at or above the
// scheme's budget: the verifier must reject, since out-of-budget lanes would
// void the pathwidth guarantee.
func TestAttackLaneBudgetEscalation(t *testing.T) {
	s, cfg, labeling := provenPathLabeling(t, 8, algebra.Colorable{Q: 2}, 4)
	forged := labeling.Clone()
	for _, el := range forged.Edges {
		for _, en := range el.Own.Path {
			// Every lane now out of budget; the lane-aligned ids follow.
			shifted := make([]int, len(en.Lanes))
			for i, l := range en.Lanes {
				shifted[i] = l + s.MaxLanes
			}
			en.Lanes = shifted
		}
	}
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("out-of-budget lanes accepted")
	}
}

// TestAttackRejectingRootClass swaps the root's class id for one whose
// Accept is false on every edge consistently: every vertex must reject.
func TestAttackRejectingRootClass(t *testing.T) {
	// Build a rejecting class id by proving a *different* graph where some
	// intermediate class rejects... simpler: point the root class at a leaf
	// class (wrong lane structure), which can never satisfy the root checks.
	s, cfg, labeling := provenPathLabeling(t, 8, algebra.Colorable{Q: 2}, 4)
	forged := labeling.Clone()
	for _, el := range forged.Edges {
		root := el.Own.Path[0]
		root.Classes[0] = el.Own.Path[len(el.Own.Path)-1].Classes[0]
		for _, emb := range el.Emb {
			embRoot := emb.Payload.Path[0]
			embRoot.Classes[0] = emb.Payload.Path[len(emb.Payload.Path)-1].Classes[0]
		}
	}
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("forged root class accepted")
	}
}

// TestAttackDuplicateOwnership assigns one E-node as owner of two distinct
// real edges; the ownership-count checks at the terminals must fire.
func TestAttackDuplicateOwnership(t *testing.T) {
	s, cfg, labeling := provenPathLabeling(t, 8, algebra.Colorable{Q: 2}, 4)
	forged := labeling.Clone()
	// Copy edge {0,1}'s full label onto edge {1,2}.
	src := forged.Edges[graph.NewEdge(0, 1)]
	dup := src.clone()
	dup.Pointing = forged.Edges[graph.NewEdge(1, 2)].Pointing
	forged.Edges[graph.NewEdge(1, 2)] = dup
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("duplicated edge ownership accepted")
	}
}

// TestAttackPhantomChild adds a fabricated child summary to a member entry:
// the fold no longer matches, or the phantom's in-terminal vertex cannot
// find the child's entry. Either way some vertex rejects.
func TestAttackPhantomChild(t *testing.T) {
	s, cfg, labeling := provenPathLabeling(t, 10, algebra.Colorable{Q: 2}, 4)
	forged := labeling.Clone()
	for _, el := range forged.Edges {
		for _, en := range el.Own.Path {
			if en.ParentID == -1 {
				continue
			}
			phantom := &NodeSummary{
				NodeID:       9999,
				Lanes:        append([]int(nil), en.Lanes[:1]...),
				InIDs:        []uint64{en.OutIDs[0]},
				MergedOutIDs: []uint64{12345},
			}
			en.Classes = slices.Insert(en.Classes, en.opsAt(), en.Classes[0]) // the phantom's merged class
			en.Children = append(en.Children, phantom)
		}
	}
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("phantom child accepted")
	}
}

// TestAttackVirtualEdgeTeleport rewrites an embedding entry to claim a
// different endpoint pair, breaking the rank/id anchoring.
func TestAttackVirtualEdgeTeleport(t *testing.T) {
	g := graph.CycleGraph(9) // cycles have virtual completion edges
	s := NewScheme(algebra.Colorable{Q: 3}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := labeling.Clone()
	found := false
	for _, el := range forged.Edges {
		for i := range el.Emb {
			el.Emb[i].UID, el.Emb[i].VID = el.Emb[i].VID, el.Emb[i].UID
			found = true
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no virtual edges on this instance")
	}
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("teleported virtual edge accepted")
	}
}

// TestAttackEveryVertexSeesRoot checks the root-consistency surface: giving
// one edge a different (self-consistent) root id must be caught by a shared
// vertex.
func TestAttackEveryVertexSeesRoot(t *testing.T) {
	s, cfg, labeling := provenPathLabeling(t, 8, algebra.Colorable{Q: 2}, 4)
	forged := labeling.Clone()
	el := forged.Edges[graph.NewEdge(3, 4)]
	el.Own.Path[0].NodeID = 4242
	if AllAccept(verify(t, s, cfg, forged)) {
		t.Fatal("divergent root identity accepted")
	}
}
