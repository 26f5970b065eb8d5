package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// decodedCopy round-trips a labeling through the wire encoding, so the
// result shares no pointers (and no memoized keys) with the prover's output
// — exactly what a different process would hold.
func decodedCopy(t testing.TB, l *Labeling) *Labeling {
	t.Helper()
	out := &Labeling{Edges: make(map[graph.Edge]*EdgeLabel, len(l.Edges))}
	for e, el := range l.Edges {
		data, nbits := EncodeLabel(el)
		back, err := DecodeLabel(data, nbits)
		if err != nil {
			t.Fatalf("edge %v: decode: %v", e, err)
		}
		out.Edges[e] = back
	}
	return out
}

// TestRebuildRegistryFreshSchemeAccepts is the prove-once/verify-everywhere
// property at the core level: a scheme that never ran the prover rebuilds
// the class registry from a decoded labeling and accepts it at every vertex.
func TestRebuildRegistryFreshSchemeAccepts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
		mark []graph.Vertex
	}{
		{"cycle bipartite", graph.CycleGraph(12), algebra.Colorable{Q: 2}, nil},
		{"caterpillar acyclic", caterpillar(5, 2), algebra.Acyclic{}, nil},
		{"path dominating", graph.PathGraph(16), algebra.DominatingSet{}, []graph.Vertex{0, 2, 4, 6, 8, 10, 12, 14}},
		{"spider maxdeg", graph.Spider(3), algebra.MaxDegreeAtMost{D: 3}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cert.NewConfig(tc.g)
			if tc.mark != nil {
				cfg.MarkSet(tc.mark)
			}
			prover := NewScheme(tc.prop, 8)
			labeling, _, err := prove(prover, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			decoded := decodedCopy(t, labeling)

			verifier := NewScheme(tc.prop, 8)
			if err := verifier.RebuildRegistry(decoded); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if verifier.Reg.Size() == 0 {
				t.Fatal("rebuilt registry is empty")
			}
			if !AllAccept(verify(t, verifier, cfg, decoded)) {
				t.Fatal("fresh scheme rejected an honest decoded labeling")
			}
		})
	}
}

// TestRebuildRegistryDetectsCorruption corrupts decoded labelings by hand
// (class-id flips on every entry kind) and checks the fresh-scheme pipeline
// — rebuild, then verify — still rejects, i.e. reconstruction does not
// launder forged ids into a registry the verifier trusts.
func TestRebuildRegistryDetectsCorruption(t *testing.T) {
	g := graph.CycleGraph(10)
	cfg := cert.NewConfig(g)
	prover := NewScheme(algebra.Colorable{Q: 2}, 8)
	labeling, _, err := prove(prover, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name   string
		mutate func(*Labeling) bool
	}{
		{"bump entry class id", func(l *Labeling) bool {
			for _, el := range l.Edges {
				if el.Own != nil && len(el.Own.Path) > 0 {
					el.Own.Path[len(el.Own.Path)-1].Classes[0] += 2
					return true
				}
			}
			return false
		}},
		{"bump merged class id", func(l *Labeling) bool {
			for _, el := range l.Edges {
				if el.Own == nil {
					continue
				}
				for _, e := range el.Own.Path {
					if e.ParentID != -1 {
						e.Classes[1] += 3 // the merged class
						return true
					}
				}
			}
			return false
		}},
		{"flip a real bit", func(l *Labeling) bool {
			for _, el := range l.Edges {
				if el.Own == nil {
					continue
				}
				for _, e := range el.Own.Path {
					if len(e.RealBits) > 0 {
						e.RealBits[0] = !e.RealBits[0]
						return true
					}
				}
			}
			return false
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			decoded := decodedCopy(t, labeling)
			if !tc.mutate(decoded) {
				t.Skip("corruption not applicable to this labeling")
			}
			verifier := NewScheme(algebra.Colorable{Q: 2}, 8)
			err := verifier.RebuildRegistry(decoded)
			if err != nil {
				if !errors.Is(err, ErrRegistryRebuild) {
					t.Fatalf("unexpected rebuild error type: %v", err)
				}
				return // rejected before any vertex ran: fine
			}
			if AllAccept(verify(t, verifier, cfg, decoded)) {
				t.Fatal("corrupted labeling accepted after registry rebuild — soundness violated")
			}
		})
	}
}

// handLabeling puts each entry on its own edge as a one-entry certificate:
// enough for the registry rebuild, which reads only the entries.
func handLabeling(entries ...*NodeEntry) *Labeling {
	l := &Labeling{Edges: map[graph.Edge]*EdgeLabel{}}
	for i, e := range entries {
		l.Edges[graph.NewEdge(i, i+1)] = &EdgeLabel{Own: &CEdgeLabel{Path: []*NodeEntry{e}}}
	}
	return l
}

// handENode is an E-node entry on lane 0 with the given class id and real
// bit.
func handENode(nodeID, classID int, real bool) *NodeEntry {
	return &NodeEntry{Shape: &Shape{
		NodeSummary: &NodeSummary{NodeID: nodeID, Kind: lanewidth.ENode, Lanes: []int{0}, InIDs: []uint64{1}, OutIDs: []uint64{2}},
		ParentID:    -1,
		PathIDs:     []uint64{1, 2}, RealBits: []bool{real}, VInputs: []int{0, 0},
	}, Classes: []int{classID}}
}

// member makes e a member of T-node 99 with the given merged id and one
// child per given merged id.
func member(e *NodeEntry, mergedID int, childIDs ...int) *NodeEntry {
	e.ParentID, e.MergedOutIDs = 99, []uint64{2}
	e.Classes = append(e.Classes, mergedID)
	for i, id := range childIDs {
		e.Children = append(e.Children, &NodeSummary{NodeID: 50 + i, Lanes: []int{0}, InIDs: []uint64{2}, MergedOutIDs: []uint64{3}})
		e.Classes = append(e.Classes, id)
	}
	return e
}

// TestRebuildRejectsConflictingDefinitions: two entries that claim one
// class id with different inputs must fail the rebuild, however many
// equal copies of each definition the labeling carries. The definitions are
// deduplicated by value, so a pair differing only in the real bit, or only
// in a member's children, must stay two definitions.
func TestRebuildRejectsConflictingDefinitions(t *testing.T) {
	const real, virtual, merged = 5, 6, 7
	cases := []struct {
		name    string
		entries []*NodeEntry
	}{
		{"E-node pair", []*NodeEntry{
			handENode(1, real, true), handENode(2, real, false), handENode(3, real, true),
		}},
		{"member-fold pair", []*NodeEntry{
			handENode(1, real, true), handENode(2, virtual, false),
			member(handENode(3, real, true), merged, real),
			member(handENode(4, real, true), merged, virtual),
			member(handENode(5, real, true), merged, real),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(algebra.Colorable{Q: 2}, 8)
			err := s.RebuildRegistry(handLabeling(tc.entries...))
			if !errors.Is(err, ErrRegistryRebuild) || !strings.Contains(err.Error(), "claimed by two distinct classes") {
				t.Fatalf("rebuild error %v, want a conflicting-id ErrRegistryRebuild", err)
			}
		})
	}
	// The honest halves of each pair rebuild: the conflict is what fails.
	s := NewScheme(algebra.Colorable{Q: 2}, 8)
	if err := s.RebuildRegistry(handLabeling(handENode(1, real, true), handENode(2, virtual, false),
		member(handENode(3, real, true), merged, real))); err != nil {
		t.Fatalf("consistent hand-built labeling: %v", err)
	}
}

// TestRebuildDefinitionsAreDistinct pins the registry rebuild to work per
// distinct definition, not per entry: a decoded n = 2048 interval-graph
// labeling carries thousands of distinct entries, but only about as many
// distinct class definitions as its registry has classes.
func TestRebuildDefinitionsAreDistinct(t *testing.T) {
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), 2048, 2)
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(NewScheme(algebra.Colorable{Q: 3}, 4), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded := decodedCopy(t, labeling)
	s := NewScheme(algebra.Colorable{Q: 3}, 4)
	if err := s.RebuildRegistry(decoded); err != nil {
		t.Fatal(err)
	}
	defs, refs := s.collectClassDefs([]*Labeling{decoded})
	t.Logf("%d edges, %d definitions, %d referenced ids, %d classes", len(decoded.Edges), len(defs), len(refs), s.Reg.Size())
	if len(defs) > 4*s.Reg.Size() {
		t.Fatalf("%d class definitions for a %d-class registry, want ≤ 4 per class", len(defs), s.Reg.Size())
	}
	if !AllAccept(verify(t, s, cfg, decoded)) {
		t.Fatal("rebuilt scheme rejected the honest labeling")
	}
}
