package lanes_test

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
)

// buildFor assembles the greedy partition and completion of g with the
// heuristic decomposition's interval representation retained.
func buildFor(t *testing.T, g *graph.Graph) (*interval.Representation, *lanes.Partition, *lanes.Completion) {
	t.Helper()
	pd, err := interval.Decompose(g)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	r := pd.ToIntervals(g.N())
	p := lanes.Greedy(r)
	c := lanes.Complete(g, p, false)
	return r, p, c
}

// TestReembedMatchesFresh pins the tracked reuse contract: after an edit,
// re-embedding over the retained intervals equals a fresh lanes.Embed of
// the mutated graph, and at least one source far from the edit is reused.
func TestReembedMatchesFresh(t *testing.T) {
	g := gen.Ladder(16)
	_, p, _ := buildFor(t, g)
	c0 := lanes.Complete(g, p, false)
	te, err := lanes.Embed(g, c0, nil, nil, 1)
	if err != nil {
		t.Fatalf("lanes.Embed: %v", err)
	}

	// Toggle a rung edge (stays connected; intervals and lanes retained).
	var rung graph.Edge
	for e := range g.EdgesSeq() {
		if e.U%2 == 0 && e.V == e.U+1 && e.U >= 8 { // a mid-ladder rung {2i, 2i+1}
			rung = e
			break
		}
	}
	if rung == (graph.Edge{}) {
		t.Fatalf("no rung found; ladder layout changed")
	}
	if err := g.RemoveEdge(rung.U, rung.V); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}

	c1 := lanes.Complete(g, p, false)
	want, err := lanes.Embed(g, c1, nil, nil, 1)
	if err != nil {
		t.Fatalf("fresh embed: %v", err)
	}
	got, err := lanes.Embed(g, c1, te, []graph.Vertex{rung.U, rung.V}, 1)
	if err != nil {
		t.Fatalf("re-embed: %v", err)
	}
	reused := got.Reused()
	if !reflect.DeepEqual(got.Emb, want.Emb) {
		t.Fatalf("reembedded paths diverge from fresh embedding")
	}
	if reused == 0 && got.Sources() > 1 {
		t.Fatalf("no source reused despite a local edit (%d sources)", got.Sources())
	}

	// A second round of reuse from the re-derived tracking must also hold
	// (re-add the rung: back to the original graph).
	if err := g.AddEdge(rung.U, rung.V); err != nil {
		t.Fatalf("re-add rung: %v", err)
	}
	c2 := lanes.Complete(g, p, false)
	want2, err := lanes.Embed(g, c2, nil, nil, 1)
	if err != nil {
		t.Fatalf("fresh embed 2: %v", err)
	}
	got2, err := lanes.Embed(g, c2, got, []graph.Vertex{rung.U, rung.V}, 1)
	if err != nil {
		t.Fatalf("re-embed 2: %v", err)
	}
	if !reflect.DeepEqual(got2.Emb, want2.Emb) {
		t.Fatalf("second reembedding diverges from fresh embedding")
	}
}
