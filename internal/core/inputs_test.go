package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
)

// TestCertifyDominatingSet certifies "the marked set X dominates G"
// (Section 2.2's input-labeled setting) end-to-end.
func TestCertifyDominatingSet(t *testing.T) {
	// Caterpillar: spine of 5, one leg each; the spine dominates everything.
	g := caterpillar(5, 1)
	cfg := cert.NewConfig(g)
	cfg.MarkSet([]graph.Vertex{0, 1, 2, 3, 4})
	s := NewScheme(algebra.DominatingSet{}, 6)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("dominating-set certification rejected")
	}

	// A non-dominating set: mark only one spine vertex.
	cfgBad := cert.NewConfig(g)
	cfgBad.MarkSet([]graph.Vertex{0})
	if _, _, err := prove(s, cfgBad, nil); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("non-dominating set: err = %v", err)
	}
}

// TestCertifyIndependentSet certifies "the marked set X is independent".
func TestCertifyIndependentSet(t *testing.T) {
	g := graph.CycleGraph(10)
	cfg := cert.NewConfig(g)
	cfg.MarkSet([]graph.Vertex{0, 2, 4, 6, 8})
	s := NewScheme(algebra.IndependentSet{}, 6)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("independent-set certification rejected")
	}
	cfgBad := cert.NewConfig(g)
	cfgBad.MarkSet([]graph.Vertex{0, 1})
	if _, _, err := prove(s, cfgBad, nil); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("adjacent marks: err = %v", err)
	}
}

// TestInputMismatchRejected checks the new soundness surface: labels that
// lie about a vertex's input must be rejected by that vertex.
func TestInputMismatchRejected(t *testing.T) {
	g := graph.CycleGraph(8)
	cfg := cert.NewConfig(g)
	cfg.MarkSet([]graph.Vertex{0, 2, 4, 6})
	s := NewScheme(algebra.IndependentSet{}, 6)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip actual inputs so the configuration no longer matches the labels:
	// vertices 1 and 2 are now both marked (adjacent) — the property fails,
	// so the old labels must not be accepted.
	cfgFlipped := cert.NewConfig(g)
	cfgFlipped.MarkSet([]graph.Vertex{0, 1, 2, 4, 6})
	if AllAccept(verify(t, s, cfgFlipped, labeling)) {
		t.Fatal("stale labels accepted after the input state changed")
	}

	// Also corrupt VInputs fields directly.
	rng := rand.New(rand.NewSource(4))
	caught := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		mutated := labeling.Clone()
		if !flipSomeVInput(rng, mutated) {
			caught++ // nothing to flip on this draw; count as trivially safe
			continue
		}
		if !AllAccept(verify(t, s, cfg, mutated)) {
			caught++
		}
	}
	if caught != trials {
		t.Fatalf("only %d/%d input corruptions caught", caught, trials)
	}
}

func flipSomeVInput(rng *rand.Rand, l *Labeling) bool {
	edges := make([]graph.Edge, 0, len(l.Edges))
	for e := range l.Edges {
		edges = append(edges, e)
	}
	for attempt := 0; attempt < 20; attempt++ {
		el := l.Edges[edges[rng.Intn(len(edges))]]
		if el.Own == nil {
			continue
		}
		en := el.Own.Path[rng.Intn(len(el.Own.Path))]
		if len(en.VInputs) == 0 {
			continue
		}
		i := rng.Intn(len(en.VInputs))
		en.VInputs[i] = 1 - en.VInputs[i]
		return true
	}
	return false
}

// TestSingleVertexWithInput covers the isolated-vertex special case with
// inputs: a lone marked vertex dominates itself; an unmarked one does not.
func TestSingleVertexWithInput(t *testing.T) {
	g := graph.New(1)
	s := NewScheme(algebra.DominatingSet{}, 2)
	cfg := cert.NewConfig(g)
	cfg.MarkSet([]graph.Vertex{0})
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("marked K1 rejected")
	}
	cfgBad := cert.NewConfig(g)
	if _, _, err := prove(s, cfgBad, nil); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("unmarked K1: err = %v", err)
	}
}
