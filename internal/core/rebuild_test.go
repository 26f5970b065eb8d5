package core

import (
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
)

// decodedCopy round-trips a labeling through the wire encoding, so the
// result shares no pointers (and no memoized keys) with the prover's output
// — exactly what a different process would hold.
func decodedCopy(t *testing.T, l *Labeling) *Labeling {
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
					el.Own.Path[len(el.Own.Path)-1].ClassID += 2
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
						e.MergedClassID += 3
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
