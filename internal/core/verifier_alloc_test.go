package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
)

// TestVerifyVertexAllocations pins the per-vertex verifier to a constant
// number of allocations per honest vertex once its scratch is warm: the
// vertex view's working sets live in the worker's reused slices, not in
// per-vertex maps. The labeling is decoded, as a verifier holds it, and
// verified once first, so the registry and the algebra memo are warm too.
func TestVerifyVertexAllocations(t *testing.T) {
	const maxPerVertex = 1
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(2)), 512, 3)
	cfg := cert.NewConfig(g)
	maxDeg := 0
	for v := range g.N() {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	for _, tc := range []struct {
		name string
		prop algebra.Property
	}{{"3color", algebra.Colorable{Q: 3}}, {"maxdeg", algebra.MaxDegreeAtMost{D: maxDeg}}} {
		t.Run(tc.name, func(t *testing.T) {
			labeling, _, err := prove(NewScheme(tc.prop, 4), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			decoded := decodedCopy(t, labeling)
			s := NewScheme(tc.prop, 4)
			if err := s.RebuildRegistry(decoded); err != nil {
				t.Fatal(err)
			}
			var sc vertexScratch
			all := func() {
				for v := range g.N() {
					if !s.verifyVertex(cfg, decoded, v, &sc) {
						t.Fatalf("vertex %d rejected the honest labeling", v)
					}
				}
			}
			all()
			perVertex := testing.AllocsPerRun(3, all) / float64(g.N())
			t.Logf("n=%d: %.3f allocations per vertex", g.N(), perVertex)
			if perVertex > maxPerVertex {
				t.Fatalf("%.3f allocations per honest vertex, want ≤ %d", perVertex, maxPerVertex)
			}
		})
	}
}
