package core

import (
	"context"
	"maps"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// starLabeling proves bipartiteness of the star K_{1,leaves} and returns a
// scheme whose registry is rebuilt from the decoded labeling, as a
// verifier holding only the certificate has it.
func starLabeling(tb testing.TB, leaves int) (*Scheme, *cert.Config, *Labeling) {
	tb.Helper()
	g := graph.New(leaves + 1)
	for v := 1; v <= leaves; v++ {
		if err := g.AddEdge(0, v); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(NewScheme(algebra.Colorable{Q: 2}, 4), cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	decoded := decodedCopy(tb, labeling)
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	s.Workers = 1
	if err := s.RebuildRegistry(decoded); err != nil {
		tb.Fatal(err)
	}
	return s, cfg, decoded
}

// verifyStar verifies a star labeling on one worker and returns the time
// it took.
func verifyStar(tb testing.TB, s *Scheme, cfg *cert.Config, l *Labeling) time.Duration {
	tb.Helper()
	start := time.Now()
	verdicts, err := s.VerifyParallelCtx(context.Background(), cfg, l)
	if err != nil || !AllAccept(verdicts) {
		tb.Fatalf("the honest star labeling is rejected: %v", err)
	}
	return time.Since(start)
}

// TestVerifyStarScales pins the verifier's cost at a hub to near-linear in
// its degree: a hub's view holds entries and child claims in proportion to
// its degree, and scanning all of them for each one made K_{1,4000} take
// about 22 times as long as K_{1,1000}. Quadrupling the degree may cost at
// most 8 times as much (the fastest of three runs each).
func TestVerifyStarScales(t *testing.T) {
	if testing.Short() {
		t.Skip("times two star verifications")
	}
	fastest := func(leaves int) time.Duration {
		s, cfg, l := starLabeling(t, leaves)
		best := time.Duration(1 << 62)
		for range 3 {
			best = min(best, verifyStar(t, s, cfg, l))
		}
		return best
	}
	small, large := fastest(1000), fastest(4000)
	ratio := float64(large) / float64(small)
	t.Logf("K_{1,1000}: %v, K_{1,4000}: %v, ratio %.1f", small, large, ratio)
	if ratio > 8 {
		t.Fatalf("K_{1,4000} verifies %.1f times slower than K_{1,1000}, want ≤ 8", ratio)
	}
}

// BenchmarkVerifyStar measures verification of a decoded bipartiteness
// certificate of the star K_{1,4000} on one worker.
func BenchmarkVerifyStar(b *testing.B) {
	s, cfg, l := starLabeling(b, 4000)
	b.ResetTimer()
	for range b.N {
		verifyStar(b, s, cfg, l)
	}
}

// TestPNodeDuplicatePositionRejected makes a vertex's two owned P-node
// path edges claim the same owner position — the edge after it relabelled
// as the edge before it, both real as the entry says — and requires the
// vertex to reject: it owns exactly one edge at each of its two positions,
// however many edges it owns in all.
func TestPNodeDuplicatePositionRejected(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	cfg := cert.NewConfig(graph.CycleGraph(10))
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cfg.G.N() {
		var owned []graph.Edge
		var pos []int
		var node *NodeEntry
		for _, w := range cfg.G.Neighbors(v) {
			e := graph.NewEdge(v, w)
			own := labeling.Edges[e].Own
			last := own.Path[len(own.Path)-1]
			if last.Kind != lanewidth.PNode || node != nil && last != node {
				continue
			}
			node = last
			owned, pos = append(owned, e), append(pos, own.OwnerPos)
		}
		if len(owned) != 2 || pos[0] == pos[1] || !node.RealBits[pos[0]] || !node.RealBits[pos[1]] {
			continue
		}
		if !s.verifyVertex(cfg, labeling, v, &vertexScratch{}) {
			t.Fatalf("vertex %d rejects the honest labeling", v)
		}
		forged := &Labeling{Edges: maps.Clone(labeling.Edges)}
		l := labeling.Edges[owned[1]].Clone()
		l.Own.OwnerPos = pos[0]
		forged.Edges[owned[1]] = l
		if s.verifyVertex(cfg, forged, v, &vertexScratch{}) {
			t.Fatalf("vertex %d accepts two owned edges at P-node position %d", v, pos[0])
		}
		return
	}
	t.Fatal("no vertex owns two real edges of one P-node")
}
