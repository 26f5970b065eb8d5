package dist

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func maxDegree(g *graph.Graph) int {
	best := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > best {
			best = d
		}
	}
	return best
}

// prove builds the configuration's structure and proves the scheme's
// property on it, failing the test on any error.
func prove(t *testing.T, s *core.Scheme, cfg *cert.Config) *core.Labeling {
	t.Helper()
	sp, err := core.BuildStructureCtx(context.Background(), cfg, nil, core.StructureOptions{})
	if err != nil {
		t.Fatalf("structure: %v", err)
	}
	labeling, _, err := s.ProveWithCtx(context.Background(), sp)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	return labeling
}

// injectCopy applies the fault through Inject and returns a copy of the
// labeling with the corrupted label swapped in.
func injectCopy(rng *rand.Rand, l *core.Labeling, f Fault) (*core.Labeling, bool) {
	if l == nil {
		return nil, false
	}
	edges := slices.SortedFunc(maps.Keys(l.Edges), graph.CompareEdges)
	e, el, ok := Inject(rng, edges, func(e graph.Edge) *core.EdgeLabel { return l.Edges[e] }, f)
	if !ok {
		return nil, false
	}
	mutated := &core.Labeling{Edges: maps.Clone(l.Edges)}
	mutated.Edges[e] = el
	return mutated, true
}

// verify runs the verifier on a copy of the scheme with the given worker
// count and fails the test if it errs, so no caller reads the verdicts of
// a failed run (core.AllAccept(nil) is true).
func verify(t *testing.T, s *core.Scheme, workers int, cfg *cert.Config, labeling *core.Labeling) []bool {
	t.Helper()
	sw := *s
	sw.Workers = workers
	verdicts, err := sw.VerifyParallelCtx(context.Background(), cfg, labeling)
	if err != nil {
		t.Fatalf("verify (workers=%d): %v", workers, err)
	}
	return verdicts
}

// completenessCases pairs every graph family of internal/gen (plus the
// plain path and cycle) with a property that holds on it.
func completenessCases(t *testing.T) []struct {
	name string
	g    *graph.Graph
	prop algebra.Property
} {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 24, 2)
	lb, err := gen.LanewidthGraph(rng, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	lg := lb.Graph()
	return []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"path", graph.PathGraph(12), algebra.Colorable{Q: 2}},
		{"cycle", graph.CycleGraph(10), algebra.Colorable{Q: 2}},
		{"caterpillar", gen.Caterpillar(8, 1), algebra.Colorable{Q: 2}},
		{"lobster", gen.Lobster(5, 1), algebra.Acyclic{}},
		{"ladder", gen.Ladder(6), algebra.Colorable{Q: 2}},
		{"grid", gen.Grid(2, 5), algebra.Colorable{Q: 2}},
		{"binarytree", gen.BinaryTree(3), algebra.Acyclic{}},
		{"interval", ig, algebra.Colorable{Q: 3}},
		{"lanewidth", lg, algebra.MaxDegreeAtMost{D: maxDegree(lg)}},
		{"spiderfree", gen.SpiderFreeCaterpillar(rng, 20), algebra.Colorable{Q: 2}},
	}
}

// TestRunCompleteness: an honestly proven labeling is accepted at every
// vertex by one verification round on every graph family, with the
// verifier on a pool of 4 workers.
func TestRunCompleteness(t *testing.T) {
	for _, tc := range completenessCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			verdicts := verify(t, s, 4, cfg, prove(t, s, cfg))
			if len(verdicts) != tc.g.N() {
				t.Fatalf("got %d verdicts for %d vertices", len(verdicts), tc.g.N())
			}
			if !core.AllAccept(verdicts) {
				t.Fatal("clean labeling rejected")
			}
		})
	}
}

// TestRunMatchesSequentialVerify runs the fault battery of
// TestVerifyParallelMatchesVerify from another seed.
func TestRunMatchesSequentialVerify(t *testing.T) {
	matchesInline(t, 3)
}

// TestRunSoundness mirrors internal/core's random-corruption battery on the
// pooled verifier: every fault kind, injected into an honest labeling, makes
// at least one processor reject within the single verification round, with
// the same verdicts at 1 and 4 workers.
func TestRunSoundness(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"caterpillar-bipartite", gen.Caterpillar(8, 1), algebra.Colorable{Q: 2}},
		{"cycle-3color", graph.CycleGraph(9), algebra.Colorable{Q: 3}},
		{"lobster-acyclic", gen.Lobster(6, 1), algebra.Acyclic{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 6)
			cfg := cert.NewConfig(tc.g)
			labeling := prove(t, s, cfg)
			rng := rand.New(rand.NewSource(11))
			for _, fault := range AllFaults {
				for trial := 0; trial < 20; trial++ {
					mutated, ok := injectCopy(rng, labeling, fault)
					if !ok {
						t.Fatalf("fault %v not injectable", fault)
					}
					pooled := verify(t, s, 4, cfg, mutated)
					sameVerdicts(t, fault.String(), "parallel", verify(t, s, 1, cfg, mutated), pooled)
					if core.AllAccept(pooled) {
						t.Fatalf("fault %v trial %d went undetected", fault, trial)
					}
				}
			}
		})
	}
}
