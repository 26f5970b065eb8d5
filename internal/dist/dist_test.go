package dist

import (
	"context"
	"errors"
	"math/rand"
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

// TestRunCompleteness: an honestly proven labeling is accepted by every
// processor of the distributed round on every graph family.
func TestRunCompleteness(t *testing.T) {
	for _, tc := range completenessCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling := prove(t, s, cfg)
			res, err := Run(context.Background(), cfg, s, labeling)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Accepted() {
				t.Fatalf("clean labeling rejected at %v", res.Rejected)
			}
			if len(res.Verdicts) != tc.g.N() {
				t.Fatalf("got %d verdicts for %d vertices", len(res.Verdicts), tc.g.N())
			}
		})
	}
}

// TestRunMatchesSequentialVerify: the distributed round's verdicts equal the
// verifier's, vertex for vertex, on the honest labeling of every generator
// family and under every fault of the corruption catalog; no corruption is
// ever accepted.
func TestRunMatchesSequentialVerify(t *testing.T) {
	for _, fam := range verifyFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			s := core.NewScheme(fam.prop, 8)
			cfg := cert.NewConfig(fam.g)
			labeling := prove(t, s, cfg)
			pooled := *s
			pooled.Workers = 4 // several workers even on a one-CPU host
			check := func(what string, l *core.Labeling) []bool {
				t.Helper()
				want := verify(t, s, 1, cfg, l)
				res, err := Run(context.Background(), cfg, &pooled, l)
				if err != nil {
					t.Fatalf("%s: run: %v", what, err)
				}
				sameVerdicts(t, what, "dist", want, res.Verdicts)
				return res.Verdicts
			}
			if !core.AllAccept(check("honest", labeling)) {
				t.Fatal("honest labeling rejected")
			}
			rng := rand.New(rand.NewSource(3))
			for _, fault := range AllFaults {
				for trial := 0; trial < 8; trial++ {
					mutated, ok := Inject(rng, labeling, fault)
					if !ok {
						continue
					}
					if core.AllAccept(check(fault.String(), mutated)) {
						t.Fatalf("fault %s trial %d: corruption accepted", fault, trial)
					}
				}
			}
		})
	}
}

// TestRunSoundness mirrors internal/core's random-corruption battery on the
// distributed round: every fault kind, injected into an honest labeling, makes at
// least one processor reject within the single verification round.
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
					mutated, ok := Inject(rng, labeling, fault)
					if !ok {
						t.Fatalf("fault %v not injectable", fault)
					}
					res, err := Run(context.Background(), cfg, s, mutated)
					if err != nil {
						t.Fatal(err)
					}
					if res.Accepted() {
						t.Fatalf("fault %v trial %d went undetected", fault, trial)
					}
				}
			}
		})
	}
}

// TestRunWithMemoryFault: corrupting one processor's private copy of a
// shared edge label is asymmetric — only the exchange round can reveal the
// disagreement, and some processor (the corrupted one or a neighbor) must
// reject. The honest labeling itself stays accepted afterwards.
func TestRunWithMemoryFault(t *testing.T) {
	g := gen.Caterpillar(8, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling := prove(t, s, cfg)
	rng := rand.New(rand.NewSource(9))
	for _, fault := range AllFaults {
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 0 {
				continue
			}
			res, ok, err := RunWithMemoryFault(context.Background(), cfg, s, labeling, rng, v, fault)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue // no incident label hosts this fault at v
			}
			if res.Accepted() {
				t.Fatalf("fault %v in processor %d's memory went undetected", fault, v)
			}
		}
	}
	res, err := Run(context.Background(), cfg, s, labeling)
	if err != nil || !res.Accepted() {
		t.Fatalf("honest labeling no longer accepted: %v err=%v", res.Rejected, err)
	}
	if _, _, err := RunWithMemoryFault(context.Background(), cfg, s, nil, rng, 0, FlipClass); err == nil {
		t.Fatal("nil labeling accepted")
	}
	if _, _, err := RunWithMemoryFault(context.Background(), cfg, s, labeling, rng, 0, numFaults); err == nil {
		t.Fatal("unknown fault accepted")
	}
	for _, v := range []graph.Vertex{-1, g.N()} {
		if _, _, err := RunWithMemoryFault(context.Background(), cfg, s, labeling, rng, v, FlipClass); err == nil {
			t.Fatalf("out-of-range processor %d accepted", v)
		}
	}
}

// TestRunContextCancellation: a canceled context aborts the round with
// context.Canceled and no verdicts.
func TestRunContextCancellation(t *testing.T) {
	g := gen.Caterpillar(10, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling := prove(t, s, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, s, labeling); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled context: err=%v, want context.Canceled", err)
	}

	// Sanity: the same configuration still verifies with a live context.
	res, err := Run(context.Background(), cfg, s, labeling)
	if err != nil || !res.Accepted() {
		t.Fatalf("Run after cancellation: accepted=%v err=%v", res.Accepted(), err)
	}
}

// TestRunRepeatable: Run can be invoked repeatedly on one configuration
// (the self-stabilization loop re-verifies after every recovery).
func TestRunRepeatable(t *testing.T) {
	g := gen.Ladder(5)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling := prove(t, s, cfg)
	for i := 0; i < 3; i++ {
		res, err := Run(context.Background(), cfg, s, labeling)
		if err != nil || !res.Accepted() {
			t.Fatalf("run %d: accepted=%v err=%v", i, res.Accepted(), err)
		}
	}
}

// TestRunNilLabeling: a nil labeling is an error, not a panic.
func TestRunNilLabeling(t *testing.T) {
	g := graph.PathGraph(4)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 4)
	if _, err := Run(context.Background(), cert.NewConfig(g), s, nil); err == nil {
		t.Fatal("nil labeling accepted")
	}
}

// TestRunAllocationsPerVertex pins the round's per-vertex cost to the
// verifier's: each worker decides vertex after vertex on one Checker and
// one pair of copy lists, so once warm a round allocates per worker, not
// per vertex (a fresh verifier scratch per vertex made 20.9 allocations
// per vertex here).
func TestRunAllocationsPerVertex(t *testing.T) {
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(2)), 512, 3)
	s := core.NewScheme(algebra.Colorable{Q: 3}, 4)
	cfg := cert.NewConfig(g)
	labeling := prove(t, s, cfg)
	round := func() {
		res, err := Run(context.Background(), cfg, s, labeling)
		if err != nil || !res.Accepted() {
			t.Fatalf("honest round: accepted=%v err=%v", res.Accepted(), err)
		}
	}
	round()
	perVertex := testing.AllocsPerRun(3, round) / float64(g.N())
	t.Logf("n=%d: %.3f allocations per vertex", g.N(), perVertex)
	if perVertex > 1 {
		t.Fatalf("%.3f allocations per vertex, want ≤ 1", perVertex)
	}
}
