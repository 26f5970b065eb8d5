package dist

// Regression pin for the parallel verifier: VerifyParallelCtx on a worker
// pool must agree with its inline (Workers 1) run verdict-for-verdict — on
// honest labelings of every generator family, and under every fault of the
// corruption catalog.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

type verifyFamily struct {
	name string
	g    *graph.Graph
	prop algebra.Property
}

// verifyFamilies pairs one representative graph per internal/gen family with
// a property that holds on it (bipartite where the family is bipartite;
// 3-colorability for the triangle-bearing interval and lanewidth families,
// whose pathwidth ≤ 2 guarantees χ ≤ 3).
func verifyFamilies(t *testing.T) []verifyFamily {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ig, _ := gen.IntervalGraph(rng, 40, 2)
	lb, err := gen.LanewidthGraph(rng, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	two := algebra.Colorable{Q: 2}
	three := algebra.Colorable{Q: 3}
	return []verifyFamily{
		{"path", graph.PathGraph(40), two},
		{"cycle", graph.CycleGraph(26), two},
		{"caterpillar", gen.Caterpillar(9, 2), two},
		{"lobster", gen.Lobster(7, 1), two},
		{"ladder", gen.Ladder(8), two},
		{"interval", ig, three},
		{"lanewidth", lb.Graph(), three},
		{"spiderfree", gen.SpiderFreeCaterpillar(rng, 26), two},
		// Longer than several 64-vertex pool chunks, so workers run
		// concurrently.
		{"longladder", gen.Ladder(150), two},
	}
}

func sameVerdicts(t *testing.T, what, name string, want, got []bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: verdict count %d vs %d", what, len(want), len(got))
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("%s: vertex %d: sequential=%v %s=%v", what, v, want[v], name, got[v])
		}
	}
}

func TestVerifyParallelMatchesVerify(t *testing.T) {
	matchesInline(t, 42)
}

// matchesInline compares the verifier at 4 workers with its inline run on
// every family, honest and under 8 seeded trials of every fault: the honest
// labeling must be accepted and no corruption may be.
func matchesInline(t *testing.T, seed int64) {
	t.Helper()
	for _, fam := range verifyFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			s := core.NewScheme(fam.prop, 8)
			cfg := cert.NewConfig(fam.g)
			labeling := prove(t, s, cfg)
			honest := verify(t, s, 4, cfg, labeling)
			sameVerdicts(t, "honest", "parallel", verify(t, s, 1, cfg, labeling), honest)
			if !core.AllAccept(honest) {
				t.Fatal("honest labeling rejected")
			}

			rng := rand.New(rand.NewSource(seed))
			for _, fault := range AllFaults {
				for trial := 0; trial < 8; trial++ {
					mutated, ok := injectCopy(rng, labeling, fault)
					if !ok {
						continue
					}
					seq := verify(t, s, 1, cfg, mutated)
					par := verify(t, s, 4, cfg, mutated)
					sameVerdicts(t, fault.String(), "parallel", seq, par)
					if core.AllAccept(par) {
						t.Fatalf("fault %s trial %d: corruption accepted", fault, trial)
					}
				}
			}
		})
	}
}
