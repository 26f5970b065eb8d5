package dist

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFaultNames pins the catalog to the names cmd/certify documents on its
// -corrupt flag; internal/experiments consumes the same catalog, so this is
// the single source of truth.
func TestFaultNames(t *testing.T) {
	want := []string{"flip-class", "flip-real-bit", "shift-terminal", "rank-skew", "erase-label"}
	if len(AllFaults) != len(want) {
		t.Fatalf("AllFaults has %d entries, want %d", len(AllFaults), len(want))
	}
	if int(numFaults) != len(want) {
		t.Fatalf("numFaults = %d, want %d", numFaults, len(want))
	}
	for i, f := range AllFaults {
		if f.String() != want[i] {
			t.Errorf("AllFaults[%d] = %q, want %q", i, f, want[i])
		}
		if InjectorFor(f) == nil {
			t.Errorf("InjectorFor(%v) = nil", f)
		}
	}
	if Fault(numFaults).String() != "unknown-fault" {
		t.Errorf("out-of-range fault String = %q", Fault(numFaults))
	}
	if InjectorFor(numFaults) != nil {
		t.Error("out-of-range fault has an injector")
	}
}

// TestInjectDoesNotMutateInput: Inject works on a deep copy; the honest
// labeling must keep verifying after any number of injections.
func TestInjectDoesNotMutateInput(t *testing.T) {
	g := gen.Caterpillar(6, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling := prove(t, s, cfg)
	rng := rand.New(rand.NewSource(5))
	for _, f := range AllFaults {
		mutated, ok := injectCopy(rng, labeling, f)
		if !ok {
			t.Fatalf("fault %v not injectable", f)
		}
		if core.AllAccept(verify(t, s, 0, cfg, mutated)) {
			t.Errorf("fault %v: mutated labeling still accepted", f)
		}
		if !core.AllAccept(verify(t, s, 0, cfg, labeling)) {
			t.Fatalf("fault %v mutated the input labeling", f)
		}
	}
}

// TestAllFaultsApplicableEveryFamily: every fault of the catalog is
// injectable (Inject returns ok) on the honest labeling of every generator
// family, and the corrupted labeling is rejected — no fault is vacuous on
// any family, so the fault-injection experiments (E5, E12) and the distnet
// fault controller exercise the full catalog everywhere.
func TestAllFaultsApplicableEveryFamily(t *testing.T) {
	for _, tc := range completenessCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling := prove(t, s, cfg)
			rng := rand.New(rand.NewSource(11))
			for _, f := range AllFaults {
				mutated, ok := injectCopy(rng, labeling, f)
				if !ok {
					t.Errorf("fault %v not applicable on family %s", f, tc.name)
					continue
				}
				if core.AllAccept(verify(t, s, 0, cfg, mutated)) {
					t.Errorf("fault %v undetected on family %s", f, tc.name)
				}
			}
		})
	}
}

// TestInjectNotInjectable: faults report ok=false on labelings that cannot
// host them instead of silently returning an unchanged copy.
func TestInjectNotInjectable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	empty := &core.Labeling{Edges: map[graph.Edge]*core.EdgeLabel{}}
	for _, f := range AllFaults {
		if _, ok := injectCopy(rng, empty, f); ok {
			t.Errorf("fault %v injectable on empty labeling", f)
		}
	}
	if _, ok := injectCopy(rng, nil, FlipClass); ok {
		t.Error("fault injectable on nil labeling")
	}
	if _, ok := injectCopy(rng, empty, numFaults); ok {
		t.Error("unknown fault injectable")
	}
}

// shiftTerminalSortedKeys is the shift-terminal injector as it read when
// terminal ids were held in lane-keyed maps: it collects the lanes, sorts
// them, and bumps the id on a random one. The slice-based injector must
// draw the same random numbers and hit the same lane.
func shiftTerminalSortedKeys(rng *rand.Rand, el *core.EdgeLabel) bool {
	if el == nil || el.Own == nil {
		return false
	}
	var candidates []*core.NodeEntry
	for _, en := range el.Own.Path {
		if len(en.OutIDs) > 0 {
			candidates = append(candidates, en)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	en := candidates[rng.Intn(len(candidates))]
	pos := make(map[int]int, len(en.Lanes))
	for i, l := range en.Lanes {
		pos[l] = i
	}
	lanes := make([]int, 0, len(pos))
	for l := range pos {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	en.OutIDs[pos[lanes[rng.Intn(len(lanes))]]] += 1 + uint64(rng.Intn(5))
	return true
}

// TestShiftTerminalPicksSortedLane keeps E5's shift-terminal detection
// rates reproducible: for every seed and label of every family, the
// injector corrupts the same lane by the same amount as the sorted-keys
// version did.
func TestShiftTerminalPicksSortedLane(t *testing.T) {
	for _, tc := range completenessCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			labeling := prove(t, core.NewScheme(tc.prop, 8), cert.NewConfig(tc.g))
			for e, el := range labeling.Edges {
				for seed := int64(0); seed < 4; seed++ {
					got, want := el.Clone(), el.Clone()
					okGot := injectShiftTerminal(rand.New(rand.NewSource(seed)), got)
					okWant := shiftTerminalSortedKeys(rand.New(rand.NewSource(seed)), want)
					if okGot != okWant || got.Key() != want.Key() {
						t.Fatalf("edge %v seed %d: injector diverges from the sorted-keys version", e, seed)
					}
					if okGot && got.Key() == el.Key() {
						t.Fatalf("edge %v seed %d: injector changed nothing", e, seed)
					}
				}
			}
		})
	}
}

// TestInjectAllocationsDoNotGrow bounds the allocations of one
// flip-real-bit injection by a constant, on interval graphs whose edge
// counts differ eightfold. Only a few labels of an interval graph can host
// the fault, so an injector that cloned every label it tried would
// allocate in proportion to the edges probed (236,712 allocations at
// m = 2047 when every candidate was cloned); probing first clones one
// label, and the shuffled order of the edges is one slice.
func TestInjectAllocationsDoNotGrow(t *testing.T) {
	const maxAllocs = 128
	for _, n := range []int{256, 2048} {
		g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), n, 2)
		labeling := prove(t, core.NewScheme(algebra.Colorable{Q: 3}, 3), cert.NewConfig(g))
		edges := g.Edges()
		label := func(e graph.Edge) *core.EdgeLabel { return labeling.Edges[e] }
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, ok := Inject(rand.New(rand.NewSource(1)), edges, label, FlipRealBit); !ok {
				t.Fatal("flip-real-bit not injectable")
			}
		})
		t.Logf("n=%d m=%d: %.0f allocations per injection", n, g.M(), allocs)
		if allocs > maxAllocs {
			t.Errorf("n=%d m=%d: %.0f allocations per injection, want ≤ %d", n, g.M(), allocs, maxAllocs)
		}
	}
}
