package core

// Pins for the StructuralProof / batch split: ProveAllWithCtx's labelings
// must be byte-identical to B independent proves, across every generator
// family, including failure parity (a property failing in the batch fails
// the same way independently).

import (
	"context"
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
)

// batchProps is a property mix with both holding and failing members on
// most families, exercising the Failed bookkeeping alongside labelings.
func batchProps() []algebra.Property {
	return []algebra.Property{
		algebra.Colorable{Q: 2},
		algebra.Colorable{Q: 3},
		algebra.Acyclic{},
		algebra.MaxDegreeAtMost{D: 3},
		algebra.EvenEdges{},
	}
}

// proveBatch builds the structure with the batch's parallelism and labels
// every property of the batch against it.
func proveBatch(b *Batch, cfg *cert.Config) (map[string]*Labeling, *BatchStats, error) {
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{Parallelism: b.opts.Parallelism})
	if err != nil {
		return nil, nil, err
	}
	return b.ProveAllWithCtx(context.Background(), sp)
}

// verifyBatch verifies each labeling with its property's batch scheme and
// fails the test if verification errs.
func verifyBatch(t *testing.T, b *Batch, cfg *cert.Config, labelings map[string]*Labeling) map[string][]bool {
	t.Helper()
	out := make(map[string][]bool, len(labelings))
	for _, name := range b.Properties() {
		if l, ok := labelings[name]; ok {
			out[name] = verify(t, b.Scheme(name), cfg, l)
		}
	}
	return out
}

func TestProveAllByteIdenticalToIndependentProves(t *testing.T) {
	props := batchProps()
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cert.NewConfig(tc.g)
			b, err := NewBatch(props, BatchOptions{MaxLanes: 8, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			labelings, stats, err := proveBatch(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, prop := range props {
				name := prop.Name()
				s := NewScheme(prop, 8)
				refLabeling, refStats, refErr := prove(s, cert.NewConfig(tc.g), nil)
				if refErr != nil {
					if !errors.Is(refErr, ErrPropertyFails) {
						t.Fatalf("%s: independent prove: %v", name, refErr)
					}
					if ferr, failed := stats.Failed[name]; !failed || !errors.Is(ferr, ErrPropertyFails) {
						t.Fatalf("%s: independent prove fails (%v) but batch recorded %v", name, refErr, ferr)
					}
					if _, ok := labelings[name]; ok {
						t.Fatalf("%s: failing property has a batch labeling", name)
					}
					continue
				}
				got, ok := labelings[name]
				if !ok {
					t.Fatalf("%s: independent prove succeeds but batch has no labeling (failed: %v)",
						name, stats.Failed[name])
				}
				st := stats.PerProperty[name]
				if st == nil {
					t.Fatalf("%s: batch has no stats", name)
				}
				// Stage timings are wall-clock, never comparable across runs.
				gotSt, wantSt := *st, *refStats
				gotSt.Stages, wantSt.Stages = StageTimings{}, StageTimings{}
				if gotSt != wantSt {
					t.Fatalf("%s: stats differ: batch %+v vs independent %+v", name, gotSt, wantSt)
				}
				if len(got.Edges) != len(refLabeling.Edges) {
					t.Fatalf("%s: edge count differs", name)
				}
				for e, el := range refLabeling.Edges {
					bl := got.Edges[e]
					if bl == nil {
						t.Fatalf("%s: edge %v missing from batch labeling", name, e)
					}
					if el.Key() != bl.Key() {
						t.Fatalf("%s: edge %v label differs between batch and independent prove", name, e)
					}
					if el.Bits() != bl.Bits() {
						t.Fatalf("%s: edge %v bit size differs", name, e)
					}
				}
			}
			// Shared-structure stats must match any successful property's
			// structural stats.
			for name, st := range stats.PerProperty {
				if st.Lanes != stats.Lanes || st.VirtualEdges != stats.VirtualEdges ||
					st.Congestion != stats.Congestion || st.HierarchyDepth != stats.HierarchyDepth {
					t.Fatalf("%s: structural stats diverge: %+v vs batch %+v", name, st, stats)
				}
			}
		})
	}
}

func TestVerifyAllAcceptsBatchLabelings(t *testing.T) {
	g := gen.Caterpillar(10, 1)
	cfg := cert.NewConfig(g)
	b, err := NewBatch(batchProps(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labelings, _, err := proveBatch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(labelings) == 0 {
		t.Fatal("no property certified")
	}
	verdicts := verifyBatch(t, b, cfg, labelings)
	if len(verdicts) != len(labelings) {
		t.Fatalf("verdicts for %d of %d labelings", len(verdicts), len(labelings))
	}
	for name, vs := range verdicts {
		if !AllAccept(vs) {
			t.Errorf("%s: honest batch labeling rejected", name)
		}
	}
	// A labeling for a property outside the batch has no scheme to
	// verify it with.
	if b.Scheme("no-such-property") != nil {
		t.Error("batch has a scheme for an unknown property")
	}
}

func TestProveAllSharedStructureReuse(t *testing.T) {
	g := graph.PathGraph(24)
	cfg := cert.NewConfig(g)
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBatch([]algebra.Property{algebra.Colorable{Q: 2}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBatch([]algebra.Property{algebra.Acyclic{}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One structure served to two batches: both must certify and verify.
	for _, b := range []*Batch{b1, b2} {
		labelings, _, err := b.ProveAllWithCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		verdicts := verifyBatch(t, b, cfg, labelings)
		for name, vs := range verdicts {
			if !AllAccept(vs) {
				t.Errorf("%s: rejected on reused structure", name)
			}
		}
	}
}

func TestProveAllSingleVertex(t *testing.T) {
	g := graph.New(1)
	cfg := cert.NewConfig(g)
	b, err := NewBatch([]algebra.Property{algebra.Colorable{Q: 2}, algebra.Acyclic{}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labelings, stats, err := proveBatch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(labelings) != 2 {
		t.Fatalf("expected 2 single-vertex labelings, got %d", len(labelings))
	}
	for name, l := range labelings {
		if len(l.Edges) != 0 {
			t.Errorf("%s: single-vertex labeling has edges", name)
		}
	}
	if stats.Lanes != 0 || stats.HierarchyDepth != 0 {
		t.Errorf("single-vertex batch has structural stats: %+v", stats)
	}
}

func TestNewBatchRejectsBadInputs(t *testing.T) {
	if _, err := NewBatch(nil, BatchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	dup := []algebra.Property{algebra.Acyclic{}, algebra.Acyclic{}}
	if _, err := NewBatch(dup, BatchOptions{}); err == nil {
		t.Error("duplicate property accepted")
	}
}

func TestProveWithRejectsLaneBudgetOverflow(t *testing.T) {
	g := gen.Caterpillar(8, 2)
	cfg := cert.NewConfig(g)
	sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(algebra.Colorable{Q: 2}, 1)
	if _, _, err := s.ProveWithCtx(context.Background(), sp); !errors.Is(err, ErrTooManyLanes) {
		t.Fatalf("expected ErrTooManyLanes, got %v", err)
	}
}

// TestSharedMemoSecondPassComputesNothing pins Stats' memo-miss count:
// batches built over one set of memos share every evaluation, so a second
// batch on the same configuration computes none, its labelings stay
// byte-identical to the first's, and a scheme over the same memo rebuilds
// and verifies a decoded copy without computing anything either.
func TestSharedMemoSecondPassComputesNothing(t *testing.T) {
	props := batchProps()
	memos := make([]*Memo, len(props))
	for i := range memos {
		memos[i] = NewMemo()
	}
	cfg := cert.NewConfig(gen.Ladder(10))
	run := func() (map[string]*Labeling, *BatchStats) {
		b, err := NewBatchMemo(props, memos, BatchOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		labelings, stats, err := proveBatch(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return labelings, stats
	}
	first, firstStats := run()
	second, secondStats := run()
	for i, prop := range props {
		name := prop.Name()
		st, ok := secondStats.PerProperty[name]
		if !ok {
			continue // the property fails on the ladder
		}
		if firstStats.PerProperty[name].Stages.MemoMisses == 0 {
			t.Fatalf("%s: the first pass over an empty memo computed nothing", name)
		}
		if st.Stages.MemoMisses != 0 {
			t.Fatalf("%s: the second pass computed %d evaluations, want 0", name, st.Stages.MemoMisses)
		}
		requireByteIdentical(t, name, second[name], first[name])

		s := NewSchemeMemo(prop, DefaultMaxLanes, memos[i])
		decoded := decodedCopy(t, first[name])
		if err := s.RebuildRegistry(decoded); err != nil {
			t.Fatal(err)
		}
		for v, ok := range verify(t, s, cfg, decoded) {
			if !ok {
				t.Fatalf("%s: vertex %d rejects the decoded copy", name, v)
			}
		}
		if n := s.memoMisses(); n != 0 {
			t.Fatalf("%s: rebuild and verify of the decoded copy computed %d evaluations, want 0", name, n)
		}
	}
}
