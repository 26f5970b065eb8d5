package core

// Pins for the per-structure label layouts: every encoding path — a first
// pass that lays a label out, a later pass that splices its class ids in,
// a decoded label's re-encode, a clone, an entry's Key — must produce the
// reference encoding (refencoder_test.go) byte for byte; a structure lays
// each edge out once, however many property passes run over it and in
// whatever order they race; and an incremental update lays out only the
// labels it re-encodes.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
)

// layoutProps is a property mix whose members all hold on the ladders
// below, so every pass encodes every label.
func layoutProps() []algebra.Property {
	return []algebra.Property{
		algebra.Colorable{Q: 2},
		algebra.Colorable{Q: 3},
		algebra.HamiltonianCycle{},
		algebra.MaxDegreeAtMost{D: 3},
		algebra.PerfectMatching{},
	}
}

func TestEncoderMatchesReferenceOnEveryFamily(t *testing.T) {
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			lab, _, err := prove(NewScheme(tc.prop, 8), cert.NewConfig(tc.g), nil)
			if err != nil {
				t.Fatal(err)
			}
			for e, el := range lab.Edges {
				requireRefEncoding(t, fmt.Sprintf("edge %v", e), el)
				requireRefEncoding(t, fmt.Sprintf("clone of edge %v", e), el.Clone())
				requireRefEncoding(t, fmt.Sprintf("ranked clone of edge %v", e), withClassRanks(el.Clone()))
			}
		})
	}
}

// withClassRanks gives every other class id on the label's own certificate
// a collision rank, so the class dictionary mixes ranked and unranked ids.
func withClassRanks(l *EdgeLabel) *EdgeLabel {
	if l.Own == nil {
		return l
	}
	rank := func(id *int) {
		if *id%2 == 0 {
			*id |= (1 + *id%5) << algebra.ClassHashBits
		}
	}
	for _, e := range l.Own.Path {
		rank(&e.Classes[0])
		if e.member() {
			rank(&e.Classes[1])
		}
		at := e.opsAt()
		for _, op := range e.operands() {
			if op != nil {
				rank(&e.Classes[at])
				at++
			}
		}
	}
	return l
}

// TestBatchSplicesMatchReference proves a batch twice on one structure —
// the first pass lays every edge out, every other pass of either batch
// splices — and checks every label of every property against the
// reference encoder, then decodes every label through one shared Decoder
// (as UnmarshalBinary does) and checks the decoded labels' re-encodings.
func TestBatchSplicesMatchReference(t *testing.T) {
	for _, tc := range append(regressionConfigs(t), regressionConfig{"ladder64", gen.Ladder(64), nil}) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cert.NewConfig(tc.g)
			sp, err := BuildStructureCtx(context.Background(), cfg, nil, StructureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			props := append(layoutProps(), algebra.Acyclic{}, algebra.EvenEdges{})
			b, err := NewBatch(props, BatchOptions{MaxLanes: 8, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			for round := range 2 {
				labelings, _, err := b.ProveAllWithCtx(context.Background(), sp)
				if err != nil {
					t.Fatal(err)
				}
				if len(labelings) < 2 {
					t.Fatalf("only %d properties hold; the splice is not exercised", len(labelings))
				}
				var d Decoder
				for name, lab := range labelings {
					for e := range tc.g.EdgesSeq() {
						el := lab.Edges[e]
						what := fmt.Sprintf("round %d, %s, edge %v", round, name, e)
						requireRefEncoding(t, what, el)
						data, nbits := EncodeLabel(el)
						dl, err := d.DecodeLabel(data, nbits)
						if err != nil {
							t.Fatalf("%s: decode: %v", what, err)
						}
						requireRefEncoding(t, what+" (decoded)", dl)
						if dl.Key() != el.Key() {
							t.Fatalf("%s: decoded label re-encodes differently", what)
						}
					}
				}
			}
			if got, m := sp.layoutBuilds.Load(), int64(tc.g.M()); got != m {
				t.Fatalf("two batches built %d layouts on %d edges, want one per edge", got, m)
			}
		})
	}
}

// TestSecondPassBuildsNoLayout pins the sharing: the first property pass
// over a structure lays out every real edge's label, and no later pass —
// another property, or the same one again — lays out any.
func TestSecondPassBuildsNoLayout(t *testing.T) {
	g := gen.Ladder(128)
	sp, err := BuildStructureCtx(context.Background(), cert.NewConfig(g), nil, StructureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, prop := range layoutProps() {
		s := NewScheme(prop, 8)
		if _, _, err := s.ProveWithCtx(context.Background(), sp); err != nil {
			t.Fatalf("%s: %v", prop.Name(), err)
		}
		if got := sp.layoutBuilds.Load(); got != int64(g.M()) {
			t.Fatalf("after pass %d (%s): %d layouts built on %d edges", i+1, prop.Name(), got, g.M())
		}
	}
}

// TestConcurrentPassesRaceToFillLayouts runs a batch of five properties at
// parallelism 4 on a fresh structure, so the passes race to lay out the
// same edges, and requires every labeling to be byte-identical to a
// sequential independent prove on a structure of its own. Under -race it
// also checks that filling a slot and splicing from it are synchronized.
func TestConcurrentPassesRaceToFillLayouts(t *testing.T) {
	g := gen.Ladder(256)
	props := layoutProps()
	sp, err := BuildStructureCtx(context.Background(), cert.NewConfig(g), nil, StructureOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(props, BatchOptions{MaxLanes: 8, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	labelings, stats, err := b.ProveAllWithCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Failed) > 0 {
		t.Fatalf("properties failed: %v", stats.Failed)
	}
	if got := sp.layoutBuilds.Load(); got != int64(g.M()) {
		t.Fatalf("racing passes built %d layouts on %d edges, want one per edge", got, g.M())
	}
	for _, prop := range props {
		s := NewScheme(prop, 8)
		s.Workers = 1
		want, _, err := prove(s, cert.NewConfig(g.Clone()), nil)
		if err != nil {
			t.Fatalf("%s: %v", prop.Name(), err)
		}
		requireByteIdentical(t, prop.Name(), labelings[prop.Name()], want)
	}
}

// TestTailEditLaysOutOnlyNewLabels pins the update side: a one-rung edit at
// the tail of a ladder reuses some labels and re-encodes the rest, and the
// new generation's structure lays out at most as many labels as it
// re-encoded — reused labels cost no layout.
func TestTailEditLaysOutOnlyNewLabels(t *testing.T) {
	const k = 256
	props := []algebra.Property{algebra.Colorable{Q: 2}, algebra.MaxDegreeAtMost{D: 3}}
	inc, err := NewIncremental(context.Background(), cert.NewConfig(gen.Ladder(k)), props, nil, IncrementalOptions{MaxLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, m := inc.gen.sp.layoutBuilds.Load(), int64(inc.cfg.G.M()); got != m {
		t.Fatalf("initial generation built %d layouts on %d edges", got, m)
	}
	u, v := graph.Vertex(2*(k-2)), graph.Vertex(2*(k-2)+1)
	for _, op := range []EditOp{EditRemove, EditAdd} {
		us, err := inc.UpdateBatch(context.Background(), []Edit{{Op: op, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if us.Fallback {
			t.Fatal("tail edit fell back to a full re-prove")
		}
		encoded := us.TotalLabels - us.ReusedLabels
		built := inc.gen.sp.layoutBuilds.Load()
		if built > int64(encoded) {
			t.Fatalf("%v: %d layouts built for %d re-encoded labels", op, built, encoded)
		}
		if encoded >= us.TotalLabels {
			t.Fatalf("%v: a tail edit reused none of %d labels", op, us.TotalLabels)
		}
		t.Logf("%v: %d layouts built for %d re-encoded labels of %d", op, built, encoded, us.TotalLabels)
	}
}

// TestSpliceRejectsForeignLayout pins the splice's shape check: a label
// spliced into a layout with a different row count is a programming error
// and panics instead of writing a wrong encoding.
func TestSpliceRejectsForeignLayout(t *testing.T) {
	lab, _, err := prove(NewScheme(algebra.Colorable{Q: 2}, 8), cert.NewConfig(gen.Ladder(16)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var small, large *EdgeLabel
	smallRows, largeRows := 0, 0
	for _, el := range lab.Edges {
		rows, _ := el.table(nil, nil)
		if small == nil || len(rows) < smallRows {
			small, smallRows = el, len(rows)
		}
		if large == nil || len(rows) > largeRows {
			large, largeRows = el, len(rows)
		}
	}
	if smallRows == largeRows {
		t.Fatalf("every label has %d rows", smallRows)
	}
	src := large.Clone()
	lay := src.encode(true)
	lay.src = src.cache.key
	defer func() {
		if recover() == nil {
			t.Fatal("splicing a label into a foreign layout did not panic")
		}
	}()
	small.Clone().spliceFrom(&lay)
}
