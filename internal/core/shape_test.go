package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pathEntries calls f on every entry of every certificate the label
// carries.
func pathEntries(el *EdgeLabel, f func(*NodeEntry)) {
	certs := []*CEdgeLabel{el.Own}
	for _, e := range el.Emb {
		certs = append(certs, e.Payload)
	}
	for _, c := range certs {
		if c != nil {
			for _, e := range c.Path {
				f(e)
			}
		}
	}
}

// TestPropertyPassesShareShapes pins the split of a node entry into a
// shape per structure and class ids per property pass. After a
// six-property batch on Ladder(256), every property's entry for a node
// points at the structure's one shape of that node. A forgery through a
// clone — a lane, an in-terminal id and a class id of every entry of one
// property's labels changed, as the soundness oracle and dist's fault
// injection change them — leaves every original label of every property
// encoding as before (by the reference encoder, which reads the entries'
// fields afresh) and every property verifying.
func TestPropertyPassesShareShapes(t *testing.T) {
	ctx := context.Background()
	cfg := cert.NewConfig(gen.Ladder(256))
	props := []algebra.Property{ // all hold on Ladder(256)
		algebra.Colorable{Q: 2},
		algebra.Colorable{Q: 3},
		algebra.PerfectMatching{},
		algebra.HamiltonianCycle{},
		algebra.MaxDegreeAtMost{D: 3},
		algebra.EvenEdges{},
	}
	b, err := NewBatch(props, BatchOptions{MaxLanes: 8, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildStructureCtx(ctx, cfg, nil, StructureOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	labs, stats, err := b.ProveAllWithCtx(ctx, sp)
	if err != nil || len(stats.Failed) > 0 || len(labs) != len(props) {
		t.Fatalf("batch: %v, failed %v", err, stats.Failed)
	}
	before := map[string]map[graph.Edge]string{}
	for name, l := range labs {
		before[name] = map[graph.Edge]string{}
		for e, el := range l.Edges {
			pathEntries(el, func(en *NodeEntry) {
				if en.Shape != sp.shapes[en.NodeID] {
					t.Fatalf("%s: edge %v's entry of node %d has its own shape", name, e, en.NodeID)
				}
			})
			before[name][e], _ = refLabelBits(el)
		}
	}
	for _, el := range labs[props[0].Name()].Edges {
		pathEntries(el.Clone(), func(en *NodeEntry) {
			en.Lanes[0]++
			en.InIDs[0] += 7
			en.Classes[0] += 1
		})
	}
	for name, l := range labs {
		for e, el := range l.Edges {
			if got, _ := refLabelBits(el); got != before[name][e] {
				t.Fatalf("%s: a forgery through a clone changed edge %v's label", name, e)
			}
		}
		if !AllAccept(verify(t, b.Scheme(name), cfg, l)) {
			t.Fatalf("%s: a forgery through a clone broke the original labeling", name)
		}
	}
}

// TestEntryAssemblyAllocation bounds the bytes a property pass allocates
// to assemble its entries on Ladder(512), per entry (one per node but the
// V-nodes, 4087 here). Copying every shape field into each property's
// entries, with their child and operand summaries, measured 465 B per
// entry; an entry that points at its node's shape and holds only its
// class ids, carved from per-worker arenas, measured 104 B (go1.24,
// amd64). The bound is 1.25 times that.
func TestEntryAssemblyAllocation(t *testing.T) {
	ctx := context.Background()
	cfg := cert.NewConfig(gen.Ladder(512))
	sp, err := BuildStructureCtx(ctx, cfg, nil, StructureOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(algebra.Colorable{Q: 3}, 8)
	s.Workers = 1
	enc, err := s.buildEncoderReuse(ctx, sp, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, sh := range sp.shapes {
		if sh != nil {
			entries++
		}
	}
	perEntry := 1e18
	var ms runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&ms)
		from := ms.TotalAlloc
		if err := enc.assembleEntries(ctx, nil, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		perEntry = min(perEntry, float64(ms.TotalAlloc-from)/float64(entries))
	}
	t.Logf("%d entries, %.1f B each", entries, perEntry)
	const bound = 1.25 * 104
	if perEntry > bound {
		t.Fatalf("entry assembly allocates %.1f B per entry, want ≤ %.1f", perEntry, bound)
	}
}
