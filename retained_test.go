package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lanewidth"
)

// TestStructureRetainsOnlyPassTables pins what a held structure costs: on
// Interval(1, 32768, 2), the prove-large shape, a StructuralProof may keep
// at most 500 bytes of live heap per hierarchy node. A structure keeps only
// what a property pass reads (per-node summaries and shapes, parent and
// owner ids, the embedding entries and pointing labels), not the hierarchy
// graph or the tables assembly derives it from. Structures are built
// inline (Parallelism 1), so no pool goroutine runs while the heap is read.
func TestStructureRetainsOnlyPassTables(t *testing.T) {
	const maxBytesPerNode = 500
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), 32768, 2)
	cfg := cert.NewConfig(g)
	build := func() any {
		sp, err := core.BuildStructureCtx(context.Background(), cfg, nil, core.StructureOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	nodes := hierarchyNodes(t, cfg, build().(*core.StructuralProof))
	perNode := retainedBytesEach(2, build) / float64(nodes)
	t.Logf("%d hierarchy nodes, %.0f retained bytes per node (%.1f MB a structure)", nodes, perNode, perNode*float64(nodes)/1e6)
	if perNode > maxBytesPerNode {
		t.Fatalf("a held structure keeps %.0f bytes per hierarchy node, want ≤ %d", perNode, maxBytesPerNode)
	}
}

// hierarchyNodes counts the nodes of the structure's hierarchy, rebuilt
// outside the structure from its decomposition and lane partition.
func hierarchyNodes(t *testing.T, cfg *cert.Config, sp *core.StructuralProof) int {
	t.Helper()
	log, err := lanewidth.FromCompletion(cfg.G, sp.PD.ToIntervals(cfg.G.N()), sp.Partition)
	if err != nil {
		t.Fatal(err)
	}
	h, err := lanewidth.BuildHierarchy(sp.Completion.Graph, log)
	if err != nil {
		t.Fatal(err)
	}
	return len(h.Nodes)
}
