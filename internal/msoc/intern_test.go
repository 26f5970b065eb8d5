package msoc

import (
	"context"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mso"
)

// TestInternedNodesKeepTheirDigests proves two compiled formulas and then
// checks every node the interner holds: its id is the digest of its
// content, as computeID reads it now, and no two nodes share an id. The
// interner finds nodes by identity and digests only new ones, so this is
// the pin that identity and digest equality agree: a node a digest-keyed
// interner would have merged with another is never kept twice.
func TestInternedNodesKeepTheirDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    mso.Formula
		g    *graph.Graph
	}{
		{"bipartite-ladder", mso.BipartiteFormula(), gen.Ladder(48)},
		{"3color-path", mso.ThreeColorableFormula(), graph.PathGraph(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			sp, err := core.BuildStructureCtx(ctx, cert.NewConfig(tc.g), nil, core.StructureOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewScheme(p, core.DefaultMaxLanes)
			s.Workers = 2
			if _, _, err := s.ProveWithCtx(ctx, sp); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.Composes == 0 || st.NewNodes == 0 || st.InternCalls < st.NewNodes {
				t.Fatalf("implausible counters after a prove: %+v", st)
			}
			p.in.mu.Lock()
			defer p.in.mu.Unlock()
			seen := make(map[string]*node, len(p.in.nodes))
			for serial, n := range p.in.nodes {
				if int(n.serial) != serial {
					t.Fatalf("node at %d carries serial %d", serial, n.serial)
				}
				if d := n.computeID(); n.id != d {
					t.Fatalf("node %d: id %x, content digest %x", serial, n.id, d)
				}
				if o, dup := seen[n.id]; dup {
					t.Fatalf("nodes %d and %d share id %x", o.serial, serial, n.id)
				}
				seen[n.id] = n
			}
			t.Logf("%+v", st)
		})
	}
}
