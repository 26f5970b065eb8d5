// Package dist runs the one-round distributed verification of a proof
// labeling scheme (the paper's Section 1 self-stabilization motivation):
// every vertex is a processor with its own copy of its incident edge labels,
// in one synchronous round each processor receives its neighbors' copies of
// the shared edge labels, and each processor then evaluates the scheme's
// local verifier on what it holds. A processor rejects when its neighbor's
// copy of a shared edge label disagrees with its own (asymmetric memory
// corruption) or when the local verifier of Theorem 1 rejects its view.
//
// Each processor reads only its incident labels, so how the round is
// scheduled is not part of the scheme: Run evaluates every processor's
// decision (Checker.CheckVertex) on the bounded worker pool the verifier
// uses, sized by Scheme.Workers, one Checker per worker, and the verdicts
// are the same for every size.
package dist

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
)

// Result is the outcome of one verification round.
type Result struct {
	// Verdicts[v] is processor v's local accept/reject decision.
	Verdicts []bool
	// Rejected lists the rejecting processors in ascending order.
	Rejected []graph.Vertex
}

// Accepted reports whether every processor accepted (the scheme's global
// acceptance condition).
func (r Result) Accepted() bool { return len(r.Rejected) == 0 }

// Run executes one synchronous verification round of the scheme over the
// configuration's graph, every processor holding the same labeling: each
// processor collects its own and its neighbors' copies of its incident edge
// labels and decides. Run honors ctx: cancellation aborts the round and
// returns ctx.Err(). The labeling is only read, never mutated.
func Run(ctx context.Context, cfg *cert.Config, scheme *core.Scheme, labeling *core.Labeling) (Result, error) {
	if labeling == nil {
		return Result{}, fmt.Errorf("dist: nil labeling")
	}
	return run(ctx, cfg, scheme, func(graph.Vertex) *core.Labeling { return labeling })
}

// RunWithMemoryFault runs one verification round after corrupting processor
// v's private copy of one of its incident edge labels: the other processors
// keep the honest labeling, so the corruption is asymmetric and detecting it
// requires the neighbor exchange (a neighbor's copy of the shared edge label
// no longer agrees with v's). It reports ok=false when none of v's incident
// labels can host the fault. The input labeling is never mutated.
func RunWithMemoryFault(
	ctx context.Context, cfg *cert.Config, scheme *core.Scheme, labeling *core.Labeling,
	rng *rand.Rand, v graph.Vertex, f Fault,
) (res Result, ok bool, err error) {
	if labeling == nil {
		return Result{}, false, fmt.Errorf("dist: nil labeling")
	}
	if InjectorFor(f) == nil {
		return Result{}, false, fmt.Errorf("dist: unknown fault %v", f)
	}
	if v < 0 || v >= cfg.G.N() {
		return Result{}, false, fmt.Errorf("dist: processor %d out of range [0, %d)", v, cfg.G.N())
	}
	incident := make([]graph.Edge, 0, cfg.G.Degree(v))
	for _, w := range cfg.G.Neighbors(v) {
		incident = append(incident, graph.NewEdge(v, w))
	}
	// Corrupt memory = the honest labeling with one of v's incident edge
	// labels replaced (copy-on-write; the round only reads).
	corrupt, injected := injectAt(rng, labeling, incident, f)
	if !injected {
		return Result{}, false, nil
	}
	res, err = run(ctx, cfg, scheme, func(u graph.Vertex) *core.Labeling {
		if u == v {
			return corrupt
		}
		return labeling
	})
	return res, true, err
}

// run executes the round; sideOf selects the label memory of processor u
// (per-processor memory may diverge under asymmetric corruption). Processor
// v's own copy of edge {v,w} comes from sideOf(v) and the copy its neighbor
// sends from sideOf(w), so a fault in one memory is seen only as the two
// copies disagreeing. The context is polled once per 64-vertex chunk.
func run(ctx context.Context, cfg *cert.Config, scheme *core.Scheme, sideOf func(graph.Vertex) *core.Labeling) (Result, error) {
	if scheme == nil {
		return Result{}, fmt.Errorf("dist: nil scheme")
	}
	g := cfg.G
	verdicts := make([]bool, g.N())
	// Each worker decides vertex after vertex on its own Checker and its
	// own copy lists, so a round allocates per worker, not per vertex.
	type worker struct {
		check        Checker
		mine, remote []*core.EdgeLabel
	}
	workers := make([]worker, par.Workers(scheme.Workers))
	err := par.ForErr(scheme.Workers, g.N(), func(wk, v int) error {
		if v&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w := &workers[wk]
		neighbors := g.Neighbors(v)
		w.mine, w.remote = w.mine[:0], w.remote[:0]
		for _, u := range neighbors {
			e := graph.NewEdge(v, u)
			w.mine = append(w.mine, sideOf(v).Edges[e])
			w.remote = append(w.remote, sideOf(u).Edges[e])
		}
		verdicts[v] = w.check.CheckVertex(scheme, cfg.IDs[v], cfg.Input(v), len(neighbors) == 0, w.mine, w.remote)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Verdicts: verdicts}
	for v, ok := range verdicts {
		if !ok {
			res.Rejected = append(res.Rejected, v)
		}
	}
	return res, nil
}

// labelKey canonically encodes an edge label for the cross-endpoint
// agreement check (nil-tolerant wrapper around core's canonical encoding).
func labelKey(l *core.EdgeLabel) string {
	if l == nil {
		return ""
	}
	return l.Key()
}
