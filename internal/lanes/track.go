package lanes

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
)

// TrackedEmbedding is an Embedding plus the per-source dependency metadata
// needed to re-derive it incrementally after graph edits. For each BFS
// source it records the ball of vertices the truncated traversal saw and
// the target set it was answering; a later re-embedding may reuse the
// source's paths verbatim whenever both are provably unchanged.
type TrackedEmbedding struct {
	Emb Embedding
	// balls[src] lists every vertex src's truncated BFS stamped as seen.
	// The BFS only ever reads the adjacency of vertices it dequeues, all of
	// which are in this ball, so an edit whose endpoints avoid the ball
	// cannot alter the traversal.
	balls map[graph.Vertex][]graph.Vertex
	// targets[src] is the sorted target set src's batch answered. The
	// traversal's termination point depends on it, so reuse also requires
	// it to be unchanged.
	targets map[graph.Vertex][]graph.Vertex
	// reused counts the sources taken over from the previous embedding.
	reused int
}

// Embed embeds every virtual edge of c as a BFS shortest path in g. This is
// the pragmatic embedding used for greedy partitions; its congestion carries
// no worst-case guarantee and is measured empirically (experiment E2
// ablation).
//
// Virtual edges are batched by source: one truncated BFS per distinct
// source vertex answers every virtual edge leaving it, and the traversal
// stops as soon as the batch's targets are all reached, so each BFS
// explores only the ball around its source instead of the whole graph. The
// truncated BFS builds the same parent-tree prefix a full g.Path BFS would,
// so each extracted path is identical to the naive per-edge g.Path(ve.U,
// ve.V) result.
//
// With prev set, every source whose prior traversal provably explores
// identical territory is reused verbatim: its target set is unchanged and no
// touched vertex lies in its recorded ball. touched must list every vertex
// whose adjacency changed since prev was built (both endpoints of every
// added or removed edge); a nil prev embeds from scratch. Sources are
// independent, so they are distributed over workers (≤ 1 runs inline), each
// with its own scratch. The embedding is identical for every prev and every
// workers value: reuse only short-circuits traversals whose inputs did not
// change, and each path depends only on its source's batch and the graph.
func Embed(g *graph.Graph, c *Completion, prev *TrackedEmbedding, touched []graph.Vertex, workers int) (*TrackedEmbedding, error) {
	bySource := groupBySource(c.Virtual)
	sources := make([]graph.Vertex, 0, len(bySource))
	for src := range bySource {
		sources = append(sources, src)
	}
	touchSet := make(map[graph.Vertex]bool, len(touched))
	for _, v := range touched {
		touchSet[v] = true
	}
	workers = max(min(par.Workers(workers), len(sources)), 1)
	out := &TrackedEmbedding{
		Emb:     make(Embedding, len(c.Virtual)),
		balls:   make(map[graph.Vertex][]graph.Vertex, len(sources)),
		targets: make(map[graph.Vertex][]graph.Vertex, len(sources)),
	}
	// Each worker writes paths into its own map (worker 0 straight into the
	// result) and per-source metadata into index-addressed slots.
	partial := make([]Embedding, workers)
	partial[0] = out.Emb
	for w := 1; w < workers; w++ {
		partial[w] = make(Embedding)
	}
	scratches := make([]*embedScratch, workers)
	balls := make([][]graph.Vertex, len(sources))
	targets := make([][]graph.Vertex, len(sources))
	reused := make([]bool, len(sources))
	err := par.ForErr(workers, len(sources), func(worker, i int) error {
		src, ves := sources[i], bySource[sources[i]]
		targets[i] = sortedTargets(ves)
		if prev != nil {
			if old, ok := prev.targets[src]; ok && slices.Equal(targets[i], old) && !ballTouched(prev.balls[src], touchSet) {
				for _, ve := range ves {
					partial[worker][ve] = prev.Emb[ve]
				}
				balls[i], reused[i] = prev.balls[src], true
				return nil
			}
		}
		if scratches[worker] == nil {
			scratches[worker] = newEmbedScratch(g.N())
		}
		ball, err := scratches[worker].run(g, src, ves, partial[worker])
		balls[i] = slices.Clone(ball)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, p := range partial[1:] {
		for ve, path := range p {
			out.Emb[ve] = path
		}
	}
	for i, src := range sources {
		out.balls[src], out.targets[src] = balls[i], targets[i]
		if reused[i] {
			out.reused++
		}
	}
	return out, nil
}

// Sources returns the number of BFS sources the embedding was batched into.
func (te *TrackedEmbedding) Sources() int { return len(te.balls) }

// Reused returns how many of those sources were taken over from the
// previous embedding without a traversal.
func (te *TrackedEmbedding) Reused() int { return te.reused }

func sortedTargets(ves []graph.Edge) []graph.Vertex {
	tg := make([]graph.Vertex, len(ves))
	for i, ve := range ves {
		tg[i] = ve.V
	}
	sort.Ints(tg)
	return tg
}

func ballTouched(ball []graph.Vertex, touched map[graph.Vertex]bool) bool {
	for _, v := range ball {
		if touched[v] {
			return true
		}
	}
	return false
}
