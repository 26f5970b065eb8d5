package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
)

// freshProve runs an independent from-scratch Prove of the property on a
// clone of the graph, with the given decomposition (nil = recompute).
func freshProve(t *testing.T, prop algebra.Property, g *graph.Graph, pd *interval.PathDecomposition, maxLanes int) (*Labeling, *Stats) {
	t.Helper()
	cfg := cert.NewConfig(g.Clone())
	s := NewScheme(prop, maxLanes)
	lab, stats, err := prove(s, cfg, pd)
	if err != nil {
		t.Fatalf("fresh Prove(%s): %v", prop.Name(), err)
	}
	return lab, stats
}

// requireByteIdentical asserts the two labelings encode identically edge
// for edge (EdgeLabel.Key is the full canonical encoding).
func requireByteIdentical(t *testing.T, where string, got, want *Labeling) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d labeled edges, want %d", where, len(got.Edges), len(want.Edges))
	}
	for e, wl := range want.Edges {
		gl, ok := got.Edges[e]
		if !ok {
			t.Fatalf("%s: edge %v missing from incremental labeling", where, e)
		}
		if gl.Key() != wl.Key() {
			t.Fatalf("%s: label of edge %v diverges from fresh prove", where, e)
		}
	}
}

func requireStatsEqual(t *testing.T, where string, got, want *Stats) {
	t.Helper()
	// Stage timings are wall-clock measurements, never comparable across runs.
	g, w := *got, *want
	g.Stages, w.Stages = StageTimings{}, StageTimings{}
	if g != w {
		t.Fatalf("%s: stats %+v, want %+v", where, g, w)
	}
}

// edgeSet snapshots the graph's edges for rollback assertions.
func edgeSet(g *graph.Graph) map[graph.Edge]bool {
	out := make(map[graph.Edge]bool, g.M())
	for e := range g.EdgesSeq() {
		out[e] = true
	}
	return out
}

func sameEdgeSet(a map[graph.Edge]bool, g *graph.Graph) bool {
	if len(a) != g.M() {
		return false
	}
	for e := range a {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// TestIncrementalDifferential drives randomized add/remove edit sequences
// on every generator family and pins the tentpole contract: after each
// successful update, every property's labeling and stats are byte-identical
// to an independent from-scratch Prove of the mutated graph (with the
// engine's retained decomposition, or from scratch after a fallback); after
// each rejected update, graph and certification state are rolled back. Each
// family runs at parallelism 1 (every pool loop inline) and 2 (the reuse
// path on goroutines) over the same edit sequence; ladder200 is large
// enough for several 64-node pool chunks per sweep level.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const steps = 30
	for _, fam := range differentialFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			// The first run draws each batch from rng and records it; later
			// runs replay the recording. Acceptance is deterministic, so
			// every run walks the same graph sequence.
			var recorded [][]Edit
			for _, parallelism := range []int{1, 2} {
				t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
					propose := func(step int, g *graph.Graph) []Edit {
						if step < len(recorded) {
							return recorded[step]
						}
						edits := randomEditBatch(rng, step, g)
						recorded = append(recorded, edits)
						return edits
					}
					applied, rejected, reused := runDifferential(t, fam.name, fam.build(), fam.props, fam.maxLanes, parallelism, steps, propose)
					if applied == 0 {
						t.Fatalf("no update of %d steps succeeded (rejected=%d); families must exercise the incremental path", steps, rejected)
					}
					if reused == 0 {
						t.Fatalf("no node entry was ever reused across %d applied updates", applied)
					}
				})
			}
		})
	}
}

// FuzzIncrementalEdits drives the incremental engine over
// TestIncrementalDifferential's families with fuzzed edit sequences and
// holds every outcome to its oracle: an accepted batch leaves every
// labeling byte-identical to a fresh prove of the edited graph, a rejected
// one rolls graph and labelings back. family picks the graph (its residue
// modulo the family count) and the parallelism (1 or 2, by the quotient's
// parity); script is cut into batches by splitEditScript and read by
// editBatch.
func FuzzIncrementalEdits(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 2, 0, 0, 0, 2, 0})          // a ladder rung removed, then restored
	f.Add(uint8(8), []byte{1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0}) // a grid batch of two edits, then one
	f.Fuzz(func(t *testing.T, family uint8, script []byte) {
		fam := differentialFamilies[int(family)%len(differentialFamilies)]
		parallelism := 1 + int(family)/len(differentialFamilies)%2
		batches := splitEditScript(script)
		applied, rejected, _ := runDifferential(t, fam.name, fam.build(), fam.props, fam.maxLanes, parallelism, len(batches),
			func(step int, g *graph.Graph) []Edit { return editBatch(batches[step], g) })
		t.Logf("%s, parallelism %d: %d batches applied, %d rejected", fam.name, parallelism, applied, rejected)
	})
}

// maxFuzzBatches bounds the batches one fuzz input applies, each checked
// against a fresh prove.
const maxFuzzBatches = 8

// splitEditScript cuts a fuzz script into at most maxFuzzBatches batches: a
// header byte h announces 1 + h%3 edits of three bytes each (see editBatch).
// A truncated last batch is dropped.
func splitEditScript(script []byte) [][]byte {
	var batches [][]byte
	for len(script) > 0 && len(batches) < maxFuzzBatches {
		n := 3 * (1 + int(script[0])%3)
		if len(script) < 1+n {
			break
		}
		batches = append(batches, script[1:1+n])
		script = script[1+n:]
	}
	return batches
}

// editBatch reads a batch's edits against the current graph, three bytes
// each: u = the first two (big-endian) mod n, then a byte e with
// v = u + 1 + e%8 (possibly out of range) and the toggle of {u, v} (add
// when absent, remove when present), or its opposite, an invalid edit,
// when e's high bit is set.
func editBatch(b []byte, g *graph.Graph) []Edit {
	edits := make([]Edit, 0, len(b)/3)
	for ; len(b) >= 3; b = b[3:] {
		u := graph.Vertex((int(b[0])<<8 | int(b[1])) % g.N())
		v := u + 1 + graph.Vertex(b[2]%8)
		present := v < g.N() && g.HasEdge(u, v)
		op := EditAdd
		if present != (b[2]&0x80 != 0) {
			op = EditRemove
		}
		edits = append(edits, Edit{Op: op, U: u, V: v})
	}
	return edits
}

// differentialFamilies are the graphs the incremental engine is checked on
// against fresh proves. Lane budgets are kept tight so a fallback onto a
// wide heuristic decomposition fails fast with ErrTooManyLanes (exercising
// rollback) instead of grinding through a high-lane algebra sweep.
var differentialFamilies = []struct {
	name     string
	build    func() *graph.Graph
	props    []string
	maxLanes int
}{
	{"ladder", func() *graph.Graph { return gen.Ladder(16) }, []string{"bipartite"}, 4},
	{"grid", func() *graph.Graph { return gen.Grid(4, 6) }, []string{"bipartite"}, 6},
	{"caterpillar", func() *graph.Graph { return gen.Caterpillar(10, 3) }, []string{"3color"}, 4},
	{"lobster", func() *graph.Graph { return gen.Lobster(8, 2) }, []string{"bipartite"}, 12},
	{"binarytree", func() *graph.Graph { return gen.BinaryTree(4) }, []string{"3color"}, 4},
	{"spiderfree", func() *graph.Graph { return gen.SpiderFreeCaterpillar(rand.New(rand.NewSource(11)), 36) }, []string{"3color"}, 4},
	{"ladder200", func() *graph.Graph { return gen.Ladder(200) }, []string{"bipartite"}, 4},
}

// randomEditBatch proposes a batch: usually one edit, every fifth step up
// to three, toggling vertex pairs (absent → add, present → remove). Pairs
// are biased toward nearby vertex numbers, which for these generators
// correlates with decomposition locality, so a healthy share of edits stays
// covered.
func randomEditBatch(rng *rand.Rand, step int, g *graph.Graph) []Edit {
	k := 1
	if step%5 == 4 {
		k = 2 + rng.Intn(2)
	}
	var edits []Edit
	for len(edits) < k {
		u := graph.Vertex(rng.Intn(g.N()))
		v := u + graph.Vertex(1+rng.Intn(6))
		if v >= g.N() {
			continue
		}
		op := EditAdd
		if g.HasEdge(u, v) {
			op = EditRemove
		}
		// Avoid toggling the same pair twice in one batch.
		dup := false
		for _, e := range edits {
			if graph.NewEdge(e.U, e.V) == graph.NewEdge(u, v) {
				dup = true
			}
		}
		if dup {
			continue
		}
		edits = append(edits, Edit{Op: op, U: u, V: v})
	}
	return edits
}

// runDifferential applies steps proposed batches to an engine over g at
// the given parallelism and checks every outcome against a fresh prove (see
// TestIncrementalDifferential). It returns how many batches were applied
// and rejected, and how many node entries the applied ones reused.
func runDifferential(t *testing.T, name string, g *graph.Graph, propNames []string, maxLanes, parallelism, steps int, propose func(step int, g *graph.Graph) []Edit) (applied, rejected, reusedTotal int) {
	t.Helper()
	props, err := algebra.ByNames(propNames)
	if err != nil {
		t.Fatalf("ByNames: %v", err)
	}
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil,
		IncrementalOptions{MaxLanes: maxLanes, Parallelism: parallelism})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	for step := 0; step < steps; step++ {
		edits := propose(step, g)
		before := edgeSet(g)
		prevLabs := make(map[string]*Labeling, len(inc.labs))
		for name, l := range inc.labs {
			prevLabs[name] = l
		}
		us, err := inc.UpdateBatch(context.Background(), edits)
		if err != nil {
			rejected++
			if !errors.Is(err, ErrBadEdit) && !errors.Is(err, ErrPropertyFails) && !errors.Is(err, ErrTooManyLanes) {
				t.Fatalf("step %d: unexpected update error: %v", step, err)
			}
			if !sameEdgeSet(before, g) {
				t.Fatalf("step %d: rejected batch left the graph mutated", step)
			}
			for name, l := range prevLabs {
				if inc.labs[name] != l {
					t.Fatalf("step %d: rejected batch replaced labeling of %s", step, name)
				}
			}
			if inc.gen.sp.graphGen != g.Generation() {
				t.Fatalf("step %d: rollback left structure stale (gen %d vs %d)", step, inc.gen.sp.graphGen, g.Generation())
			}
			continue
		}
		applied++
		reusedTotal += us.ReusedEntries
		pd := inc.gen.sp.PD
		if us.Fallback {
			// Fallback contract: byte-identical to a from-scratch
			// prove (the engine's new pd is the recomputed one, so
			// comparing against it is the same check — use nil to
			// exercise the documented contract).
			pd = nil
		}
		for i, prop := range props {
			propName := propNames[i]
			wantLab, wantStats := freshProve(t, prop, g, pd, maxLanes)
			requireByteIdentical(t, name+" "+propName, inc.labs[prop.Name()], wantLab)
			requireStatsEqual(t, name+" "+propName, us.PerProperty[prop.Name()], wantStats)
		}
	}
	return applied, rejected, reusedTotal
}

// TestIncrementalFallbackObservable forces an uncovered edge addition and
// asserts the engine reports (and counts) the full re-prove fallback, with
// the result byte-identical to a from-scratch prove.
func TestIncrementalFallbackObservable(t *testing.T) {
	g := graph.PathGraph(12)
	props, err := algebra.ByNames([]string{"bipartite"})
	if err != nil {
		t.Fatalf("ByNames: %v", err)
	}
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	// The chord {0, 11} closes an even cycle (bipartite holds) but no bag
	// of the path's decomposition contains both endpoints.
	if inc.gen.covers(0, 11) {
		t.Fatalf("test premise broken: chord {0,11} covered by the path decomposition")
	}
	us, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditAdd, U: 0, V: 11}})
	if err != nil {
		t.Fatalf("UpdateBatch: %v", err)
	}
	if !us.Fallback {
		t.Fatalf("uncovered addition did not report fallback")
	}
	if inc.Fallbacks() != 1 {
		t.Fatalf("Fallbacks=%d, want 1", inc.Fallbacks())
	}
	wantLab, wantStats := freshProve(t, props[0], g, nil, DefaultMaxLanes)
	requireByteIdentical(t, "fallback", inc.labs[props[0].Name()], wantLab)
	requireStatsEqual(t, "fallback", us.PerProperty[props[0].Name()], wantStats)

	// A covered follow-up edit goes back to the incremental path against the
	// recomputed decomposition.
	us, err = inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: 0, V: 11}})
	if err != nil {
		t.Fatalf("UpdateBatch (remove): %v", err)
	}
	if us.Fallback {
		t.Fatalf("removal fell back despite a retained valid decomposition")
	}
	wantLab, _ = freshProve(t, props[0], g, inc.gen.sp.PD, DefaultMaxLanes)
	requireByteIdentical(t, "post-fallback", inc.labs[props[0].Name()], wantLab)
}

// TestIncrementalRejectsBadEdits pins the typed-error contract and the
// atomic rollback of partially applied batches.
func TestIncrementalRejectsBadEdits(t *testing.T) {
	g := gen.Ladder(6)
	props, _ := algebra.ByNames([]string{"bipartite"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	before := edgeSet(g)
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"out of range", []Edit{{Op: EditAdd, U: 0, V: 99}}},
		{"self loop", []Edit{{Op: EditAdd, U: 3, V: 3}}},
		{"duplicate add", []Edit{{Op: EditAdd, U: 0, V: 1}}},
		{"missing remove", []Edit{{Op: EditRemove, U: 0, V: 11}}},
		{"partial batch", []Edit{{Op: EditRemove, U: 0, V: 1}, {Op: EditAdd, U: 5, V: 5}}},
		{"disconnects", []Edit{{Op: EditRemove, U: 10, V: 11}, {Op: EditRemove, U: 9, V: 11}}},
	}
	for _, tc := range cases {
		if _, err := inc.UpdateBatch(context.Background(), tc.edits); !errors.Is(err, ErrBadEdit) {
			t.Errorf("%s: err=%v, want ErrBadEdit", tc.name, err)
		}
		if !sameEdgeSet(before, g) {
			t.Fatalf("%s: graph not rolled back", tc.name)
		}
	}
	// The engine still works after rejections.
	if _, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: 2, V: 3}}); err != nil {
		t.Fatalf("update after rejections: %v", err)
	}
	wantLab, _ := freshProve(t, props[0], g, inc.gen.sp.PD, DefaultMaxLanes)
	requireByteIdentical(t, "after rejections", inc.labs[props[0].Name()], wantLab)
}

// TestIncrementalPropertyFailureRollsBack uses evenedges (|E| even), which
// any single edit falsifies, to pin ErrPropertyFails with full rollback.
func TestIncrementalPropertyFailureRollsBack(t *testing.T) {
	g := gen.Ladder(6) // 16 edges: evenedges holds
	props, err := algebra.ByNames([]string{"evenedges"})
	if err != nil {
		t.Fatalf("ByNames: %v", err)
	}
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	before := edgeSet(g)
	if _, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: 0, V: 1}}); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("err=%v, want ErrPropertyFails", err)
	}
	if !sameEdgeSet(before, g) {
		t.Fatalf("failed update left the graph mutated")
	}
	// A parity-preserving batch succeeds.
	if _, err := inc.UpdateBatch(context.Background(), []Edit{
		{Op: EditRemove, U: 0, V: 1},
		{Op: EditRemove, U: 4, V: 5},
	}); err != nil {
		t.Fatalf("parity-preserving batch: %v", err)
	}
}

// TestIncrementalEmptyBatch pins the no-op contract.
func TestIncrementalEmptyBatch(t *testing.T) {
	g := gen.Ladder(4)
	props, _ := algebra.ByNames([]string{"bipartite"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	gen0 := g.Generation()
	us, err := inc.UpdateBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if g.Generation() != gen0 {
		t.Fatalf("empty batch mutated the graph")
	}
	if us.PerProperty["2-colorable"] == nil {
		t.Fatalf("empty batch reported no per-property stats: %+v", us.PerProperty)
	}
}

// TestIncrementalPaperConstructionAlwaysFallsBack: the Proposition 4.6
// construction has no incremental path; updates must re-prove from scratch
// and say so.
func TestIncrementalPaperConstructionAlwaysFallsBack(t *testing.T) {
	g := gen.Ladder(6)
	props, _ := algebra.ByNames([]string{"bipartite"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil,
		IncrementalOptions{UsePaperConstruction: true})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	us, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: 0, V: 1}})
	if err != nil {
		t.Fatalf("UpdateBatch: %v", err)
	}
	if !us.Fallback {
		t.Fatalf("paper-construction update did not report fallback")
	}
	cfg := cert.NewConfig(g.Clone())
	s := NewScheme(props[0], DefaultMaxLanes)
	wantLab, _, err := proveOpts(s, cfg, nil, StructureOptions{UsePaperConstruction: true})
	if err != nil {
		t.Fatalf("fresh paper prove: %v", err)
	}
	requireByteIdentical(t, "paper", inc.labs[props[0].Name()], wantLab)
}

// TestIncrementalVerifies closes the loop: labels produced by the engine
// verify at every vertex with the generation's scheme.
func TestIncrementalVerifies(t *testing.T) {
	g := gen.Grid(3, 5)
	props, _ := algebra.ByNames([]string{"bipartite"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	if _, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: g.N() - 2, V: g.N() - 1}}); err != nil {
		// Grid corner removal can disconnect only on degenerate sizes.
		t.Fatalf("UpdateBatch: %v", err)
	}
	snapG, labs, schemes, _ := inc.Snapshot()
	cfg := cert.NewConfig(snapG)
	for name, lab := range labs {
		verdicts := verify(t, schemes[name], cfg, lab)
		for v, ok := range verdicts {
			if !ok {
				t.Fatalf("vertex %d rejects %s after incremental update", v, name)
			}
		}
	}
}

// TestIncrementalSchemeCachesLevelOff pins that the memo every generation
// of the engine evaluates through stays bounded under a long edit
// stream: every entry is a pure algebra evaluation, and on a fixed graph
// family the distinct local shapes run out. Add/remove pairs of distinct
// covered chords keep the graph near its start while dirtying a different
// region each time; after a warm-up, further pairs must add no entry.
func TestIncrementalSchemeCachesLevelOff(t *testing.T) {
	const rungs = 100
	g := gen.Ladder(rungs)
	var chords [][2]graph.Vertex
	for i := 0; i+1 < rungs; i++ {
		// The diagonal of square i, covered by the ladder's decomposition.
		chords = append(chords, [2]graph.Vertex{2*i + 1, 2*i + 2})
	}
	const warm, pairs = 20, 60
	if len(chords) < pairs {
		t.Fatalf("only %d covered chords, want %d", len(chords), pairs)
	}
	props, _ := algebra.ByNames([]string{"maxdeg:4"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	entries := func() int {
		_, _, schemes, _ := inc.Snapshot()
		return schemes[props[0].Name()].memo.Len()
	}
	var atWarm int
	for i, c := range chords[:pairs] {
		if i == warm {
			atWarm = entries()
		}
		for _, op := range []EditOp{EditAdd, EditRemove} {
			if _, err := inc.UpdateBatch(context.Background(), []Edit{{Op: op, U: c[0], V: c[1]}}); err != nil {
				t.Fatalf("pair %d %v %v: %v", i, op, c, err)
			}
		}
	}
	if got := entries(); got != atWarm {
		t.Fatalf("memo grew from %d to %d entries over %d add/remove pairs after warm-up", atWarm, got, pairs-warm)
	}
	if inc.Fallbacks() != 0 {
		t.Fatalf("%d updates fell back; covered chords must take the incremental path", inc.Fallbacks())
	}
}

// TestIncrementalFillsBuildStages pins that an incremental generation runs
// the same staged build as a fresh one and so reports its stage timings:
// after a non-fallback update, the build buckets the update re-ran are
// non-zero in every property's stats.
func TestIncrementalFillsBuildStages(t *testing.T) {
	g := gen.Ladder(40)
	props, _ := algebra.ByNames([]string{"bipartite"})
	inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil, IncrementalOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	// Removing the rung {20, 21} keeps the ladder connected and bipartite.
	us, err := inc.UpdateBatch(context.Background(), []Edit{{Op: EditRemove, U: 20, V: 21}})
	if err != nil {
		t.Fatalf("UpdateBatch: %v", err)
	}
	if us.Fallback {
		t.Fatalf("rung removal fell back")
	}
	if us.TotalSources == 0 {
		t.Fatalf("update reports no embedding sources")
	}
	st := us.PerProperty[props[0].Name()].Stages
	if st.LanesMillis <= 0 || st.TranscriptMillis <= 0 || st.HierarchyMillis <= 0 {
		t.Fatalf("incremental build stages not recorded: %+v", st)
	}
}
