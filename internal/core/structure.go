package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// StructureOptions selects how the property-independent structure is built.
type StructureOptions struct {
	// UsePaperConstruction selects the Proposition 4.6 recursive lane
	// construction (worst-case congestion ≤ H(width)) instead of the greedy
	// first-fit partition with shortest-path embeddings.
	UsePaperConstruction bool
	// Parallelism bounds the worker count of the build's pooled stages
	// (embedding, hierarchy validation, member folds, node tables):
	// 0 means GOMAXPROCS, 1 runs every stage inline on the calling
	// goroutine. The structure is identical for every value.
	Parallelism int
}

// StageTimings is the cost breakdown of one prove: the wall-clock
// milliseconds of the structure build's pipeline stages (decomposition,
// lane construction, lanewidth transcript, hierarchy + node-table assembly)
// and of the property pass's class sweep, plus the pass's memo misses.
// Build stages are recorded on the StructuralProof and copied into every
// Stats derived from it; Sweep and MemoMisses are per property pass. All of
// it depends on the run, not on the proof.
type StageTimings struct {
	DecomposeMillis  float64 `json:"decompose_ms"`
	LanesMillis      float64 `json:"lanes_ms"`
	TranscriptMillis float64 `json:"transcript_ms"`
	HierarchyMillis  float64 `json:"hierarchy_ms"`
	SweepMillis      float64 `json:"sweep_ms"`
	// MemoMisses counts the algebra evaluations (base classes, bridge and
	// parent merges) the pass computed rather than found in the property's
	// memo: 0 when earlier passes of the same property instance already met
	// every local shape of this one.
	MemoMisses int `json:"memo_misses"`
}

func sinceMillis(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// StructuralProof is the property-independent half of the Theorem 1 prover:
// what Sections 4–5 derive from the configuration alone — the validated
// path decomposition, lane partition and completion — reduced to the tables
// a property pass reads: each hierarchy node's summary and entry shape, its
// parent, each completion edge's owner, the embedding entries and
// root-anchor pointing labels every label carries. The lanewidth hierarchy,
// its member tables and the embedding they are derived from are dropped
// once the structure is assembled. A StructuralProof is immutable once
// built and safe for concurrent use: Scheme.ProveWithCtx runs only the
// property-dependent algebra sweep (Section 6) against it, so certifying B
// properties of one configuration builds the structure once instead of B
// times (see Batch.ProveAllWithCtx).
type StructuralProof struct {
	Cfg        *cert.Config
	PD         *interval.PathDecomposition
	Partition  *lanes.Partition
	Completion *lanes.Completion

	singleVertex bool
	congestion   int

	// graphGen is the graph's mutation generation at build time; proving
	// against a structure whose graph has since mutated is refused (see
	// ErrStaleStructure) instead of silently emitting labels for a graph
	// that no longer exists.
	graphGen uint64

	// summaries holds every hierarchy node's summary and shapes its entry
	// shape (nil for V-nodes, which have none), both indexed by node id. A
	// shape points at its node's summary and at those of the nodes it
	// repeats (tree children, operands, root member).
	summaries []*NodeSummary
	shapes    []*Shape
	// parent holds each node's parent id in the hierarchy, -1 for the root;
	// root is the root T-node's id and depth the hierarchy depth (nodes on
	// the longest root-to-leaf path).
	parent      []int32
	root, depth int
	// edgeOwners holds each completion edge's owning node, real edges in
	// EdgesSeq order, then Completion.Virtual.
	edgeOwners []edgeOwner
	// embStart and embRefs hold, per real edge in EdgesSeq order, the
	// embedding entries its label carries: real edge i's are
	// embRefs[embStart[i]:embStart[i+1]], in Completion.Virtual order.
	embStart []int32
	embRefs  []embRef
	// pointing is the Proposition 2.2 labeling anchoring the hierarchy
	// root's designated vertex, per real edge in EdgesSeq order; every
	// labeling of the structure shares these values.
	pointing []*cert.PointingLabel

	// stages records the build stages' wall clock (SweepMillis stays zero
	// here; each property pass fills its own copy).
	stages StageTimings

	// plan is the class sweep's dependency schedule, derived lazily from the
	// shapes on the first property pass and shared by every property pass
	// over this structure (see sweepPlan).
	planOnce sync.Once
	plan     *sweepPlan

	// layouts holds one label layout per real edge, dense in EdgesSeq order,
	// allocated on the first property pass; the pass that first encodes an
	// edge's label fills its slot, and every later pass over this structure
	// only splices its class ids into it (see labelLayout). layoutBuilds
	// counts the slots filled.
	layoutOnce   sync.Once
	layouts      []layoutSlot
	layoutBuilds atomic.Int64
}

// edgeOwner is the hierarchy node owning a completion edge and, when that
// node is a P-node, the edge's position on its path (0 otherwise).
type edgeOwner struct{ node, pos int32 }

// labelSlots returns the structure's layout slots, allocating them on
// first use.
func (sp *StructuralProof) labelSlots() []layoutSlot {
	sp.layoutOnce.Do(func() { sp.layouts = make([]layoutSlot, sp.Cfg.G.M()) })
	return sp.layouts
}

// Stages returns the build stages' wall-clock breakdown (SweepMillis is zero;
// it is measured per property pass and reported in Stats).
func (sp *StructuralProof) Stages() StageTimings { return sp.stages }

// embRef is one embedding entry of a real edge's label: the virtual edge it
// simulates, as an index into Completion.Virtual, and the real edge's
// 1-based rank on that edge's oriented embedding path in both directions.
type embRef struct{ virt, fwd, bwd int32 }

// SingleVertex reports whether the configuration is the one-vertex network,
// which carries no labels (the verifier decides locally).
func (sp *StructuralProof) SingleVertex() bool { return sp.singleVertex }

// Congestion returns the embedding congestion of the structure.
func (sp *StructuralProof) Congestion() int { return sp.congestion }

// BuildStructureCtx computes the property-independent structure of the
// configuration. The optional decomposition is used when non-nil; otherwise
// one is computed (exactly for small graphs). The result can be shared by
// any number of concurrent Scheme.ProveWithCtx calls. Cancellation is
// observed between the pipeline stages (decomposition, lane construction,
// transcript, hierarchy, node tables) and aborts the build with
// ctx.Err().
func BuildStructureCtx(ctx context.Context, cfg *cert.Config, pd *interval.PathDecomposition, opts StructureOptions) (*StructuralProof, error) {
	gen, err := buildGeneration(ctx, cfg, pd, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return gen.sp, nil
}

// generation is one run of the structure pipeline: the StructuralProof plus
// the stage outputs a later generation of the incremental engine reuses.
type generation struct {
	sp *StructuralProof
	// r is the interval representation of sp.PD. Its intervals are the
	// decomposition's per-vertex bag ranges, so two vertices share a bag
	// exactly when their intervals overlap.
	r *interval.Representation
	// te carries the embedding's per-source BFS balls; nil under the paper
	// construction, whose recursion has no incremental path.
	te  *lanes.TrackedEmbedding
	log lanewidth.OpLog
	// dirtyOps counts the transcript operations past the point where log
	// diverges from the previous generation's (all of them for a fresh one).
	dirtyOps int
}

// covers reports whether some bag of the generation's decomposition holds
// both u and v, i.e. whether the decomposition also decomposes the graph
// with the edge {u, v} added.
func (gen *generation) covers(u, v graph.Vertex) bool {
	return gen.r.Ivs[u].Overlaps(gen.r.Ivs[v])
}

// buildGeneration runs the structure pipeline — decomposition, lane
// partition, completion and embedding (Section 4), lanewidth transcript,
// hierarchy and node tables (Section 5) — and records each stage's wall
// clock on the structure. It is the one build behind BuildStructureCtx and
// every generation of the incremental engine.
//
// With prev nil the build is fresh: the configuration is checked and pd is
// computed when nil. With prev set, the graph has since been changed by
// edits (prev.te must be non-nil) and every stage reuses what the edits
// provably left alone: the decomposition, intervals and partition carry
// over, the embedding re-traverses only BFS sources whose ball an edited
// endpoint touches, and the hierarchy is validated and assembled only past
// the node where the new transcript diverges from prev's. The structure is
// identical to a fresh build over prev's decomposition.
func buildGeneration(ctx context.Context, cfg *cert.Config, pd *interval.PathDecomposition, opts StructureOptions, prev *generation, edits []Edit) (*generation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A fresh build checks its input; the engine has already checked an
	// edited graph (at least two vertices, connected).
	if prev == nil {
		if cfg == nil {
			return nil, errors.New("core: nil configuration")
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.G.N() == 0 {
			return nil, fmt.Errorf("%w: empty graph", ErrDisconnected)
		}
		if cfg.G.N() == 1 {
			return &generation{sp: &StructuralProof{Cfg: cfg, singleVertex: true, graphGen: cfg.G.Generation()}}, nil
		}
		if !cfg.G.Connected() {
			return nil, ErrDisconnected
		}
	}
	g := cfg.G
	var (
		stages  StageTimings
		r       *interval.Representation
		p       *lanes.Partition
		prevSP  *StructuralProof
		prevTE  *lanes.TrackedEmbedding
		touched []graph.Vertex
		dirty   map[graph.Edge]bool
	)
	workers := par.Workers(opts.Parallelism)
	stageStart := time.Now()
	if prev != nil {
		prevSP, prevTE = prev.sp, prev.te
		pd, r, p = prevSP.PD, prev.r, prevSP.Partition
		touched = touchedVertices(edits)
		dirty = make(map[graph.Edge]bool, len(edits))
		for _, e := range edits {
			dirty[graph.NewEdge(e.U, e.V)] = true
		}
	} else {
		if pd == nil {
			var derr error
			pd, derr = interval.Decompose(g)
			if derr != nil {
				return nil, fmt.Errorf("core: decomposition: %w", derr)
			}
		}
		if err := pd.Validate(g); err != nil {
			return nil, fmt.Errorf("core: decomposition: %w", err)
		}
		r = pd.ToIntervals(g.N())
	}
	stages.DecomposeMillis = sinceMillis(stageStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Section 4: lane partition + completion + embedding.
	stageStart = time.Now()
	var (
		c   *lanes.Completion
		emb lanes.Embedding
		te  *lanes.TrackedEmbedding
		err error
	)
	if opts.UsePaperConstruction {
		p, c, emb, err = lanes.BuildLowCongestion(g, r)
	} else {
		if p == nil {
			p = lanes.Greedy(r)
		}
		c = lanes.Complete(g, p, false)
		if te, err = lanes.Embed(g, c, prevTE, touched, workers); err == nil {
			emb = te.Emb
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: lane construction: %w", err)
	}
	stages.LanesMillis = sinceMillis(stageStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Section 5: lanewidth transcript and hierarchical decomposition. Nodes
	// below the mark a shared transcript prefix yields are identical to the
	// previous generation's (deterministic replay), so validation and
	// node-table assembly touch only the dirty region. The root's skipped
	// subgraph check relies on the connectivity verified above.
	stageStart = time.Now()
	log, err := lanewidth.FromCompletion(g, r, p)
	if err != nil {
		return nil, fmt.Errorf("core: transcript: %w", err)
	}
	clean := 0
	if prev != nil {
		clean = log.Divergence(prev.log)
	}
	stages.TranscriptMillis = sinceMillis(stageStart)
	stageStart = time.Now()
	h, first, err := lanewidth.BuildHierarchyMark(c.Graph, log, clean)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy: %w", err)
	}
	if err := h.ValidateFromP(first, workers); err != nil {
		return nil, fmt.Errorf("core: hierarchy invalid: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp := &StructuralProof{Cfg: cfg, PD: pd, Partition: p, Completion: c}
	if err := sp.assemble(h, emb, prevSP, first, dirty, workers); err != nil {
		return nil, err
	}
	stages.HierarchyMillis = sinceMillis(stageStart)
	sp.stages = stages
	return &generation{sp: sp, r: r, te: te, log: log, dirtyOps: len(log.Ops) - clean}, nil
}

// assemble derives the tables a property pass reads from the hierarchy h
// and the embedding emb, which the structure does not keep. The node
// tables and member folds run on the pool; with workers > 1 the node
// tables, embedding orientation, root pointing and edge owners (mutually
// independent) also overlap. Output is identical for every workers value.
//
// With prev set, per-node state carries over from the previous generation's
// structure: nodes below the first mark (see lanewidth.BuildHierarchyMark)
// whose data provably cannot have changed take the previous summary pointer
// without being rebuilt or compared (and the previous shape, when the
// summaries it points at are unchanged), and frozen T-nodes skip their
// member folds. dirty is the set of graph edges the generation's edit
// batch touched (in either direction); any node owning one is rebuilt
// regardless of the mark, since its real bits read the edited adjacency.
func (sp *StructuralProof) assemble(h *lanewidth.Hierarchy, emb lanes.Embedding, prev *StructuralProof, first int, dirty map[graph.Edge]bool, workers int) error {
	sp.congestion = emb.Congestion()
	sp.graphGen = sp.Cfg.G.Generation()
	sp.root, sp.depth = h.Root.ID, h.Depth()
	// Warm the graph's lazily cached edge order while construction is still
	// single-threaded; concurrent ProveWithCtx calls then only read it.
	sp.Cfg.G.EdgesSeq()
	// The side tables read disjoint inputs (orientation the embedding,
	// pointing the graph, owners the hierarchy's edge table) and write
	// disjoint fields, so they may overlap with each other and the nodes.
	side := []func() error{
		func() error { return sp.orientEmbedding(emb) },
		func() error { return sp.buildPointing(h.Root.RootMember().In[0]) },
		func() error { return sp.buildOwners(h) },
	}
	errs := make([]error, len(side))
	var wg sync.WaitGroup
	for i, f := range side {
		if workers > 1 {
			wg.Add(1)
			go func() { defer wg.Done(); errs[i] = f() }()
		} else {
			errs[i] = f()
		}
	}
	nErr := sp.buildNodes(h, prev, first, dirty, workers)
	wg.Wait()
	return cmp.Or(nErr, cmp.Or(errs...))
}

// buildOwners files every completion edge's owning node and every node's
// parent id.
func (sp *StructuralProof) buildOwners(h *lanewidth.Hierarchy) error {
	sp.parent = make([]int32, len(h.Nodes))
	for i, n := range h.Nodes {
		sp.parent[i] = -1
		if n.Parent != nil {
			sp.parent[i] = int32(n.Parent.ID)
		}
	}
	owners := h.EdgeOwners()
	sp.edgeOwners = make([]edgeOwner, 0, sp.Cfg.G.M()+len(sp.Completion.Virtual))
	own := func(e graph.Edge) error {
		n, ok := owners[e]
		if !ok {
			return fmt.Errorf("core: completion edge %v has no owner", e)
		}
		o := edgeOwner{node: int32(n.ID)}
		if n.Kind == lanewidth.PNode {
			if o.pos = int32(slices.Index(n.OwnedEdges(), e)); o.pos < 0 {
				return fmt.Errorf("core: edge %v not on owner path", e)
			}
		}
		sp.edgeOwners = append(sp.edgeOwners, o)
		return nil
	}
	for e := range sp.Cfg.G.EdgesSeq() {
		if err := own(e); err != nil {
			return err
		}
	}
	for _, e := range sp.Completion.Virtual {
		if err := own(e); err != nil {
			return err
		}
	}
	return nil
}

// arena carves small slice views out of slab blocks, replacing the tiny
// allocations per node, shape, entry or decoded entry that id slices, class
// vectors, summaries and rows would cost. Views escape into long-lived
// summaries, shapes and labels, so blocks are abandoned to their lifetime.
// Blocks double from 64 elements up to 32 KB (4096 ids), so a small arena
// stays small and a view outliving the rest of its block pins at most that
// much.
type arena[T any] struct {
	block []T
	size  int // size of the last block made
}

func (a *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.block) < n {
		var zero T
		a.size = min(max(2*a.size, 64), max(64, 32<<10/int(unsafe.Sizeof(zero))))
		a.block = make([]T, max(a.size, n))
	}
	s := a.block[:n:n]
	a.block = a.block[n:]
	return s
}

// buildNodes derives every node's summary and entry shape in two pool
// passes: the first settles each node's summary and its shape's own fields
// (member fold, payload), the second links each shape to the summaries it
// repeats. Carry-over from a previous generation (nil prev disables it)
// comes in three escalating levels:
//
//   - A node below the first mark whose tree membership is frozen (it is not
//     a member, or its parent T-node is itself below the mark) and whose
//     owned edges avoid the dirty set takes the previous summary outright:
//     every field is derived from frozen state, so nothing is rebuilt or
//     even compared.
//   - A rebuilt node below the mark whose parent T-node is frozen copies its
//     member fold (merged-out terminals, parent id) from the previous
//     generation — the fold reads only the frozen subtree — and re-derives
//     just the payload the dirty edge invalidated.
//   - Any other rebuilt node with a same-id predecessor is content-compared
//     and canonicalized to the previous summary on equality.
//
// A node whose summary carried over keeps its previous shape too when every
// summary that shape points at is still the current one, which is what
// entry reuse keys on; otherwise it gets a new shape with the previous
// shape's own fields.
func (sp *StructuralProof) buildNodes(h *lanewidth.Hierarchy, prev *StructuralProof, first int, dirty map[graph.Edge]bool, workers int) error {
	nb := &nodeBuilder{sp: sp, h: h, first: first, dirty: dirty}
	if prev != nil {
		nb.prevSums, nb.prevShapes = prev.summaries, prev.shapes
	}
	nb.first = min(nb.first, len(nb.prevSums))
	nb.info = make([]*lanewidth.MemberInfo, len(h.Nodes))
	nb.inRootTree = make([]bool, len(h.Nodes))
	for tid, mis := range h.MembersByTNodeFromP(first, workers) {
		for i := range mis {
			id := mis[i].Node.ID
			nb.info[id] = &mis[i]
			nb.inRootTree[id] = tid == h.Root.ID
		}
	}
	sp.summaries = make([]*NodeSummary, len(h.Nodes))
	sp.shapes = make([]*Shape, len(h.Nodes))
	// Nodes write disjoint slots from shared read-only inputs, so they
	// derive independently; each worker carves from its own arenas.
	arenas := make([]nodeArenas, par.Workers(workers))
	if err := par.ForErr(workers, len(h.Nodes), func(w, i int) error {
		return nb.settle(h.Nodes[i], &arenas[w])
	}); err != nil {
		return err
	}
	par.For(workers, len(h.Nodes), func(w, i int) {
		if n := h.Nodes[i]; n.Kind != lanewidth.VNode {
			nb.link(n, &arenas[w])
		}
	})
	return nil
}

// nodeBuilder bundles the read-only inputs of one buildNodes pass so
// per-node derivation can run on any goroutine.
type nodeBuilder struct {
	sp         *StructuralProof
	h          *lanewidth.Hierarchy
	prevSums   []*NodeSummary
	prevShapes []*Shape
	first      int
	dirty      map[graph.Edge]bool
	info       []*lanewidth.MemberInfo // by node id; nil for non-members
	inRootTree []bool                  // by node id: a member of the root's tree
}

// nodeArenas are one worker's arenas and scratch node.
type nodeArenas struct {
	ids    arena[uint64]
	sums   arena[NodeSummary]
	shapes arena[Shape]
	kids   arena[*NodeSummary]
	sum    NodeSummary
	shape  Shape
}

func (nb *nodeBuilder) ownsDirty(n *lanewidth.Node) bool {
	if len(nb.dirty) == 0 {
		return false
	}
	switch n.Kind {
	case lanewidth.ENode:
		return nb.dirty[n.Edge]
	case lanewidth.BNode:
		return nb.dirty[n.Bridge]
	case lanewidth.PNode:
		for i := 0; i+1 < len(n.PathVs); i++ {
			if nb.dirty[graph.NewEdge(n.PathVs[i], n.PathVs[i+1])] {
				return true
			}
		}
	}
	return false
}

// ids carves the identifiers of lane-aligned terminals from the arena.
func (nb *nodeBuilder) ids(ar *nodeArenas, vs []graph.Vertex) []uint64 {
	out := ar.ids.alloc(len(vs))
	for i, v := range vs {
		out[i] = nb.sp.Cfg.IDs[v]
	}
	return out
}

// kids returns node n's tree children, nil when n is not a tree member.
func (nb *nodeBuilder) kids(n *lanewidth.Node) []*lanewidth.Node {
	if mi := nb.info[n.ID]; mi != nil {
		return mi.TreeChildren
	}
	return nil
}

// frozenFold reports whether the previous generation's member fold of a
// node is frozen, given its previous shape (nil for a V-node): the node is
// a tree member whose parent T-node was created by a clean op. The root is
// never that T-node: its id is reserved below any mark (see
// BuildHierarchyMark) but its tree is rebuilt every generation, so root
// members — like the root itself — must be re-derived and can at most
// canonicalize to the previous summary by content comparison.
func (nb *nodeBuilder) frozenFold(ps *Shape) bool {
	return ps != nil && ps.member() && ps.ParentID < nb.first && ps.ParentID != nb.h.Root.ID
}

// settle derives (or carries over) node n's summary into sp.summaries and,
// when the summary is new, carves its shape with the shape's own fields
// (link fills the rest). A carried-over summary leaves the shape slot nil
// for link to settle.
func (nb *nodeBuilder) settle(n *lanewidth.Node, ar *nodeArenas) error {
	sp, cfg, g := nb.sp, nb.sp.Cfg, nb.sp.Cfg.G
	var psum *NodeSummary
	var psh *Shape
	if n.ID < len(nb.prevSums) {
		psum, psh = nb.prevSums[n.ID], nb.prevShapes[n.ID]
	}
	if n.ID < nb.first && n != nb.h.Root && !nb.ownsDirty(n) {
		// Frozen below the mark: not a member, or a member of a frozen tree.
		if psh == nil || !psh.member() || nb.frozenFold(psh) {
			sp.summaries[n.ID] = psum
			return nil
		}
		// Root members dominate the rebuilt set but rarely change: their
		// payload halves are frozen (id below the mark), so the previous
		// summary stands whenever the member's fold — parent, tree
		// children, merged out-terminals — matches the fresh member info.
		// Comparing against the previous generation directly skips building
		// throwaway id slices for the overwhelmingly common unchanged case.
		if psh.ParentID == nb.h.Root.ID && nb.inRootTree[n.ID] && memberFoldEqual(psum, psh, nb.info[n.ID], cfg) {
			sp.summaries[n.ID] = psum
			return nil
		}
	}
	sum, sh := &ar.sum, &ar.shape // carved below once the node is known to be new
	*sum = NodeSummary{NodeID: n.ID, Kind: n.Kind, Lanes: n.Lanes, InIDs: nb.ids(ar, n.In), OutIDs: nb.ids(ar, n.Out)}
	*sh = Shape{ParentID: -1}
	if n.ID < nb.first && n != nb.h.Root && nb.frozenFold(psh) {
		sh.ParentID, sum.MergedOutIDs = psh.ParentID, psum.MergedOutIDs
	} else if mi := nb.info[n.ID]; mi != nil {
		sh.ParentID, sum.MergedOutIDs = n.Parent.ID, nb.ids(ar, mi.MergedOut)
	}
	rootMember := -1
	switch n.Kind {
	case lanewidth.VNode:
		sum.Input = cfg.Input(n.Vertex)
	case lanewidth.ENode:
		sh.PathIDs = []uint64{cfg.IDs[n.In[0]], cfg.IDs[n.Out[0]]}
		sh.RealBits = []bool{edgeReal(g, n.Edge)}
		sh.VInputs = []int{cfg.Input(n.In[0]), cfg.Input(n.Out[0])}
	case lanewidth.PNode:
		for _, v := range n.PathVs {
			sh.PathIDs = append(sh.PathIDs, cfg.IDs[v])
		}
		sh.RealBits = pathRealBits(g, n.PathVs)
		sh.VInputs = vertexInputs(cfg, n.PathVs)
	case lanewidth.BNode:
		sh.BridgeReal = edgeReal(g, n.Bridge)
	case lanewidth.TNode:
		rootMember = n.RootMember().ID
	default:
		return fmt.Errorf("core: unknown node kind %v", n.Kind)
	}
	if psum != nil && summaryEqual(sum, psum) && ownFieldsEqual(sh, nb.kids(n), rootMember, psh) {
		sp.summaries[n.ID] = psum
		return nil
	}
	ns := &ar.sums.alloc(1)[0]
	*ns = *sum
	sp.summaries[n.ID] = ns
	if n.Kind != lanewidth.VNode {
		sp.shapes[n.ID] = &ar.shapes.alloc(1)[0]
		*sp.shapes[n.ID] = *sh
		sp.shapes[n.ID].NodeSummary = ns
	}
	return nil
}

// link completes node n's shape once every summary is settled: its tree
// children's, operands' and root member's summaries. A node whose summary
// carried over keeps its previous shape when that shape already points at
// exactly these summaries; otherwise it gets a new shape with the previous
// one's own fields.
func (nb *nodeBuilder) link(n *lanewidth.Node, ar *nodeArenas) {
	sp := nb.sp
	s := sp.shapes[n.ID]
	if s == nil {
		ps := nb.prevShapes[n.ID]
		if nb.sameLinks(ps, n) {
			sp.shapes[n.ID] = ps
			return
		}
		s = &ar.shapes.alloc(1)[0]
		*s = Shape{NodeSummary: sp.summaries[n.ID], ParentID: ps.ParentID,
			PathIDs: ps.PathIDs, RealBits: ps.RealBits, VInputs: ps.VInputs, BridgeReal: ps.BridgeReal}
		sp.shapes[n.ID] = s
	}
	kids := nb.kids(n)
	s.Children = ar.kids.alloc(len(kids))
	for i, c := range kids {
		s.Children[i] = sp.summaries[c.ID]
	}
	switch n.Kind {
	case lanewidth.BNode:
		s.LaneI, s.LaneJ = n.LaneI, n.LaneJ
		s.Left, s.Right = sp.summaries[n.Left.ID], sp.summaries[n.Right.ID]
	case lanewidth.TNode:
		s.RootMember = sp.summaries[n.RootMember().ID]
	}
}

// sameLinks reports whether the previous shape ps of node n points at
// exactly the summaries link would give n now.
func (nb *nodeBuilder) sameLinks(ps *Shape, n *lanewidth.Node) bool {
	sums := nb.sp.summaries
	if !slices.EqualFunc(ps.Children, nb.kids(n), func(k *NodeSummary, c *lanewidth.Node) bool { return k == sums[c.ID] }) {
		return false
	}
	switch n.Kind {
	case lanewidth.BNode:
		return ps.LaneI == n.LaneI && ps.LaneJ == n.LaneJ &&
			ps.Left == sums[n.Left.ID] && ps.Right == sums[n.Right.ID]
	case lanewidth.TNode:
		return ps.RootMember == sums[n.RootMember().ID]
	}
	return true
}

// summaryEqual reports whether two summaries have the same content.
func summaryEqual(a, b *NodeSummary) bool {
	return a.NodeID == b.NodeID && a.Kind == b.Kind && a.Input == b.Input &&
		slices.Equal(a.Lanes, b.Lanes) && slices.Equal(a.InIDs, b.InIDs) &&
		slices.Equal(a.OutIDs, b.OutIDs) && slices.Equal(a.MergedOutIDs, b.MergedOutIDs)
}

// ownFieldsEqual reports whether a node's freshly derived shape fields — the
// parent id and payload in s, its tree children kids and its T-node root
// member's id (-1 for other kinds) — match those of its previous shape ps
// (nil for a V-node, whose fresh fields are then all empty).
func ownFieldsEqual(s *Shape, kids []*lanewidth.Node, rootMember int, ps *Shape) bool {
	if ps == nil {
		ps = &Shape{ParentID: -1}
	}
	prevRoot := -1
	if ps.RootMember != nil {
		prevRoot = ps.RootMember.NodeID
	}
	return s.ParentID == ps.ParentID && s.BridgeReal == ps.BridgeReal && rootMember == prevRoot &&
		childIDsEqual(ps.Children, kids) && slices.Equal(s.PathIDs, ps.PathIDs) &&
		slices.Equal(s.RealBits, ps.RealBits) && slices.Equal(s.VInputs, ps.VInputs)
}

// memberFoldEqual reports whether a previous generation's member fold
// (summary and shape) matches a freshly derived member info: same tree
// children (by id, in order) and the same merged out-terminal identifier
// per lane. Payload fields are not compared — callers only consult it for
// nodes below the mark, whose payload halves are frozen by construction.
func memberFoldEqual(psum *NodeSummary, ps *Shape, mi *lanewidth.MemberInfo, cfg *cert.Config) bool {
	return childIDsEqual(ps.Children, mi.TreeChildren) &&
		slices.EqualFunc(psum.MergedOutIDs, mi.MergedOut, func(id uint64, v graph.Vertex) bool { return id == cfg.IDs[v] })
}

// childIDsEqual reports whether the summaries name exactly the nodes, in
// order.
func childIDsEqual(sums []*NodeSummary, nodes []*lanewidth.Node) bool {
	return slices.EqualFunc(sums, nodes, func(s *NodeSummary, n *lanewidth.Node) bool { return s.NodeID == n.ID })
}

// orientEmbedding orients every virtual edge's embedding path to start at
// the edge's U endpoint, validates it against the real edge set, and files
// each of its edges' embedding entries under that real edge, so label
// assembly never re-derives any of it.
func (sp *StructuralProof) orientEmbedding(emb lanes.Embedding) error {
	g := sp.Cfg.G
	index := make(map[graph.Edge]int32, g.M())
	for e := range g.EdgesSeq() {
		index[e] = int32(len(index))
	}
	// One pass counts each real edge's entries and records the real edge
	// under every path edge, path after path; the second files the entries.
	sp.embStart = make([]int32, g.M()+1)
	lens := make([]int32, len(sp.Completion.Virtual))
	var real []int32
	for j, ve := range sp.Completion.Virtual {
		path := emb.OrientedPath(ve)
		if len(path) < 2 {
			return fmt.Errorf("core: virtual edge %v lacks an embedding path", ve)
		}
		for i := 0; i+1 < len(path); i++ {
			e := graph.NewEdge(path[i], path[i+1])
			r, ok := index[e]
			if !ok {
				return fmt.Errorf("core: embedding path uses unknown edge %v", e)
			}
			sp.embStart[r+1]++
			real = append(real, r)
		}
		lens[j] = int32(len(path) - 1)
	}
	for i := range g.M() {
		sp.embStart[i+1] += sp.embStart[i]
	}
	sp.embRefs = make([]embRef, len(real))
	next := slices.Clone(sp.embStart[:g.M()])
	for j, n := range lens {
		for i := range n {
			r := real[0]
			real = real[1:]
			sp.embRefs[next[r]] = embRef{virt: int32(j), fwd: i + 1, bwd: n - i}
			next[r]++
		}
	}
	return nil
}

// buildPointing computes the Proposition 2.2 root-anchor labels for the
// hierarchy root's designated vertex (the root member's in-terminal on its
// first lane) — property-independent, shared by every labeling.
func (sp *StructuralProof) buildPointing(designated graph.Vertex) error {
	pointing, err := cert.ProvePointing(sp.Cfg, designated)
	if err != nil {
		return err
	}
	sp.pointing = make([]*cert.PointingLabel, 0, len(pointing))
	for e := range sp.Cfg.G.EdgesSeq() {
		p := pointing[e]
		sp.pointing = append(sp.pointing, &p)
	}
	return nil
}
