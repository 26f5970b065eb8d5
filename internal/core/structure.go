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
	// (embedding, hierarchy validation, member folds, artifact derivation):
	// 0 means GOMAXPROCS, 1 runs every stage inline on the calling
	// goroutine. The structure is identical for every value.
	Parallelism int
}

// StageTimings is the cost breakdown of one prove: the wall-clock
// milliseconds of the structure build's pipeline stages (decomposition,
// lane construction, lanewidth transcript, hierarchy + artifact assembly)
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
// everything Sections 4–5 derive from the configuration alone — the
// validated path decomposition, lane partition, completion, embedding,
// lanewidth transcript, hierarchical decomposition — plus the per-node
// boundary/order tables and the root-anchor pointing labels that the label
// encoder consumes. A StructuralProof is immutable once built and safe for
// concurrent use: Scheme.ProveWithCtx runs only the property-dependent algebra
// sweep (Section 6) against it, so certifying B properties of one
// configuration builds the structure once instead of B times (see
// Batch.ProveAllWithCtx).
type StructuralProof struct {
	Cfg        *cert.Config
	PD         *interval.PathDecomposition
	Partition  *lanes.Partition
	Completion *lanes.Completion
	Emb        lanes.Embedding
	Hierarchy  *lanewidth.Hierarchy

	singleVertex bool
	congestion   int

	// graphGen is the graph's mutation generation at build time; proving
	// against a structure whose graph has since mutated is refused (see
	// ErrStaleStructure) instead of silently emitting labels for a graph
	// that no longer exists.
	graphGen uint64

	// owners maps every completion edge to its owning hierarchy node.
	owners map[graph.Edge]*lanewidth.Node
	// members holds each T-node's member infos (pre-order, root first),
	// indexed by node id; nil for nodes that are not T-nodes.
	members [][]lanewidth.MemberInfo
	// embStart and embRefs hold, per real edge in EdgesSeq order, the
	// embedding entries its label carries: real edge i's are
	// embRefs[embStart[i]:embStart[i+1]], in Completion.Virtual order.
	embStart []int32
	embRefs  []embRef
	// pointing is the Proposition 2.2 labeling anchoring the hierarchy
	// root's designated vertex, per real edge in EdgesSeq order; every
	// labeling of the structure shares these values.
	pointing []*cert.PointingLabel
	// art holds the property-independent data of each node, and shapes the
	// shape of each node's entry (nil for V-nodes, which have none), both
	// indexed by node id.
	art    []*nodeArtifact
	shapes []*Shape

	// stages records the build stages' wall clock (SweepMillis stays zero
	// here; each property pass fills its own copy).
	stages StageTimings

	// plan is the class sweep's dependency schedule, derived lazily from the
	// hierarchy on the first property pass and shared by every property pass
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

// labelSlots returns the structure's layout slots, allocating them on
// first use.
func (sp *StructuralProof) labelSlots() []layoutSlot {
	sp.layoutOnce.Do(func() { sp.layouts = make([]layoutSlot, sp.Cfg.G.M()) })
	return sp.layouts
}

// Stages returns the build stages' wall-clock breakdown (SweepMillis is zero;
// it is measured per property pass and reported in Stats).
func (sp *StructuralProof) Stages() StageTimings { return sp.stages }

// nodeArtifact is the property-independent data of one hierarchy node:
// its summary (lane set, identifiers aligned with it and, for a V-node, its
// input label), its tree membership, and its payload identifiers, real bits
// and input labels. The node's entry shape (buildShapes) is derived from
// its artifact and the artifacts of the nodes it summarizes; the slices are
// shared read-only by every shape and labeling built from the same
// StructuralProof, and an unchanged artifact carries over to the next
// generation by pointer.
type nodeArtifact struct {
	*NodeSummary // apart from the artifact, so shapes pointing at it do not pin the rest

	// Tree-member data (member is false for nodes outside any T-node tree).
	member       bool
	parentID     int
	treeChildren []int

	// E-/P-node payloads.
	pathIDs  []uint64
	realBits []bool
	vInputs  []int

	bridgeReal bool
	rootMember int // T-node: id of the tree's root member
}

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
// transcript, hierarchy, artifact tables) and aborts the build with
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
// hierarchy and artifact tables (Section 5) — and records each stage's wall
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
	// artifact assembly touch only the dirty region. The root's skipped
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

	sp := &StructuralProof{Cfg: cfg, PD: pd, Partition: p, Completion: c, Emb: emb, Hierarchy: h}
	if err := sp.assemble(prevSP, first, dirty, workers); err != nil {
		return nil, err
	}
	stages.HierarchyMillis = sinceMillis(stageStart)
	sp.stages = stages
	return &generation{sp: sp, r: r, te: te, log: log, dirtyOps: len(log.Ops) - clean}, nil
}

// assemble derives the shared per-node tables of a structure whose stage
// fields (Cfg through Hierarchy) are set. The member folds and artifact
// derivation run on the pool; with workers > 1 the three mutually
// independent table builds (artifacts, embedding orientation, root
// pointing) also overlap. Output is identical for every workers value.
//
// With prev set, per-node state carries over from the previous generation's
// structure: nodes below the first mark (see lanewidth.BuildHierarchyMark)
// whose artifacts provably cannot have changed take the previous artifact
// pointer without being rebuilt or compared, and frozen T-nodes skip their
// member folds. dirty is the set of graph edges the generation's edit batch
// touched (in either direction); any node owning one is rebuilt regardless
// of the mark, since its real bits read the edited adjacency.
func (sp *StructuralProof) assemble(prev *StructuralProof, first int, dirty map[graph.Edge]bool, workers int) error {
	h := sp.Hierarchy
	sp.congestion = sp.Emb.Congestion()
	sp.graphGen = sp.Cfg.G.Generation()
	sp.owners = h.EdgeOwners()
	sp.members = h.MembersByTNodeFromP(first, workers)
	// Warm the graph's lazily cached edge order while construction is still
	// single-threaded; concurrent ProveWithCtx calls then only read it.
	sp.Cfg.G.EdgesSeq()
	// The three table builds read disjoint inputs (artifacts walk the
	// hierarchy, orientation the embedding, pointing the graph) and write
	// disjoint fields, so they may overlap.
	var (
		wg         sync.WaitGroup
		oErr, pErr error
	)
	if workers > 1 {
		wg.Add(2)
		go func() { defer wg.Done(); oErr = sp.orientEmbedding() }()
		go func() { defer wg.Done(); pErr = sp.buildPointing() }()
	} else {
		oErr, pErr = sp.orientEmbedding(), sp.buildPointing()
	}
	aErr := sp.buildArtifactsReuse(prev, first, dirty, workers)
	if aErr == nil {
		sp.buildShapes(prev, workers)
	}
	wg.Wait()
	return cmp.Or(aErr, oErr, pErr)
}

// buildShapes derives the entry shape of every node but the V-nodes from
// the artifacts: the node's member and payload fields, and pointers to the
// summaries of the node, its children, its operands and its root member,
// which their artifacts point at. A node whose previous shape would come
// out the same — its artifact carried over, and every summary it points at
// is still the current artifacts' — keeps that shape by pointer, which is
// what entry reuse keys on; the rest are carved from per-worker arenas.
func (sp *StructuralProof) buildShapes(prev *StructuralProof, workers int) {
	nodes := sp.Hierarchy.Nodes
	sp.shapes = make([]*Shape, len(nodes))
	arenas := make([]struct {
		shapes arena[Shape]
		kids   arena[*NodeSummary]
	}, par.Workers(workers))
	par.For(workers, len(nodes), func(w, i int) {
		n := nodes[i]
		if n.Kind == lanewidth.VNode {
			return
		}
		if sp.shapes[i] = sp.prevShape(prev, n); sp.shapes[i] == nil {
			ar := &arenas[w]
			sp.shapes[i] = &ar.shapes.alloc(1)[0]
			sp.fillShape(sp.shapes[i], n, ar.kids.alloc(len(sp.art[i].treeChildren))[:0])
		}
	})
}

// fillShape fills node n's shape, appending its children's summaries to
// kids.
func (sp *StructuralProof) fillShape(s *Shape, n *lanewidth.Node, kids []*NodeSummary) {
	a := sp.art[n.ID]
	s.NodeSummary = a.NodeSummary
	s.ParentID = a.parentID
	for _, c := range a.treeChildren {
		kids = append(kids, sp.art[c].NodeSummary)
	}
	s.Children = kids
	s.PathIDs, s.RealBits, s.VInputs = a.pathIDs, a.realBits, a.vInputs
	switch n.Kind {
	case lanewidth.BNode:
		s.LaneI, s.LaneJ, s.BridgeReal = n.LaneI, n.LaneJ, a.bridgeReal
		s.Left, s.Right = sp.art[n.Left.ID].NodeSummary, sp.art[n.Right.ID].NodeSummary
	case lanewidth.TNode:
		s.RootMember = sp.art[a.rootMember].NodeSummary
	}
}

// prevShape returns the previous generation's shape of node n when it is
// exactly the shape fillShape would build now, or nil.
func (sp *StructuralProof) prevShape(prev *StructuralProof, n *lanewidth.Node) *Shape {
	if prev == nil || n.ID >= len(prev.shapes) || prev.shapes[n.ID] == nil ||
		n.ID >= len(prev.art) || sp.art[n.ID] != prev.art[n.ID] {
		return nil
	}
	ps, a := prev.shapes[n.ID], sp.art[n.ID]
	if len(ps.Children) != len(a.treeChildren) {
		return nil
	}
	for i, c := range a.treeChildren {
		if ps.Children[i] != sp.art[c].NodeSummary {
			return nil
		}
	}
	switch n.Kind {
	case lanewidth.BNode:
		if ps.LaneI != n.LaneI || ps.LaneJ != n.LaneJ ||
			ps.Left != sp.art[n.Left.ID].NodeSummary || ps.Right != sp.art[n.Right.ID].NodeSummary {
			return nil
		}
	case lanewidth.TNode:
		if ps.RootMember != sp.art[a.rootMember].NodeSummary {
			return nil
		}
	}
	return ps
}

// arena carves small slice views out of slab blocks, replacing the tiny
// allocations per node, shape, entry or decoded entry that id slices, class
// vectors, summaries and rows would cost. Views escape into long-lived
// artifacts and labels, so blocks are abandoned to their lifetime. Blocks
// double from 64 elements up to 32 KB (4096 ids), so a small arena stays
// small and a view outliving the rest of its block pins at most that much.
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

// buildArtifactsReuse derives the per-node boundary/order tables every
// labeling shares — identifier maps in lane order, member folds, and the
// E-/P-node path payloads with their real bits and input labels — with three
// escalating levels of carry-over from a previous generation (nil prev
// disables all three):
//
//   - A node below the first mark whose tree membership is frozen (it is not
//     a member, or its parent T-node is itself below the mark) and whose
//     owned edges avoid the dirty set takes the previous artifact pointer
//     outright: every field is derived from frozen state, so nothing is
//     rebuilt or even compared.
//   - A rebuilt node below the mark whose parent T-node is frozen copies its
//     member fold (merged-out terminals, tree children, parent id) from the
//     previous artifact — the fold reads only the frozen subtree — and
//     re-derives just the payload the dirty edge invalidated.
//   - Any other rebuilt node with a same-id predecessor is content-compared
//     and canonicalized to the previous pointer on equality, which is what
//     shape reuse (prevShape) keys on.
func (sp *StructuralProof) buildArtifactsReuse(prev *StructuralProof, first int, dirty map[graph.Edge]bool, workers int) error {
	h := sp.Hierarchy
	var prevArt []*nodeArtifact
	if prev != nil {
		prevArt = prev.art
	}
	if first > len(prevArt) {
		first = len(prevArt)
	}
	memberInfo := make([]*lanewidth.MemberInfo, len(h.Nodes))
	rootMember := make([]bool, len(h.Nodes))
	for tid, mis := range sp.members {
		if tid < first && tid != h.Root.ID {
			// Frozen T-nodes carry shallow member infos (no merged-out fold);
			// their members' folds come from the previous artifacts below.
			continue
		}
		for i := range mis {
			id := mis[i].Node.ID
			memberInfo[id] = &mis[i]
			rootMember[id] = tid == h.Root.ID
		}
	}
	sp.art = make([]*nodeArtifact, len(h.Nodes))
	ab := &artifactBuilder{
		sp:         sp,
		prevArt:    prevArt,
		first:      first,
		dirty:      dirty,
		memberInfo: memberInfo,
		rootMember: rootMember,
		rootID:     h.Root.ID,
	}
	// Nodes write disjoint sp.art slots from shared read-only inputs (the
	// previous artifacts and the member tables), so they derive
	// independently; each worker carves its id sequences and summaries from
	// its own arenas.
	arenas := make([]artArenas, par.Workers(workers))
	return par.ForErr(workers, len(h.Nodes), func(worker, i int) error {
		return ab.build(h.Nodes[i], &arenas[worker])
	})
}

// artifactBuilder bundles the read-only inputs of one buildArtifactsReuse
// pass so per-node derivation can run on any goroutine.
type artifactBuilder struct {
	sp         *StructuralProof
	prevArt    []*nodeArtifact
	first      int
	dirty      map[graph.Edge]bool
	memberInfo []*lanewidth.MemberInfo // by node id; nil outside folded trees
	rootMember []bool                  // by node id: a member of the root's tree
	rootID     int
}

func (ab *artifactBuilder) ownsDirty(n *lanewidth.Node) bool {
	if len(ab.dirty) == 0 {
		return false
	}
	switch n.Kind {
	case lanewidth.ENode:
		return ab.dirty[n.Edge]
	case lanewidth.BNode:
		return ab.dirty[n.Bridge]
	case lanewidth.PNode:
		for i := 0; i+1 < len(n.PathVs); i++ {
			if ab.dirty[graph.NewEdge(n.PathVs[i], n.PathVs[i+1])] {
				return true
			}
		}
	}
	return false
}

// artArenas are one artifact-building worker's arenas and scratch summary.
type artArenas struct {
	ids     arena[uint64]
	sums    arena[NodeSummary]
	scratch NodeSummary
}

// ids carves the identifiers of lane-aligned terminals from the arena.
func (ab *artifactBuilder) ids(ar *artArenas, vs []graph.Vertex) []uint64 {
	out := ar.ids.alloc(len(vs))
	for i, v := range vs {
		out[i] = ab.sp.Cfg.IDs[v]
	}
	return out
}

// frozenParent reports whether a previous artifact's member fold is frozen:
// its parent T-node was created by a clean op. The root is never that
// T-node: its id is reserved below any mark (see BuildHierarchyMark) but its
// tree is rebuilt every generation, so root members — like the root itself —
// must be re-derived and can at most canonicalize to the previous pointer by
// content comparison.
func (ab *artifactBuilder) frozenParent(pa *nodeArtifact) bool {
	return !pa.member || (pa.parentID < ab.first && pa.parentID != ab.rootID)
}

// build derives (or carries over) one node's artifact into sp.art[n.ID].
func (ab *artifactBuilder) build(n *lanewidth.Node, ar *artArenas) error {
	sp, cfg, g := ab.sp, ab.sp.Cfg, ab.sp.Cfg.G
	var pa *nodeArtifact
	if n.ID < ab.first && n != sp.Hierarchy.Root {
		pa = ab.prevArt[n.ID]
	}
	if pa != nil && ab.frozenParent(pa) && !ab.ownsDirty(n) {
		sp.art[n.ID] = pa
		return nil
	}
	// Root members dominate the rebuilt set but rarely change: their
	// payload halves are frozen (id below the mark), so the previous
	// artifact stands whenever the member's fold — parent, tree children,
	// merged out-terminals — matches the fresh member info. Comparing
	// against the previous artifact directly skips building throwaway
	// id slices for the overwhelmingly common unchanged case.
	if pa != nil && pa.member && pa.parentID == ab.rootID && ab.rootMember[n.ID] && !ab.ownsDirty(n) &&
		memberFoldEqual(pa, ab.memberInfo[n.ID], cfg) {
		sp.art[n.ID] = pa
		return nil
	}
	ar.scratch = NodeSummary{} // carved below once the artifact is known to be new
	a := &nodeArtifact{NodeSummary: &ar.scratch, parentID: -1, rootMember: -1}
	a.NodeID, a.Kind, a.Lanes = n.ID, n.Kind, n.Lanes
	a.InIDs, a.OutIDs = ab.ids(ar, n.In), ab.ids(ar, n.Out)
	if pa != nil && pa.member && pa.parentID < ab.first && pa.parentID != ab.rootID {
		a.member = true
		a.parentID = pa.parentID
		a.MergedOutIDs = pa.MergedOutIDs
		a.treeChildren = pa.treeChildren
	} else if mi := ab.memberInfo[n.ID]; mi != nil {
		a.member = true
		a.parentID = n.Parent.ID
		a.MergedOutIDs = ab.ids(ar, mi.MergedOut)
		for _, child := range mi.TreeChildren {
			a.treeChildren = append(a.treeChildren, child.ID)
		}
	}
	switch n.Kind {
	case lanewidth.VNode:
		a.Input = cfg.Input(n.Vertex)
	case lanewidth.ENode:
		a.pathIDs = []uint64{cfg.IDs[n.In[0]], cfg.IDs[n.Out[0]]}
		a.realBits = []bool{edgeReal(g, n.Edge)}
		a.vInputs = []int{cfg.Input(n.In[0]), cfg.Input(n.Out[0])}
	case lanewidth.PNode:
		for _, v := range n.PathVs {
			a.pathIDs = append(a.pathIDs, cfg.IDs[v])
		}
		a.realBits = pathRealBits(g, n.PathVs)
		a.vInputs = vertexInputs(cfg, n.PathVs)
	case lanewidth.BNode:
		a.bridgeReal = edgeReal(g, n.Bridge)
	case lanewidth.TNode:
		a.rootMember = n.RootMember().ID
	default:
		return fmt.Errorf("core: unknown node kind %v", n.Kind)
	}
	if n.ID < len(ab.prevArt) && artifactEqual(a, ab.prevArt[n.ID]) {
		a = ab.prevArt[n.ID]
	} else {
		sum := &ar.sums.alloc(1)[0]
		*sum = *a.NodeSummary
		a.NodeSummary = sum
	}
	sp.art[n.ID] = a
	return nil
}

// memberFoldEqual reports whether a previous artifact's member fold matches
// a freshly derived member info: same tree children (by id, in order) and
// the same merged out-terminal identifier per lane. Payload fields are not
// compared — callers only consult it for nodes below the mark, whose payload
// halves are frozen by construction.
func memberFoldEqual(pa *nodeArtifact, mi *lanewidth.MemberInfo, cfg *cert.Config) bool {
	if len(pa.treeChildren) != len(mi.TreeChildren) {
		return false
	}
	for i, c := range mi.TreeChildren {
		if pa.treeChildren[i] != c.ID {
			return false
		}
	}
	if len(pa.MergedOutIDs) != len(mi.MergedOut) {
		return false
	}
	for i, v := range mi.MergedOut {
		if pa.MergedOutIDs[i] != cfg.IDs[v] {
			return false
		}
	}
	return true
}

// orientEmbedding orients every virtual edge's embedding path to start at
// the edge's U endpoint, validates it against the real edge set, and files
// each of its edges' embedding entries under that real edge, so label
// assembly never re-derives any of it.
func (sp *StructuralProof) orientEmbedding() error {
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
		path := sp.Emb.OrientedPath(ve)
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
func (sp *StructuralProof) buildPointing() error {
	pointing, err := cert.ProvePointing(sp.Cfg, sp.Hierarchy.Root.RootMember().In[0])
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
