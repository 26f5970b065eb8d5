package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// ErrPropertyFails is returned by ProveWithCtx when the configuration does not
// satisfy the property (there is nothing to certify; Theorem 1's
// completeness only speaks about yes-instances).
var ErrPropertyFails = errors.New("core: property does not hold on this configuration")

// ErrTooManyLanes is returned when the prover cannot fit a lane partition
// within the scheme's lane budget.
var ErrTooManyLanes = errors.New("core: lane partition exceeds the scheme's lane budget")

// ErrDisconnected is returned when the graph is empty or disconnected: the
// scheme certifies connected graphs only.
var ErrDisconnected = errors.New("core: graph must be connected")

// ErrStaleStructure is returned by ProveWithCtx when the structural proof was
// built against an earlier generation of the graph: the graph mutated after
// BuildStructureCtx, so the structure's decomposition, embedding and artifact
// tables no longer describe it.
var ErrStaleStructure = errors.New("core: structural proof is stale (graph mutated since build)")

// Scheme is the Theorem 1 proof labeling scheme for φ ∧ (pathwidth ≤ k),
// parameterized by the property's homomorphism-class algebra and a lane
// budget. Structurally the scheme certifies that the graph embeds in a
// completion with at most MaxLanes lanes, which bounds its pathwidth by
// MaxLanes−1 (see DESIGN.md for the soundness discussion).
type Scheme struct {
	Prop     algebra.Property
	MaxLanes int
	// Workers bounds the parallelism of the property pass — the class sweep,
	// entry assembly and label construction: 0 means GOMAXPROCS, 1 runs the
	// pass inline on the calling goroutine. Fresh and incremental passes take
	// the same code at every value, and output is byte-identical: class
	// ids are content hashes whose collision ranks Registry.Canonicalize
	// orders by content, so they depend only on the set of classes in the
	// proof, never on sweep order (see DESIGN.md §10).
	Workers int
	// Reg interns homomorphism classes; it is shared by prover and verifier
	// exactly as the finite class set C is part of the paper's algorithms.
	Reg *algebra.Registry

	// memo holds the property's memoized algebra evaluations (see
	// algebra_cache.go). The tables carry no per-run state, so every scheme
	// of one property instance shares one Memo: batch passes, incremental
	// generations and verifiers all hit what earlier ones computed, while
	// class ids still come from each scheme's own fresh Registry.
	memo *Memo
	// misses counts the evaluations this scheme computed rather than found
	// in memo; guarded by memo.mu.
	misses int
}

// NewScheme returns a scheme for the property with the given lane budget and
// an empty memo.
func NewScheme(prop algebra.Property, maxLanes int) *Scheme {
	return NewSchemeMemo(prop, maxLanes, nil)
}

// NewSchemeMemo returns a scheme whose algebra evaluations go through memo,
// or through an empty one when memo is nil. The memo must only ever serve
// schemes of this property instance: base classes and merges are
// property-dependent evaluations.
func NewSchemeMemo(prop algebra.Property, maxLanes int, memo *Memo) *Scheme {
	if memo == nil {
		memo = NewMemo()
	}
	return &Scheme{Prop: prop, MaxLanes: maxLanes, Reg: algebra.NewRegistry(), memo: memo}
}

// Stats reports measurable quantities of one proving run (experiments
// E1–E3, E8, E9).
type Stats struct {
	Lanes           int
	VirtualEdges    int
	Congestion      int
	HierarchyDepth  int
	RegistryClasses int
	MaxLabelBits    int
	// Stages is the run's cost breakdown: the structure build's pipeline
	// stages plus this pass's sweep (classes, entries, labels) and its memo
	// misses.
	Stages StageTimings
}

// ProveWithCtx runs the property-dependent half of the prover — class
// computation, acceptance, certificates and labels (Section 6) — against a
// structure from BuildStructureCtx. Any number of schemes may prove
// concurrently against one StructuralProof. The class sweep checks for
// cancellation every few hundred hierarchy nodes and returns ctx.Err().
// Completeness: on yes-instances of φ ∧ (pathwidth small enough for the lane
// budget), ProveWithCtx succeeds and VerifyParallelCtx accepts everywhere.
func (s *Scheme) ProveWithCtx(ctx context.Context, sp *StructuralProof) (*Labeling, *Stats, error) {
	labeling, stats, _, err := s.proveWith(ctx, sp, nil, nil, nil)
	return labeling, stats, err
}

// proveWith is the full property pass with optional incremental reuse: when
// prev (the previous generation's encoder over the previous structure of
// the same graph) is non-nil, node entries, certificates and edge labels
// whose content provably did not change are carried over by pointer —
// entries' cached encodings and labels' sizes included — instead of being
// re-derived. The output is byte-identical to a fresh pass either way;
// reuse counters are accumulated into ru when non-nil. The returned
// encoder feeds the next generation's reuse.
func (s *Scheme) proveWith(ctx context.Context, sp *StructuralProof, prev *encoder, prevLab *Labeling, ru *reuseCounters) (*Labeling, *Stats, *encoder, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if sp == nil || sp.Cfg == nil {
		return nil, nil, nil, errors.New("core: nil structural proof")
	}
	if gen := sp.Cfg.G.Generation(); gen != sp.graphGen {
		return nil, nil, nil, fmt.Errorf("%w: built at generation %d, graph now at %d",
			ErrStaleStructure, sp.graphGen, gen)
	}
	if sp.singleVertex {
		// Single-vertex network: the verifier decides locally; labels empty.
		ok, err := s.singleVertexAccept(sp.Cfg.Input(0))
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			return nil, nil, nil, ErrPropertyFails
		}
		return &Labeling{Edges: map[graph.Edge]*EdgeLabel{}}, &Stats{}, nil, nil
	}
	if sp.Partition.K() > s.MaxLanes {
		return nil, nil, nil, fmt.Errorf("%w: %d > %d", ErrTooManyLanes, sp.Partition.K(), s.MaxLanes)
	}

	// Section 6: homomorphism classes and certificates.
	workers := par.Workers(s.Workers)
	sweepStart, misses := time.Now(), s.memoMisses()
	enc, err := s.buildEncoderReuse(ctx, sp, prev, ru, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	rootClass := s.Reg.Class(enc.classIDs[sp.Hierarchy.Root.ID])
	accept, err := algebra.Accept(s.Prop, rootClass)
	if err != nil {
		return nil, nil, nil, err
	}
	if !accept {
		return nil, nil, nil, ErrPropertyFails
	}

	labeling, err := enc.buildLabels(prev, prevLab, ru, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := &Stats{
		Lanes:           sp.Partition.K(),
		VirtualEdges:    len(sp.Completion.Virtual),
		Congestion:      sp.congestion,
		HierarchyDepth:  sp.Hierarchy.Depth(),
		RegistryClasses: s.Reg.Size(),
		MaxLabelBits:    labeling.MaxBits(),
		Stages:          sp.stages,
	}
	stats.Stages.SweepMillis = sinceMillis(sweepStart)
	stats.Stages.MemoMisses = s.memoMisses() - misses
	return labeling, stats, enc, nil
}

func (s *Scheme) singleVertexAccept(input int) (bool, error) {
	cls, err := s.baseV(0, input)
	if err != nil {
		return false, err
	}
	return algebra.Accept(s.Prop, cls)
}

// encoder holds the per-node certificate components shared by all edges of
// each node's subgraph, for one property pass over one structure.
type encoder struct {
	scheme *Scheme
	sp     *StructuralProof
	// Node ids are dense (creation order), so the per-node tables are
	// slices indexed by id; nil marks "not computed" (classes, merged) or
	// "no entry" (entries — V-nodes ride inside B summaries).
	classes []*algebra.Class // node id → class
	merged  []*algebra.Class // member node id → Tree-merge(subtree) class
	entries []*NodeEntry     // node id → entry
	// classIDs/mergedIDs are the canonical registry ids of classes/merged,
	// precomputed right after Canonicalize so entry assembly reads them
	// without touching the registry (lock-free on the pool).
	classIDs  []int
	mergedIDs []int
	// certEdges and certs are the completion edges (real ones in EdgesSeq
	// order, then virtual ones) and the certificates buildLabels assembled
	// for them, so the next incremental generation can reuse any whose
	// root-to-owner entry path is unchanged.
	certEdges []graph.Edge
	certs     []*CEdgeLabel
}

// buildEncoderReuse computes classes bottom-up over the hierarchy (the
// level-scheduled sweep of sweep.go) and assembles the node entries on the
// structure's shared shapes, both on a pool of workers. When prev is
// non-nil (incremental re-proving), an entry whose shape carried over from
// the previous generation's structure and whose class ids are unchanged
// is the previous entry, by pointer.
func (s *Scheme) buildEncoderReuse(ctx context.Context, sp *StructuralProof, prev *encoder, ru *reuseCounters, workers int) (*encoder, error) {
	nn := len(sp.Hierarchy.Nodes)
	enc := &encoder{
		scheme:  s,
		sp:      sp,
		classes: make([]*algebra.Class, nn),
		merged:  make([]*algebra.Class, nn),
		entries: make([]*NodeEntry, nn),
	}
	if err := s.sweep(ctx, enc, workers); err != nil {
		return nil, err
	}
	// Intern the full class set — node classes and member-merge intermediates
	// (entry assembly references the latter through mergedIDs) — then fix the
	// registry numbering by class content and snapshot the canonical ids.
	// Ids are content hashes with content-ordered collision ranks, so after
	// Canonicalize they depend only on the set of distinct classes in this
	// proof — not on sweep order or worker count, and not on traversal order
	// across generations, so a local edit that introduces no new class
	// leaves every id, and with it every clean entry and label byte,
	// unchanged.
	s.Reg.InternAll(enc.classes)
	s.Reg.InternAll(enc.merged)
	s.Reg.Canonicalize()
	enc.classIDs = s.Reg.InternAll(enc.classes)
	enc.mergedIDs = s.Reg.InternAll(enc.merged)
	if err := enc.assembleEntries(ctx, prev, workers); err != nil {
		return nil, err
	}
	if ru != nil {
		for i, e := range enc.entries {
			if e != nil {
				ru.TotalEntries++
				if prev != nil && i < len(prev.entries) && e == prev.entries[i] {
					ru.ReusedEntries++
				}
			}
		}
	}
	return enc, nil
}

// assembleEntries assembles an entry for every node but the V-nodes, which
// ride inside their B-node's entry as operand summaries: the node's shape
// plus this pass's class ids, gathered in worker scratch. An incremental
// pass keeps the previous generation's entry when its shape is the same
// pointer and its class ids are equal; only the other entries are carved
// from the worker's arenas.
func (enc *encoder) assembleEntries(ctx context.Context, prev *encoder, workers int) error {
	shapes := enc.sp.shapes
	carvers := make([]struct {
		rows    arena[NodeEntry]
		classes arena[int]
		scratch []int // class ids
	}, par.Workers(workers))
	return par.ForErr(workers, len(shapes), func(w, i int) error {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sh := shapes[i]
		if sh == nil {
			return nil
		}
		c := &carvers[w]
		c.scratch = enc.appendClasses(c.scratch[:0], sh)
		if prev != nil && i < len(prev.entries) {
			if pe := prev.entries[i]; pe != nil && pe.Shape == sh && slices.Equal(pe.Classes, c.scratch) {
				enc.entries[i] = pe
				return nil
			}
		}
		e := &c.rows.alloc(1)[0]
		e.Shape, e.Classes = sh, c.classes.alloc(len(c.scratch))
		copy(e.Classes, c.scratch)
		enc.entries[i] = e
		return nil
	})
}

// appendClasses appends the class ids of this pass's entry of shape s, in
// wire order (see NodeEntry.Classes). Class ids are canonical (content
// order, see Registry.Canonicalize), so two passes' vectors for one shape
// are equal exactly when their entries encode the same.
func (enc *encoder) appendClasses(dst []int, s *Shape) []int {
	dst = append(dst, enc.classIDs[s.NodeID])
	if s.member() {
		dst = append(dst, enc.mergedIDs[s.NodeID])
		for _, c := range s.Children {
			dst = append(dst, enc.mergedIDs[c.NodeID])
		}
	}
	for _, op := range s.operands() {
		if op != nil {
			dst = append(dst, enc.classIDs[op.NodeID])
		}
	}
	if rm := s.RootMember; rm != nil {
		dst = append(dst, enc.mergedIDs[rm.NodeID])
	}
	return dst
}

// buildCert assembles one completion edge's certificate from the entry
// table, safe for concurrent calls on distinct edges (it only reads shared
// state).
func (enc *encoder) buildCert(e graph.Edge) (*CEdgeLabel, error) {
	owner, ok := enc.sp.owners[e]
	if !ok {
		return nil, fmt.Errorf("core: completion edge %v has no owner", e)
	}
	// The path runs root to owner; it is filled from the owner up, so no
	// node path is materialized.
	depth := 0
	for n := owner; n != nil; n = n.Parent {
		depth++
	}
	cl := &CEdgeLabel{Path: make([]*NodeEntry, depth)}
	for n := owner; n != nil; n = n.Parent {
		depth--
		if cl.Path[depth] = enc.entries[n.ID]; cl.Path[depth] == nil {
			return nil, fmt.Errorf("core: node %d has no entry", n.ID)
		}
	}
	if owner.Kind == lanewidth.PNode {
		pos := -1
		for i := 0; i+1 < len(owner.PathVs); i++ {
			if graph.NewEdge(owner.PathVs[i], owner.PathVs[i+1]) == e {
				pos = i
				break
			}
		}
		if pos == -1 {
			return nil, fmt.Errorf("core: edge %v not on owner path", e)
		}
		cl.OwnerPos = pos
	}
	return cl, nil
}

// buildLabels assembles the per-edge labels: own certificates on real
// edges, embedding entries for virtual edges, and root-anchor pointing.
// Certificates are built once per completion edge on the pool — each depends
// only on its edge's owner path, so the table is the same for every worker
// count. When prev/prevLab are non-nil (incremental re-proving),
// certificates and whole edge labels that came out content-identical to the
// previous generation's are swapped for the previous instances, so labels'
// cached encodings carry over; the labeling is byte-identical either way.
func (enc *encoder) buildLabels(prev *encoder, prevLab *Labeling, ru *reuseCounters, workers int) (*Labeling, error) {
	sp := enc.sp
	orig := sp.Cfg.G
	// The label of a real edge and every EmbEntry simulating a virtual edge
	// on it reference the same *CEdgeLabel, so the certificate is built once
	// no matter how many labels carry it.
	// Real and virtual edges partition the completion edge set, so the
	// table covers every edge a label below asks for.
	edges := make([]graph.Edge, 0, len(sp.owners))
	for e := range orig.EdgesSeq() {
		edges = append(edges, e)
	}
	nReal := len(edges)
	edges = append(edges, sp.Completion.Virtual...)
	var prevCerts map[graph.Edge]*CEdgeLabel
	if prev != nil {
		prevCerts = make(map[graph.Edge]*CEdgeLabel, len(prev.certEdges))
		for i, e := range prev.certEdges {
			prevCerts[e] = prev.certs[i]
		}
	}
	built := make([]*CEdgeLabel, len(edges))
	if err := par.ForErr(workers, len(edges), func(_, i int) error {
		cl, err := enc.buildCert(edges[i])
		if err != nil {
			return err
		}
		if pcl, ok := prevCerts[edges[i]]; ok && certShallowEqual(cl, pcl) {
			cl = pcl
		}
		built[i] = cl
		return nil
	}); err != nil {
		return nil, err
	}
	enc.certEdges, enc.certs = edges, built

	// labels holds the real edges' labels in EdgesSeq order, the order of
	// the structure's layout slots. Embedding certification (Theorem 1):
	// each label carries an entry for every virtual edge whose embedding
	// path uses its edge, in the order the structure filed them.
	labeling := &Labeling{Edges: make(map[graph.Edge]*EdgeLabel, nReal)}
	labels := make([]*EdgeLabel, nReal)
	for i, e := range edges[:nReal] {
		el := &EdgeLabel{Own: built[i], Pointing: sp.pointing[i]}
		if refs := sp.embRefs[sp.embStart[i]:sp.embStart[i+1]]; len(refs) > 0 {
			el.Emb = make([]EmbEntry, len(refs))
			for k, r := range refs {
				ve := sp.Completion.Virtual[r.virt]
				el.Emb[k] = EmbEntry{
					UID:     sp.Cfg.IDs[ve.U],
					VID:     sp.Cfg.IDs[ve.V],
					Fwd:     int(r.fwd),
					Bwd:     int(r.bwd),
					Payload: built[nReal+int(r.virt)],
				}
			}
		}
		labels[i] = el
		labeling.Edges[e] = el
	}
	// Final incremental pass: a label whose every component survived from
	// the previous generation is replaced by the previous label instance, so
	// it is not encoded again.
	if prevLab != nil {
		for i, e := range edges[:nReal] {
			if pe, ok := prevLab.Edges[e]; ok && labelShallowEqual(labels[i], pe) {
				labels[i], labeling.Edges[e] = pe, pe
				if ru != nil {
					ru.ReusedLabels++
				}
			}
		}
	}
	if ru != nil {
		ru.TotalLabels += nReal
	}
	// Encode every label once, on the pool (each label's once-guard is hit
	// by one worker): MaxBits, MarshalBinary and EncodedLabels then read
	// the cached bytes. Reused labels already hold theirs. The first pass
	// to encode an edge lays it out and later passes splice.
	slots := sp.labelSlots()
	par.For(workers, len(labels), func(_, i int) { labels[i].materializeOn(&slots[i], &sp.layoutBuilds) })
	return labeling, nil
}

// certShallowEqual reports whether two certificates are content-identical
// given that entries are canonical pointers within and across generations:
// same path of entry instances, same owner position.
func certShallowEqual(a, b *CEdgeLabel) bool {
	return a.OwnerPos == b.OwnerPos && slices.Equal(a.Path, b.Path)
}

// labelShallowEqual reports whether two edge labels are content-identical
// given that certificates are canonical pointers (see certShallowEqual).
func labelShallowEqual(a, b *EdgeLabel) bool {
	if a.Own != b.Own || !slices.Equal(a.Emb, b.Emb) {
		return false
	}
	if a.Pointing == nil || b.Pointing == nil {
		return a.Pointing == b.Pointing
	}
	return *a.Pointing == *b.Pointing
}

func edgeReal(orig *graph.Graph, e graph.Edge) bool {
	return orig.HasEdge(e.U, e.V)
}

func pathRealBits(orig *graph.Graph, pathVs []graph.Vertex) []bool {
	out := make([]bool, 0, len(pathVs)-1)
	for i := 0; i+1 < len(pathVs); i++ {
		out = append(out, orig.HasEdge(pathVs[i], pathVs[i+1]))
	}
	return out
}

func vertexInputs(cfg *cert.Config, vs []graph.Vertex) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = cfg.Input(v)
	}
	return out
}

// vNodeBGraph, eNodeBGraph and pNodeBGraph build the canonical local graphs
// whose base classes both the prover and the verifier compute, so that the
// two sides agree bit-for-bit.

func vNodeBGraph(lane int, input int) *algebra.BGraph {
	return &algebra.BGraph{
		G:      graph.New(1),
		Lanes:  []int{lane},
		In:     map[int]graph.Vertex{lane: 0},
		Out:    map[int]graph.Vertex{lane: 0},
		VLabel: []int{input},
		ELabel: map[graph.Edge]int{},
	}
}

func eNodeBGraph(lane int, real bool, inputs []int) *algebra.BGraph {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	el := map[graph.Edge]int{}
	if real {
		el[graph.NewEdge(0, 1)] = algebra.EdgeReal
	}
	vl := []int{0, 0}
	if len(inputs) == 2 {
		vl = []int{inputs[0], inputs[1]}
	}
	return &algebra.BGraph{
		G:      g,
		Lanes:  []int{lane},
		In:     map[int]graph.Vertex{lane: 0},
		Out:    map[int]graph.Vertex{lane: 1},
		VLabel: vl,
		ELabel: el,
	}
}

func pNodeBGraph(laneSet []int, realBits []bool, inputs []int) *algebra.BGraph {
	ls := sortedLanes(laneSet)
	g := graph.New(len(ls))
	el := map[graph.Edge]int{}
	for i := 0; i+1 < len(ls); i++ {
		g.MustAddEdge(i, i+1)
		if i < len(realBits) && realBits[i] {
			el[graph.NewEdge(i, i+1)] = algebra.EdgeReal
		}
	}
	vl := make([]int, len(ls))
	for i := range vl {
		if i < len(inputs) {
			vl[i] = inputs[i]
		}
	}
	bg := &algebra.BGraph{
		G:      g,
		Lanes:  ls,
		In:     map[int]graph.Vertex{},
		Out:    map[int]graph.Vertex{},
		VLabel: vl,
		ELabel: el,
	}
	for i, l := range ls {
		bg.In[l] = i
		bg.Out[l] = i
	}
	return bg
}
