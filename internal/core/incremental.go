package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
	"repro/internal/lanewidth"
)

// EditOp selects the kind of one graph edit.
type EditOp uint8

const (
	// EditAdd inserts an edge that is not present.
	EditAdd EditOp = iota
	// EditRemove deletes an edge that is present.
	EditRemove
)

// String names the operation for error messages and logs.
func (op EditOp) String() string {
	switch op {
	case EditAdd:
		return "add"
	case EditRemove:
		return "remove"
	default:
		return fmt.Sprintf("EditOp(%d)", uint8(op))
	}
}

// Edit is one edge mutation of an incremental update batch.
type Edit struct {
	Op   EditOp
	U, V graph.Vertex
}

// ErrBadEdit is returned (wrapped) by UpdateBatch when an edit
// batch is invalid — an endpoint out of range, a self-loop, adding a present
// edge, removing an absent one, or a batch that disconnects the graph. The
// engine's graph and certification state are rolled back: a failed update
// leaves the previous generation fully intact.
var ErrBadEdit = errors.New("core: invalid edit")

// UpdateStats reports one incremental update: whether the engine fell back
// to a full re-prove, how much of the transcript the edit dirtied, and how
// much of the previous generation's labeling survived by pointer.
type UpdateStats struct {
	// Fallback is true when the retained path decomposition could not cover
	// the edited graph (or the engine runs the paper construction, which has
	// no incremental path) and the update re-proved from scratch.
	Fallback bool
	// DirtyOps counts the lanewidth transcript operations past the point
	// where the new transcript diverges from the previous one — the
	// construction suffix the edit forced the engine to re-derive.
	DirtyOps int
	// Entry/label reuse accounting, summed over all properties: reused
	// counts carried-over pointer-identical instances, totals count all.
	ReusedEntries, TotalEntries int
	ReusedLabels, TotalLabels   int
	// ReusedSources counts embedding BFS sources whose recorded ball the
	// edit did not touch (their shortest-path trees were reused verbatim);
	// TotalSources is the number of distinct virtual-edge sources.
	ReusedSources, TotalSources int
	// PerProperty holds each property's post-update stats, byte-identical
	// to what a fresh prove of the mutated graph would report.
	PerProperty map[string]*Stats
}

// reuseCounters accumulates entry/label reuse across the per-property
// passes of one update.
type reuseCounters struct {
	ReusedEntries, TotalEntries int
	ReusedLabels, TotalLabels   int
}

// IncrementalOptions configures an incremental certification engine.
type IncrementalOptions struct {
	// MaxLanes is the per-scheme lane budget; 0 means DefaultMaxLanes.
	MaxLanes int
	// UsePaperConstruction selects the Proposition 4.6 lane construction.
	// It has no incremental path (the recursion is global), so every update
	// is a full re-prove, reported as Fallback in the stats.
	UsePaperConstruction bool
	// Parallelism bounds every pooled stage of a generation — the structure
	// build or dirty-region rebuild, the number of property passes running
	// at once, and the workers inside each pass — exactly as
	// BatchOptions.Parallelism does: 0 means GOMAXPROCS, 1 runs everything
	// inline on the calling goroutine. Certificates are byte-identical for
	// every value.
	Parallelism int
}

// Incremental re-certifies a mutating graph: it retains the path
// decomposition, lane partition, embedding balls, transcript, per-node
// entries and per-edge labels of the current generation, and on each edit
// batch re-derives only the dirty region — everything an edit provably did
// not touch is carried over by pointer, memoized encodings included. Every
// generation's labelings are byte-identical to a fresh prove of the mutated
// graph (with the retained decomposition, or from scratch after a
// fallback), so verification and the wire format are oblivious to how a
// certificate was produced.
//
// The engine owns cfg.G and mutates it in place; callers must not. All
// methods are safe for concurrent use (updates serialize on an internal
// mutex; accessors return snapshots or immutable state).
type Incremental struct {
	mu   sync.Mutex
	cfg  *cert.Config
	opts IncrementalOptions

	names []string

	// Retained pipeline state of the current generation. The tracking
	// fields (ci, r, part, te, log) are nil under the paper construction,
	// which always re-proves from scratch.
	pd   *interval.PathDecomposition
	ci   *interval.CoverIndex
	r    *interval.Representation
	part *lanes.Partition
	te   *lanes.TrackedEmbedding
	log  lanewidth.OpLog
	sp   *StructuralProof

	// Per-property state: each generation gets a fresh Scheme (its own
	// Registry, so class ids match a fresh prove) sharing the previous
	// generation's memo caches; encoders and labelings feed the next
	// generation's reuse.
	schemes map[string]*Scheme
	encs    map[string]*encoder
	labs    map[string]*Labeling
	stats   map[string]*Stats

	fallbacks int
}

// pendingState is one fully built candidate generation; it replaces the
// engine's state only after every stage and property pass succeeded, so a
// failed update leaves the previous generation untouched.
type pendingState struct {
	pd   *interval.PathDecomposition
	ci   *interval.CoverIndex
	r    *interval.Representation
	part *lanes.Partition
	te   *lanes.TrackedEmbedding
	log  lanewidth.OpLog
	sp   *StructuralProof

	schemes map[string]*Scheme
	encs    map[string]*encoder
	labs    map[string]*Labeling
	stats   map[string]*Stats

	us *UpdateStats
}

// NewIncremental builds the engine and proves the initial generation of
// every property. It fails with ErrPropertyFails (wrapped, naming the
// property) when some property does not hold — the engine's contract is
// that every generation certifies all configured properties. The engine
// takes ownership of cfg.G.
func NewIncremental(ctx context.Context, cfg *cert.Config, props []algebra.Property, opts IncrementalOptions) (*Incremental, error) {
	if cfg == nil || cfg.G == nil {
		return nil, errors.New("core: nil configuration")
	}
	if len(props) == 0 {
		return nil, errors.New("core: incremental engine needs at least one property")
	}
	if opts.MaxLanes == 0 {
		opts.MaxLanes = DefaultMaxLanes
	}
	if cfg.G.N() < 2 {
		return nil, errors.New("core: incremental engine needs at least two vertices")
	}
	inc := &Incremental{cfg: cfg, opts: opts}
	seen := map[string]bool{}
	//lint:certlint ignore ctxpoll name validation bounded by the configured property count; no proving work
	for _, p := range props {
		name := p.Name()
		if name == "" {
			return nil, errors.New("core: incremental property with empty name")
		}
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate property %q", name)
		}
		seen[name] = true
		inc.names = append(inc.names, name)
	}

	st, err := inc.buildFresh(ctx, props, nil)
	if err != nil {
		return nil, err
	}
	inc.commit(st)
	return inc, nil
}

// buildFresh runs the full pipeline and a fresh pass per property (no
// reuse), deriving the tracking state the next incremental update needs.
// props supplies the properties on first build; on fallback rebuilds it is
// nil and the properties come from the current schemes.
func (inc *Incremental) buildFresh(ctx context.Context, props []algebra.Property, us *UpdateStats) (*pendingState, error) {
	st := &pendingState{us: us}
	sp, err := BuildStructureCtx(ctx, inc.cfg, nil, StructureOptions{
		UsePaperConstruction: inc.opts.UsePaperConstruction,
		Parallelism:          inc.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if sp.singleVertex {
		return nil, errors.New("core: incremental engine needs at least two vertices")
	}
	st.sp = sp
	st.pd = sp.PD
	if !inc.opts.UsePaperConstruction {
		if err := st.deriveTracking(ctx, inc.cfg.G); err != nil {
			return nil, err
		}
	}
	byName := make(map[string]algebra.Property, len(inc.names))
	for _, p := range props {
		byName[p.Name()] = p
	}
	if props == nil {
		for name, s := range inc.schemes {
			byName[name] = s.Prop
		}
	}
	if err := st.provePasses(ctx, inc, byName, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// deriveTracking computes the incremental bookkeeping of a freshly built
// generation: cover index, intervals, partition, tracked embedding balls
// and the transcript. The tracked embedding reproduces sp.Emb exactly
// (same BFS), so later Reembed calls extend this generation seamlessly.
func (st *pendingState) deriveTracking(ctx context.Context, g *graph.Graph) error {
	ci, err := interval.NewCoverIndex(st.pd, g.N())
	if err != nil {
		return fmt.Errorf("core: cover index: %w", err)
	}
	st.ci = ci
	st.r = st.pd.ToIntervals(g.N())
	st.part = st.sp.Partition
	if err := ctx.Err(); err != nil {
		return err
	}
	te, err := lanes.EmbedTracked(g, st.sp.Completion)
	if err != nil {
		return fmt.Errorf("core: tracked embedding: %w", err)
	}
	st.te = te
	log, err := lanewidth.FromCompletion(g, st.r, st.part)
	if err != nil {
		return fmt.Errorf("core: transcript: %w", err)
	}
	st.log = log
	return nil
}

// provePasses runs one labeling pass per property against st.sp, in the
// engine's fixed property order, through the loop Batch uses. Each pass gets
// a fresh Scheme sharing the previous generation's memo caches (pure tables,
// so output is unchanged); a non-nil ru enables entry/label reuse against the
// current generation and accumulates its counters, nil runs from-scratch
// passes.
func (st *pendingState) provePasses(ctx context.Context, inc *Incremental, props map[string]algebra.Property, ru *reuseCounters) error {
	schemes := make([]*Scheme, len(inc.names))
	var prev []passResult
	if ru != nil {
		prev = make([]passResult, len(inc.names))
	}
	for i, name := range inc.names {
		var (
			prop   algebra.Property
			caches *schemeCaches
		)
		if cur := inc.schemes[name]; cur != nil {
			prop, caches = cur.Prop, cur.caches
		} else {
			prop, caches = props[name], newSchemeCaches()
		}
		schemes[i] = newSchemeShared(prop, inc.opts.MaxLanes, caches)
		schemes[i].Workers = inc.opts.Parallelism
		if prev != nil {
			prev[i] = passResult{enc: inc.encs[name], lab: inc.labs[name]}
		}
	}
	results, err := provePasses(ctx, st.sp, schemes, prev, inc.opts.Parallelism)
	if err != nil {
		return err
	}
	st.schemes = make(map[string]*Scheme, len(inc.names))
	st.encs = make(map[string]*encoder, len(inc.names))
	st.labs = make(map[string]*Labeling, len(inc.names))
	st.stats = make(map[string]*Stats, len(inc.names))
	for i, name := range inc.names {
		r := results[i]
		if r.err != nil {
			// st.us is set exactly when this pass serves an update
			// (incremental or fallback); it is nil on the initial build.
			when := "on the initial graph"
			if st.us != nil {
				when = "after edit"
			}
			return fmt.Errorf("core: property %s %s: %w", name, when, r.err)
		}
		st.schemes[name] = schemes[i]
		st.encs[name] = r.enc
		st.labs[name] = r.lab
		st.stats[name] = r.stats
		if ru != nil {
			ru.ReusedEntries += r.ru.ReusedEntries
			ru.TotalEntries += r.ru.TotalEntries
			ru.ReusedLabels += r.ru.ReusedLabels
			ru.TotalLabels += r.ru.TotalLabels
		}
	}
	if st.us != nil {
		st.us.PerProperty = make(map[string]*Stats, len(st.stats))
		for name, s := range st.stats {
			cp := *s
			st.us.PerProperty[name] = &cp
		}
	}
	return nil
}

// commit installs a fully built generation.
func (inc *Incremental) commit(st *pendingState) {
	inc.pd, inc.ci, inc.r, inc.part, inc.te, inc.log, inc.sp =
		st.pd, st.ci, st.r, st.part, st.te, st.log, st.sp
	inc.schemes, inc.encs, inc.labs, inc.stats = st.schemes, st.encs, st.labs, st.stats
}

// UpdateBatch applies the edits in order and re-certifies every property of
// the mutated graph, re-deriving only the region the batch dirtied. The
// batch is atomic: on any failure — an invalid edit (ErrBadEdit), a batch
// that disconnects the graph (ErrBadEdit), a property that no longer holds
// (ErrPropertyFails), a graph grown past the lane budget (ErrTooManyLanes),
// or cancellation — the graph and all certification state are rolled back
// to the previous generation. An empty batch is a successful no-op.
//
// When the retained decomposition does not cover an added edge, the engine
// falls back to a full from-scratch re-prove (new decomposition included);
// the fallback is reported in UpdateStats.Fallback and counted by
// Fallbacks, never silent.
func (inc *Incremental) UpdateBatch(ctx context.Context, edits []Edit) (*UpdateStats, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	us := &UpdateStats{}
	if len(edits) == 0 {
		us.PerProperty = make(map[string]*Stats, len(inc.stats))
		//lint:certlint ignore ctxpoll stats copy bounded by the property count; ctx was polled on entry
		for name, s := range inc.stats {
			cp := *s
			us.PerProperty[name] = &cp
		}
		return us, nil
	}

	g := inc.cfg.G
	snap, err := g.SnapshotAdj(touchedVertices(edits))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEdit, err)
	}
	if err := inc.applyEdits(g, edits); err != nil {
		inc.rollback(g, snap)
		return nil, err
	}
	st, err := inc.rebuild(ctx, edits, us)
	if err != nil {
		inc.rollback(g, snap)
		return nil, err
	}
	inc.commit(st)
	if us.Fallback {
		inc.fallbacks++
	}
	return us, nil
}

// applyEdits applies the batch in order, returning the first failure
// (wrapped in ErrBadEdit) if any.
func (inc *Incremental) applyEdits(g *graph.Graph, edits []Edit) error {
	for i, e := range edits {
		var err error
		switch e.Op {
		case EditAdd:
			err = g.AddEdge(e.U, e.V)
		case EditRemove:
			err = g.RemoveEdge(e.U, e.V)
		default:
			err = fmt.Errorf("unknown op %v", e.Op)
		}
		if err != nil {
			return fmt.Errorf("%w: edit %d (%v {%d,%d}): %v", ErrBadEdit, i, e.Op, e.U, e.V, err)
		}
	}
	return nil
}

// rollback restores the batch endpoints' adjacency snapshot and re-stamps
// the structure's generation (rolling back advances the mutation counter
// even though content is restored, and the retained structure describes the
// restored content). Restoring the snapshot — rather than reverse-replaying
// the edits — puts the adjacency lists back in their exact pre-batch order;
// a reverse-replay would restore the edge set but permute neighbor order,
// silently desynchronizing the committed generation's BFS-derived state
// (embedding paths, pointing labels) from what a fresh prove of the restored
// graph would compute.
func (inc *Incremental) rollback(g *graph.Graph, snap *graph.AdjSnapshot) {
	g.RestoreAdj(snap)
	inc.sp.graphGen = g.Generation()
}

// rebuild constructs the next generation against the already-mutated graph,
// incrementally when the retained decomposition still covers it and from
// scratch otherwise (us.Fallback reports which).
func (inc *Incremental) rebuild(ctx context.Context, edits []Edit, us *UpdateStats) (*pendingState, error) {
	g := inc.cfg.G
	if !g.Connected() {
		return nil, fmt.Errorf("%w: batch disconnects the graph", ErrBadEdit)
	}
	fallback := inc.opts.UsePaperConstruction
	for _, e := range edits {
		if e.Op == EditAdd && g.HasEdge(e.U, e.V) && !inc.ci.Covers(e.U, e.V) {
			fallback = true
			break
		}
	}
	if fallback {
		us.Fallback = true
		st, err := inc.buildFresh(ctx, nil, us)
		if err != nil {
			return nil, err
		}
		return st, nil
	}

	touched := touchedVertices(edits)
	st := &pendingState{
		pd:   inc.pd,
		ci:   inc.ci,
		r:    inc.r,
		part: inc.part,
		us:   us,
	}
	// Re-run the edge-dependent pipeline stages over the retained
	// decomposition and partition; the embedding reuses every BFS ball the
	// batch did not touch.
	c := lanes.Complete(g, inc.part, false)
	te, reusedSrc, err := inc.te.Reembed(g, c, touched)
	if err != nil {
		return nil, fmt.Errorf("core: re-embedding: %w", err)
	}
	st.te = te
	us.ReusedSources, us.TotalSources = reusedSrc, te.Sources()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	log, err := lanewidth.FromCompletion(g, inc.r, inc.part)
	if err != nil {
		return nil, fmt.Errorf("core: transcript: %w", err)
	}
	st.log = log
	clean := log.Divergence(inc.log)
	us.DirtyOps = len(log.Ops) - clean
	// Replay the transcript marking the first node a dirty op created; nodes
	// below the mark are identical to the previous generation's (same clean
	// prefix, deterministic replay), so validation and artifact assembly touch
	// only the dirty region. Graph connectivity — which the root's skipped
	// subgraph check relies on — was verified above.
	h, firstDirty, err := lanewidth.BuildHierarchyMark(c.Graph, log, clean)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy: %w", err)
	}
	if err := h.ValidateFromP(firstDirty, inc.opts.Parallelism); err != nil {
		return nil, fmt.Errorf("core: hierarchy invalid: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirty := make(map[graph.Edge]bool, len(edits))
	for _, e := range edits {
		dirty[graph.NewEdge(e.U, e.V)] = true
	}
	sp, err := assembleStructureReuse(inc.cfg, inc.pd, inc.part, c, te.Emb, h, inc.sp, firstDirty, dirty, inc.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	st.sp = sp

	ru := &reuseCounters{}
	if err := st.provePasses(ctx, inc, nil, ru); err != nil {
		return nil, err
	}
	us.ReusedEntries, us.TotalEntries = ru.ReusedEntries, ru.TotalEntries
	us.ReusedLabels, us.TotalLabels = ru.ReusedLabels, ru.TotalLabels
	return st, nil
}

// touchedVertices returns the distinct endpoints of the batch.
func touchedVertices(edits []Edit) []graph.Vertex {
	seen := make(map[graph.Vertex]bool, 2*len(edits))
	out := make([]graph.Vertex, 0, 2*len(edits))
	for _, e := range edits {
		for _, v := range [2]graph.Vertex{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// artifactEqual reports whether two node artifacts carry identical
// property-independent content.
func artifactEqual(a, b *nodeArtifact) bool {
	if a.member != b.member || a.parentID != b.parentID ||
		a.input != b.input || a.bridgeReal != b.bridgeReal ||
		a.rootMember != b.rootMember {
		return false
	}
	return slices.Equal(a.lanes, b.lanes) && slices.Equal(a.treeChildren, b.treeChildren) &&
		slices.Equal(a.vInputs, b.vInputs) && slices.Equal(a.inIDs, b.inIDs) &&
		slices.Equal(a.outIDs, b.outIDs) && slices.Equal(a.mergedOutIDs, b.mergedOutIDs) &&
		slices.Equal(a.pathIDs, b.pathIDs) && slices.Equal(a.realBits, b.realBits)
}

// Snapshot returns the current generation's labelings, schemes and stats
// (keyed by property name) plus a clone of the current graph. The returned
// labelings and schemes are immutable for reading/verification; subsequent
// updates build new generations and never mutate them.
func (inc *Incremental) Snapshot() (g *graph.Graph, labs map[string]*Labeling, schemes map[string]*Scheme, stats map[string]*Stats) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	g = inc.cfg.G.Clone()
	labs = make(map[string]*Labeling, len(inc.labs))
	schemes = make(map[string]*Scheme, len(inc.schemes))
	stats = make(map[string]*Stats, len(inc.stats))
	for name := range inc.labs {
		labs[name] = inc.labs[name]
		schemes[name] = inc.schemes[name]
		cp := *inc.stats[name]
		stats[name] = &cp
	}
	return g, labs, schemes, stats
}

// Fallbacks returns how many committed updates fell back to a full
// re-prove since the engine was built.
func (inc *Incremental) Fallbacks() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.fallbacks
}
