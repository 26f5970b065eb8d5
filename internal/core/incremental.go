package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
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

// reuseCounters counts one property pass's entry/label reuse; an update
// sums them over its passes into UpdateStats.
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

	// names, props and memos are aligned, in the engine's fixed property
	// order: every generation's scheme for names[i] evaluates props[i]
	// through memos[i].
	names []string
	props []algebra.Property
	memos []*Memo

	// engineState is the committed generation.
	engineState

	fallbacks int
}

// engineState is one generation of the engine: the structure pipeline's
// generation (which carries what the next update's stages reuse) and one
// labeling pass per property. Each generation gets a fresh Scheme per
// property (its own Registry, so class ids match a fresh prove) sharing the
// property's one Memo; encoders and labelings feed the next
// generation's reuse. A candidate state replaces the committed one only
// after every stage and property pass succeeded, so a failed update leaves
// the previous generation untouched.
type engineState struct {
	gen     *generation
	schemes map[string]*Scheme
	encs    map[string]*encoder
	labs    map[string]*Labeling
	stats   map[string]*Stats
}

// NewIncremental builds the engine and proves the initial generation of
// every property. It fails with ErrPropertyFails (wrapped, naming the
// property) when some property does not hold — the engine's contract is
// that every generation certifies all configured properties. memos, when
// non-nil, is aligned with props and gives each property the memo every
// generation's scheme evaluates through (nil entries, or a nil slice, mean
// empty memos; see NewSchemeMemo). The engine takes ownership of cfg.G.
func NewIncremental(ctx context.Context, cfg *cert.Config, props []algebra.Property, memos []*Memo, opts IncrementalOptions) (*Incremental, error) {
	if cfg == nil || cfg.G == nil {
		return nil, errors.New("core: nil configuration")
	}
	if len(props) == 0 {
		return nil, errors.New("core: incremental engine needs at least one property")
	}
	if opts.MaxLanes == 0 {
		opts.MaxLanes = DefaultMaxLanes
	}
	switch cfg.G.N() {
	case 0:
		return nil, fmt.Errorf("%w: empty graph", ErrDisconnected)
	case 1:
		// Every edit of a single vertex is invalid: an added edge would be
		// a self-loop, and there is no edge to remove.
		return nil, fmt.Errorf("%w: the incremental engine needs at least two vertices", ErrBadEdit)
	}
	inc := &Incremental{cfg: cfg, opts: opts, props: props, memos: make([]*Memo, len(props))}
	seen := map[string]bool{}
	//lint:certlint ignore ctxpoll name validation bounded by the configured property count; no proving work
	for i, p := range props {
		name := p.Name()
		if name == "" {
			return nil, errors.New("core: incremental property with empty name")
		}
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate property %q", name)
		}
		seen[name] = true
		inc.names = append(inc.names, name)
		inc.memos[i] = memoAt(memos, i)
	}

	st, err := inc.build(ctx, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	inc.engineState = *st
	return inc, nil
}

// build constructs a candidate generation: the structure pipeline — fresh
// when prev is nil, otherwise reusing prev's stages for the edits — then one
// labeling pass per property, with entry/label reuse against the committed
// generation exactly when the structure reused prev. us is nil on the
// initial build and receives the update's accounting otherwise.
func (inc *Incremental) build(ctx context.Context, prev *generation, edits []Edit, us *UpdateStats) (*engineState, error) {
	gen, err := buildGeneration(ctx, inc.cfg, nil, StructureOptions{
		UsePaperConstruction: inc.opts.UsePaperConstruction,
		Parallelism:          inc.opts.Parallelism,
	}, prev, edits)
	if err != nil {
		return nil, err
	}
	st := &engineState{gen: gen}
	if err := st.provePasses(ctx, inc, prev != nil, us); err != nil {
		return nil, err
	}
	if prev != nil {
		us.DirtyOps = gen.dirtyOps
		us.ReusedSources, us.TotalSources = gen.te.Reused(), gen.te.Sources()
	}
	return st, nil
}

// provePasses runs one labeling pass per property against st's structure,
// in the engine's fixed property order, through the loop Batch uses. Each
// pass gets a fresh Scheme over the property's memo (pure tables, so output
// is unchanged); reuse enables entry/label reuse against the committed
// generation and sums its counters into us, otherwise the passes run from
// scratch. A non-nil us receives each property's stats.
func (st *engineState) provePasses(ctx context.Context, inc *Incremental, reuse bool, us *UpdateStats) error {
	schemes := make([]*Scheme, len(inc.names))
	var prev []passResult
	if reuse {
		prev = make([]passResult, len(inc.names))
	}
	for i, name := range inc.names {
		schemes[i] = NewSchemeMemo(inc.props[i], inc.opts.MaxLanes, inc.memos[i])
		schemes[i].Workers = inc.opts.Parallelism
		if prev != nil {
			prev[i] = passResult{enc: inc.encs[name], lab: inc.labs[name]}
		}
	}
	results, err := provePasses(ctx, st.gen.sp, schemes, prev, inc.opts.Parallelism)
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
			when := "on the initial graph"
			if us != nil {
				when = "after edit"
			}
			return fmt.Errorf("core: property %s %s: %w", name, when, r.err)
		}
		st.schemes[name] = schemes[i]
		st.encs[name] = r.enc
		st.labs[name] = r.lab
		st.stats[name] = r.stats
		if reuse {
			us.ReusedEntries += r.ru.ReusedEntries
			us.TotalEntries += r.ru.TotalEntries
			us.ReusedLabels += r.ru.ReusedLabels
			us.TotalLabels += r.ru.TotalLabels
		}
	}
	if us != nil {
		us.PerProperty = make(map[string]*Stats, len(st.stats))
		for name, s := range st.stats {
			cp := *s
			us.PerProperty[name] = &cp
		}
	}
	return nil
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
	inc.engineState = *st
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
	inc.gen.sp.graphGen = g.Generation()
}

// rebuild constructs the next generation against the already-mutated graph,
// incrementally when the retained decomposition still covers it and from
// scratch otherwise (us.Fallback reports which).
func (inc *Incremental) rebuild(ctx context.Context, edits []Edit, us *UpdateStats) (*engineState, error) {
	g := inc.cfg.G
	if !g.Connected() {
		return nil, fmt.Errorf("%w: batch disconnects the graph", ErrBadEdit)
	}
	prev := inc.gen
	if inc.opts.UsePaperConstruction {
		prev = nil
	}
	for _, e := range edits {
		if prev != nil && e.Op == EditAdd && g.HasEdge(e.U, e.V) && !prev.covers(e.U, e.V) {
			prev = nil
		}
	}
	us.Fallback = prev == nil
	return inc.build(ctx, prev, edits, us)
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
