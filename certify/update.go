package certify

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
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
func (op EditOp) String() string { return core.EditOp(op).String() }

// Edit is one edge mutation of an update batch.
type Edit struct {
	Op   EditOp
	U, V int
}

// UpdateStats reports one incremental update: whether the engine fell back
// to a full re-prove, how much of the construction transcript the batch
// dirtied, and how much of the previous generation's work survived by
// pointer instead of being recomputed.
type UpdateStats struct {
	// Fallback is true when the retained path decomposition could not cover
	// the edited graph and the update re-proved from scratch (new
	// decomposition included). Never silent: it is also counted by
	// Updater.Fallbacks.
	Fallback bool
	// DirtyOps counts the transcript operations past the point where the new
	// construction diverges from the previous one.
	DirtyOps int
	// Entry/label reuse, summed over all properties: reused counts
	// carried-over pointer-identical instances, totals count all.
	ReusedEntries, TotalEntries int
	ReusedLabels, TotalLabels   int
	// ReusedSources counts embedding BFS sources whose recorded ball the
	// batch did not touch; TotalSources is all distinct virtual-edge sources.
	ReusedSources, TotalSources int
	// PerProperty holds each property's post-update stats, identical to what
	// a fresh Prove of the mutated graph would report.
	PerProperty map[string]*Stats
}

// Updater is the incremental re-certification engine behind a Certifier: it
// owns a private copy of the graph, keeps every configured property
// certified across edge edits, and re-derives only the region each edit
// batch dirtied. Certificates drawn between updates are byte-identical to
// fresh Prove runs of the current graph, so the wire format and verifiers
// are oblivious to how a certificate was produced.
//
// All methods are safe for concurrent use; updates serialize internally.
type Updater struct {
	// mu serializes the facade's update entry points so UpdateCertified can
	// pair an edit commit with a draw of the resulting generation without a
	// concurrent update slipping between the two. Reads (Certificate, Graph)
	// need only the engine's own snapshot locking.
	mu     sync.Mutex
	c      *Certifier
	marked []int
	inc    *core.Incremental

	// catalogOf maps the engine's display names back to catalog names (the
	// public stats/certificate vocabulary).
	catalogOf map[string]string
	catalog   []string // batch order
}

// NewUpdater builds an incremental engine for the certifier's property set
// seeded with a private copy of g (later changes to g by the caller are not
// seen, and the engine never mutates the caller's graph). Every configured
// property must hold on the initial graph — the Updater's invariant is that
// the current generation certifies all of them — otherwise it fails with
// ErrPropertyFails. ErrTooWide, ErrDisconnected and cancellation follow
// Prove's contract; a single-vertex graph, on which no edit is valid, fails
// with ErrBadEdit.
func (c *Certifier) NewUpdater(ctx context.Context, g *Graph) (*Updater, error) {
	if len(c.props) == 0 {
		return nil, fmt.Errorf("%w: no properties configured (use WithProperty)", ErrBadConfig)
	}
	if g == nil || g.g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	private := &Graph{g: g.g.Clone(), marked: append([]int(nil), g.marked...)}
	cfg, err := private.config()
	if err != nil {
		return nil, err
	}
	props, memos := c.algebras()
	u := &Updater{
		c:         c,
		marked:    private.marked,
		catalogOf: make(map[string]string, len(c.props)),
	}
	for _, p := range c.props {
		u.catalog = append(u.catalog, p.Name())
		u.catalogOf[p.p.Name()] = p.Name()
	}
	inc, err := core.NewIncremental(ctx, cfg, props, memos, core.IncrementalOptions{
		MaxLanes:             c.maxLanes,
		UsePaperConstruction: c.paper,
		Parallelism:          c.parallelism,
	})
	if err != nil {
		return nil, translateProveErr(err)
	}
	u.inc = inc
	return u, nil
}

// Update applies the edits in order and re-certifies every property of the
// mutated graph, re-deriving only the dirty region. The batch is atomic: on
// any failure the graph and all certification state roll back to the
// previous generation, and the error is typed — ErrBadEdit for an invalid
// batch (bad endpoints, adding a present edge, removing an absent one,
// disconnecting the graph), ErrPropertyFails when some property no longer
// holds on the edited graph, ErrTooWide when the edited graph exceeds the
// lane budget, ctx.Err() on cancellation. An empty batch is a successful
// no-op.
func (u *Updater) Update(ctx context.Context, edits ...Edit) (*UpdateStats, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.update(ctx, edits)
}

// UpdateCertified is Update plus an atomic draw of the resulting
// generation's certificate and graph snapshot: no concurrent update through
// this Updater can commit between the edit batch and the draw, so the three
// results always describe the same generation (the service's PATCH handler
// relies on this to re-key its store consistently).
func (u *Updater) UpdateCertified(ctx context.Context, edits ...Edit) (*UpdateStats, *Certificate, *Graph, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	us, err := u.update(ctx, edits)
	if err != nil {
		return nil, nil, nil, err
	}
	crt, g, err := u.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	return us, crt, g, nil
}

func (u *Updater) update(ctx context.Context, edits []Edit) (*UpdateStats, error) {
	ce := make([]core.Edit, len(edits))
	for i, e := range edits {
		switch e.Op {
		case EditAdd, EditRemove:
		default:
			return nil, wrapErr(ErrBadEdit, fmt.Errorf("edit %d: unknown op EditOp(%d)", i, uint8(e.Op)))
		}
		ce[i] = core.Edit{Op: core.EditOp(e.Op), U: e.U, V: e.V}
	}
	us, err := u.inc.UpdateBatch(ctx, ce)
	if err != nil {
		return nil, translateProveErr(err)
	}
	out := &UpdateStats{
		Fallback:      us.Fallback,
		DirtyOps:      us.DirtyOps,
		ReusedEntries: us.ReusedEntries,
		TotalEntries:  us.TotalEntries,
		ReusedLabels:  us.ReusedLabels,
		TotalLabels:   us.TotalLabels,
		ReusedSources: us.ReusedSources,
		TotalSources:  us.TotalSources,
		PerProperty:   make(map[string]*Stats, len(us.PerProperty)),
	}
	for display, st := range us.PerProperty {
		out.PerProperty[u.catalogOf[display]] = statsFrom(st)
	}
	return out, nil
}

// Certificate returns the current generation's certificate: all configured
// properties, bound to the current graph's fingerprint, byte-identical to a
// fresh ProveBatch of Graph(). It is immutable and safe to verify, marshal,
// and store while further updates proceed.
func (u *Updater) Certificate() (*Certificate, error) {
	crt, _, err := u.snapshot()
	return crt, err
}

// snapshot draws the current generation's certificate and graph from one
// engine snapshot. The certificate keeps only the graph's size and
// fingerprint, never the graph itself, so the two share one clone.
func (u *Updater) snapshot() (*Certificate, *Graph, error) {
	g, labs, schemes, _ := u.inc.Snapshot()
	snap := &Graph{g: g, marked: append([]int(nil), u.marked...)}
	cfg, err := snap.config()
	if err != nil {
		return nil, nil, err
	}
	crt := &Certificate{
		maxLanes:    u.c.maxLanes,
		n:           g.N(),
		m:           g.M(),
		fingerprint: fingerprint(cfg),
		labels:      make(map[string]*storedLabels, len(u.catalog)),
		schemes:     make(map[string]*core.Scheme, len(u.catalog)),
	}
	for _, p := range u.c.props {
		name, display := p.Name(), p.p.Name()
		crt.labels[name] = storeLabels(g.EdgesSeq(), labs[display])
		crt.schemes[name] = schemes[display]
	}
	crt.props = append(crt.props, u.catalog...)
	return crt, snap, nil
}

// Graph returns a snapshot copy of the engine's current graph (topology and
// marks). The copy is the caller's: mutating it does not affect the engine.
func (u *Updater) Graph() *Graph {
	g, _, _, _ := u.inc.Snapshot()
	return &Graph{g: g, marked: append([]int(nil), u.marked...)}
}

// Properties returns the configured properties' catalog names in order.
func (u *Updater) Properties() []string {
	return append([]string(nil), u.catalog...)
}

// Fallbacks returns how many committed updates fell back to a full re-prove
// since the updater was built.
func (u *Updater) Fallbacks() int { return u.inc.Fallbacks() }
