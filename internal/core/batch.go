package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/algebra"
	"repro/internal/par"
)

// DefaultMaxLanes is the lane budget a batch uses when BatchOptions.MaxLanes
// is 0 (certifies pathwidth ≤ DefaultMaxLanes−1, enough for every generator
// family in this repository).
const DefaultMaxLanes = 8

// BatchOptions configures a multi-property certification batch.
type BatchOptions struct {
	// MaxLanes is the per-scheme lane budget; 0 means DefaultMaxLanes.
	MaxLanes int
	// Parallelism bounds both the number of property passes that run at once
	// and the worker count inside each pass (class sweep, entry and label
	// assembly): 0 means GOMAXPROCS, 1 runs every pass inline on the calling
	// goroutine, one after another. Labelings are byte-identical for every
	// value (see Scheme.Workers).
	Parallelism int
}

// Batch certifies several properties of one configuration against a single
// shared StructuralProof: the property-independent pipeline (Sections 4–5)
// runs once, then each property runs only its algebra sweep (Section 6) on
// its own Scheme — one Registry per property, exactly as B independent
// Scheme.ProveWithCtx calls would use, so every labeling is byte-identical
// to the labeling an independent prove would emit.
type Batch struct {
	opts    BatchOptions
	names   []string
	schemes []*Scheme // aligned with names
}

// NewBatch builds a batch over the given properties, each with an empty
// memo. Property names must be non-empty and pairwise distinct (they key the
// result maps).
func NewBatch(props []algebra.Property, opts BatchOptions) (*Batch, error) {
	return NewBatchMemo(props, nil, opts)
}

// NewBatchMemo is NewBatch with each property's scheme evaluating through
// memos[i] (see NewSchemeMemo); memos is aligned with props, and a nil slice
// or a nil entry means an empty memo.
func NewBatchMemo(props []algebra.Property, memos []*Memo, opts BatchOptions) (*Batch, error) {
	if len(props) == 0 {
		return nil, errors.New("core: batch needs at least one property")
	}
	if opts.MaxLanes == 0 {
		opts.MaxLanes = DefaultMaxLanes
	}
	b := &Batch{opts: opts}
	for i, prop := range props {
		name := prop.Name()
		if name == "" {
			return nil, errors.New("core: batch property with empty name")
		}
		if slices.Contains(b.names, name) {
			return nil, fmt.Errorf("core: duplicate property %q in batch", name)
		}
		s := NewSchemeMemo(prop, opts.MaxLanes, memoAt(memos, i))
		s.Workers = opts.Parallelism
		b.schemes = append(b.schemes, s)
		b.names = append(b.names, name)
	}
	return b, nil
}

// Properties returns the property names in batch order.
func (b *Batch) Properties() []string {
	return append([]string(nil), b.names...)
}

// Scheme returns the property's scheme — its Registry is the class table
// the property's labels refer to, so verification of a batch labeling must
// go through this scheme. Returns nil for unknown names.
func (b *Batch) Scheme(name string) *Scheme {
	if i := slices.Index(b.names, name); i >= 0 {
		return b.schemes[i]
	}
	return nil
}

// BatchStats reports one batch run: the shared structure's quantities plus
// each property's per-pass stats.
type BatchStats struct {
	// Structure quantities, computed once and shared by every property.
	Lanes          int
	VirtualEdges   int
	Congestion     int
	HierarchyDepth int
	// PerProperty holds each certified property's stats, identical to what
	// an independent prove of that property would report.
	PerProperty map[string]*Stats
	// Failed records the properties the configuration does not satisfy
	// (their error wraps ErrPropertyFails). They have no labeling; the rest
	// of the batch proceeds — matching B independent proves, where a
	// failing property fails alone.
	Failed map[string]error
}

// ProveAllWithCtx labels every property of the batch against a structure
// from BuildStructureCtx; callers serving many certification requests per
// graph can reuse one StructuralProof across any number of batches.
// Per-property passes run at most BatchOptions.Parallelism at a time (see
// provePasses). Each pass polls the context on entry and inside its class
// sweep, so cancellation drains the passes promptly and returns ctx.Err().
func (b *Batch) ProveAllWithCtx(ctx context.Context, sp *StructuralProof) (map[string]*Labeling, *BatchStats, error) {
	if sp == nil {
		return nil, nil, errors.New("core: nil structural proof")
	}
	stats := &BatchStats{
		PerProperty: make(map[string]*Stats, len(b.names)),
		Failed:      map[string]error{},
	}
	if !sp.singleVertex {
		stats.Lanes = sp.Partition.K()
		stats.VirtualEdges = len(sp.Completion.Virtual)
		stats.Congestion = sp.congestion
		stats.HierarchyDepth = sp.depth
	}
	results, err := provePasses(ctx, sp, b.schemes, nil, b.opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	return b.collect(results, stats), stats, nil
}

// collect files each pass's result under its property name: a labeling and
// stats, or a failure in stats.Failed.
func (b *Batch) collect(results []passResult, stats *BatchStats) map[string]*Labeling {
	labelings := make(map[string]*Labeling, len(b.names))
	for i, name := range b.names {
		if r := results[i]; r.err != nil {
			stats.Failed[name] = r.err
		} else {
			labelings[name] = r.lab
			stats.PerProperty[name] = r.stats
		}
	}
	return labelings
}

// passResult is one property pass's output. err is nil or wraps
// ErrPropertyFails; every other failure aborts provePasses.
type passResult struct {
	lab   *Labeling
	stats *Stats
	enc   *encoder
	ru    reuseCounters
	err   error
}

// provePasses runs one property pass per scheme against sp — the loop
// behind both Batch.ProveAllWithCtx and every incremental generation. Each
// pass gets its own goroutine, at most par.Workers(parallelism) of them
// running at once (a pool that claims indices in chunks would put a
// handful of properties on one goroutine). Results are stored by index.
// prev, when non-nil, holds each scheme's previous-generation encoder and
// labeling for incremental reuse. A pass whose property does not hold
// reports it in its result; the first other error in scheme order is
// returned instead of the results.
func provePasses(ctx context.Context, sp *StructuralProof, schemes []*Scheme, prev []passResult, parallelism int) ([]passResult, error) {
	results := make([]passResult, len(schemes))
	sem := make(chan struct{}, par.Workers(parallelism))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var p passResult
			if prev != nil {
				p = prev[i]
			}
			r := &results[i]
			r.lab, r.stats, r.enc, r.err = s.proveWith(ctx, sp, p.enc, p.lab, &r.ru)
		}()
	}
	wg.Wait()
	for i, r := range results {
		switch {
		case r.err == nil || errors.Is(r.err, ErrPropertyFails):
		case errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded):
			return nil, r.err
		default:
			return nil, fmt.Errorf("core: property %s: %w", schemes[i].Prop.Name(), r.err)
		}
	}
	return results, nil
}
