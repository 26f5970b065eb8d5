package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/algebra"
)

// DefaultMaxLanes is the lane budget a batch uses when BatchOptions.MaxLanes
// is 0 (certifies pathwidth ≤ DefaultMaxLanes−1, enough for every generator
// family in this repository).
const DefaultMaxLanes = 8

// BatchOptions configures a multi-property certification batch.
type BatchOptions struct {
	// MaxLanes is the per-scheme lane budget; 0 means DefaultMaxLanes.
	MaxLanes int
	// Workers bounds the number of concurrent per-property labeling passes;
	// 0 means GOMAXPROCS.
	Workers int
	// Parallelism bounds the worker count inside each property pass (class
	// sweep, entry and label assembly): 0 means GOMAXPROCS, 1 forces the
	// sequential paths. Labelings are byte-identical for every value (see
	// Scheme.Workers).
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
	schemes map[string]*Scheme
}

// NewBatch builds a batch over the given properties. Property names must be
// non-empty and pairwise distinct (they key the result maps).
func NewBatch(props []algebra.Property, opts BatchOptions) (*Batch, error) {
	if len(props) == 0 {
		return nil, errors.New("core: batch needs at least one property")
	}
	if opts.MaxLanes == 0 {
		opts.MaxLanes = DefaultMaxLanes
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	b := &Batch{opts: opts, schemes: make(map[string]*Scheme, len(props))}
	for _, prop := range props {
		name := prop.Name()
		if name == "" {
			return nil, errors.New("core: batch property with empty name")
		}
		if _, dup := b.schemes[name]; dup {
			return nil, fmt.Errorf("core: duplicate property %q in batch", name)
		}
		s := NewScheme(prop, opts.MaxLanes)
		s.Workers = opts.Parallelism
		b.schemes[name] = s
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
	return b.schemes[name]
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
// Per-property passes run on a worker pool bounded by BatchOptions.Workers.
// Workers poll the context before starting each property's pass and inside
// the class sweeps, so cancellation drains the pool promptly and returns
// ctx.Err().
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
		stats.HierarchyDepth = sp.Hierarchy.Depth()
	}
	labelings := make(map[string]*Labeling, len(b.names))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, b.opts.Workers)
	for _, name := range b.names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				mu.Lock()
				defer mu.Unlock()
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			l, st, err := b.schemes[name].ProveWithCtx(ctx, sp)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrPropertyFails):
				stats.Failed[name] = err
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				if firstErr == nil {
					firstErr = err
				}
			case err != nil:
				if firstErr == nil {
					firstErr = fmt.Errorf("core: batch property %s: %w", name, err)
				}
			default:
				labelings[name] = l
				stats.PerProperty[name] = st
			}
		}(name)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return labelings, stats, nil
}
