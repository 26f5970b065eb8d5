// Package serve implements certifyd, the HTTP/JSON certification service,
// on top of the certify facade: graphs are ingested from the graphio
// interchange formats, keyed by their configuration fingerprint in an
// in-process store, and certified by a bounded prover worker pool with
// per-request cancellation and queue-full backpressure. The package exports
// the handler and store so cmd/certifyd stays a thin flag-parsing main and
// the certbench service-mix workload can drive an in-process instance.
//
// The service realizes the paper's prove-once / verify-everywhere workload
// at service scale: many independent prove/verify requests against a few
// stored configurations amortize over one shared property-independent
// structure per graph (the same amortization EXPERIMENTS.md E9 measures for
// batches), and every certificate that crosses the wire is the strict PLSC
// container.
package serve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"repro/certify"
)

// ErrStoreFull reports that the store's graph capacity is exhausted; the
// service maps it to 507 Insufficient Storage. The bound exists because
// ingestion takes untrusted input: without it a client looping over
// distinct graphs grows the process without limit.
var ErrStoreFull = errors.New("serve: graph store is full")

// Store is the in-process certificate store: graph configurations and their
// proved certificates, keyed by the configuration fingerprint. One lock
// guards the map: every operation is a single map access, while each prove
// request spends tens of milliseconds in the prover, so the lock is never
// the bottleneck at any rate the worker pool can serve.
type Store struct {
	mu      sync.RWMutex
	entries map[uint64]*Entry
	// maxGraphs caps the stored graph count (0 = unlimited).
	maxGraphs int
}

// NewStore builds a store holding at most maxGraphs graphs (0 = unlimited).
func NewStore(maxGraphs int) *Store {
	return &Store{entries: map[uint64]*Entry{}, maxGraphs: maxGraphs}
}

// PutGraph stores the graph under its fingerprint and returns the entry.
// The put is idempotent: re-submitting the same configuration returns the
// existing entry with its cached structure and certificates intact. A new
// configuration beyond the capacity bound fails with ErrStoreFull.
func (s *Store) PutGraph(g *certify.Graph) (*Entry, error) {
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[fp]; ok {
		return e, nil
	}
	if s.maxGraphs > 0 && len(s.entries) >= s.maxGraphs {
		return nil, ErrStoreFull
	}
	e := &Entry{fp: fp, g: g, certs: map[string]*certify.Certificate{}}
	s.entries[fp] = e
	return e, nil
}

// Replace installs e under its own fingerprint and removes the entry stored
// under oldFp — the store-side commit of one PATCH generation: the edited
// graph takes over the old configuration's slot under its new key, so later
// requests find it by the fingerprint the PATCH response reported.
func (s *Store) Replace(oldFp uint64, e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, oldFp)
	s.entries[e.fp] = e
}

// Get returns the entry stored under the fingerprint.
func (s *Store) Get(fp uint64) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[fp]
	return e, ok
}

// Len counts the stored graphs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Entry is one stored configuration: the graph, its lazily built shared
// structure, and the certificates proved for it so far, keyed by property
// set. All methods are safe for concurrent use; the graph itself is
// immutable once stored.
type Entry struct {
	fp uint64
	g  *certify.Graph

	// The property-independent structure is built at most once per entry
	// and shared by every prove request for this graph — the service-side
	// amortization. stErr caches deterministic build failures (e.g.
	// ErrTooWide) so a hopeless graph fails fast; cancellation and timeout
	// are not cached and the next request retries.
	stMu       sync.Mutex
	stBuilding bool
	stDone     chan struct{}
	st         *certify.Structure
	stErr      error

	certMu sync.RWMutex
	certs  map[string]*certify.Certificate

	// The incremental updater behind PATCH /v1/graphs/{fp}/edges. It is
	// built on the first PATCH (or when the requested property set or lane
	// budget changes, which updKey detects) and then carried from generation
	// to generation as Replace re-keys the entry, so successive PATCHes pay
	// only the dirty-region re-prove.
	updMu  sync.Mutex
	upd    *certify.Updater
	updKey string
}

// Fingerprint returns the configuration fingerprint the entry is keyed by.
func (e *Entry) Fingerprint() uint64 { return e.fp }

// Graph returns the stored configuration.
func (e *Entry) Graph() *certify.Graph { return e.g }

// Structure returns the entry's shared property-independent structure,
// building it on first use. Concurrent callers during the build wait on the
// builder (or their own context, whichever ends first) and then share the
// result.
func (e *Entry) Structure(ctx context.Context, c *certify.Certifier) (*certify.Structure, error) {
	for {
		e.stMu.Lock()
		switch {
		case e.st != nil:
			st := e.st
			e.stMu.Unlock()
			return st, nil
		case e.stErr != nil:
			err := e.stErr
			e.stMu.Unlock()
			return nil, err
		case e.stBuilding:
			done := e.stDone
			e.stMu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-done:
			}
			continue
		}
		e.stBuilding = true
		done := make(chan struct{})
		e.stDone = done
		e.stMu.Unlock()

		st, err := c.BuildStructure(ctx, e.g)

		e.stMu.Lock()
		e.stBuilding = false
		if err == nil {
			e.st = st
		} else if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// Deterministic for this graph: every retry would fail identically.
			e.stErr = err
		}
		e.stMu.Unlock()
		close(done)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
}

// UpdateEdges applies an edit batch through the entry's persistent
// incremental updater, building the updater (a full initial prove) when
// none exists yet or when key — the requested property-set/lane-budget
// combination — differs from the one the cached updater was built for.
// On success it returns the updater (for the successor entry to carry), the
// update's stats, and the new generation's certificate and graph snapshot,
// drawn atomically with the edit commit. On failure the updater keeps its
// previous generation (the engine rolls back) and stays cached.
func (e *Entry) UpdateEdges(ctx context.Context, c *certify.Certifier, key string, edits []certify.Edit) (*certify.Updater, *certify.UpdateStats, *certify.Certificate, *certify.Graph, error) {
	e.updMu.Lock()
	defer e.updMu.Unlock()
	upd := e.upd
	if upd == nil || e.updKey != key {
		fresh, err := c.NewUpdater(ctx, e.g)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		upd, e.upd, e.updKey = fresh, fresh, key
	}
	us, crt, g, err := upd.UpdateCertified(ctx, edits...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return upd, us, crt, g, nil
}

// successor builds the entry that replaces e after a committed PATCH: the
// new generation's graph and certificate under the new fingerprint, carrying
// the updater forward.
func (e *Entry) successor(fp uint64, g *certify.Graph, upd *certify.Updater, updKey, certKey string, crt *certify.Certificate) *Entry {
	next := &Entry{fp: fp, g: g, certs: map[string]*certify.Certificate{certKey: crt}}
	next.upd = upd
	next.updKey = updKey
	return next
}

// PutCertificate stores a certificate under the property-set key.
func (e *Entry) PutCertificate(key string, crt *certify.Certificate) {
	e.certMu.Lock()
	defer e.certMu.Unlock()
	e.certs[key] = crt
}

// Certificate returns the certificate stored under the property-set key.
func (e *Entry) Certificate(key string) (*certify.Certificate, bool) {
	e.certMu.RLock()
	defer e.certMu.RUnlock()
	crt, ok := e.certs[key]
	return crt, ok
}

// CertificateKeys lists the stored property-set keys in sorted order.
func (e *Entry) CertificateKeys() []string {
	e.certMu.RLock()
	defer e.certMu.RUnlock()
	keys := make([]string, 0, len(e.certs))
	for k := range e.certs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PropsKey canonicalizes a property set into its storage key: sorted
// catalog names joined by commas, so the key is independent of request
// order.
func PropsKey(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}
