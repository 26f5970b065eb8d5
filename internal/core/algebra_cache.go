package core

import (
	"strconv"
	"sync"

	"repro/internal/algebra"
	"repro/internal/lanewidth"
)

// This file memoizes the scheme's algebra evaluations. BaseClass, BridgeMerge
// and ParentMerge are pure functions of their operands, and on
// bounded-pathwidth graphs the same local shapes recur thousands of times
// (every E-node of a lane sees the same two-vertex payload; a T-node chain
// folds the same (child, parent) class pair over and over). Caching them in
// the property's Memo turns the per-node algebra of both the prover and the
// verifier into map hits, and — because cache hits return the *same*
// *algebra.Class instance — downstream registry interning and merge lookups
// become pointer hits too. The tables are shared by concurrent verifiers and
// proving workers under Memo.mu.

// baseKey identifies a V-/E-/P-node base payload. V: lane+a(input).
// E: lane+real+a,b (endpoint inputs). P: extra (lanes, real bits, inputs).
type baseKey struct {
	kind  lanewidth.Kind
	lane  int
	real  bool
	a, b  int
	extra string
}

// mergePair keys a Parent-merge by operand identity. Operand instances are
// themselves cache-shared, so honest folds hit on pointer equality.
type mergePair struct {
	child, parent *algebra.Class
}

// bridgeKey keys a Bridge-merge by operand identity, lanes and bridge label.
type bridgeKey struct {
	left, right *algebra.Class
	i, j, label int
}

// Memo holds the algebra memo tables of one property instance. Every entry
// is a pure function of its key (merge keys use canonical class pointers,
// which canonCache itself keeps stable), and for a fixed property the
// reachable class set does not depend on the graph, so one Memo serves every
// scheme of its property for as long as the property lives: each batch pass,
// each incremental generation, and each registry rebuild and verification of
// a decoded certificate. Class ids still come from each scheme's own
// Registry, so sharing a Memo never changes a byte of output. A Memo must
// only ever serve schemes of the one property instance that filled it (two
// compiled instances of one formula hash-cons their own nodes). It is safe
// for concurrent use.
type Memo struct {
	mu          sync.Mutex
	n           int // entries across the four tables
	baseCache   map[baseKey]*algebra.Class
	pMergeCache map[mergePair]*algebra.Class
	bMergeCache map[bridgeKey]*algebra.Class
	canonCache  map[string]*algebra.Class
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		baseCache:   map[baseKey]*algebra.Class{},
		pMergeCache: map[mergePair]*algebra.Class{},
		bMergeCache: map[bridgeKey]*algebra.Class{},
		canonCache:  map[string]*algebra.Class{},
	}
}

// memoAt returns memos[i], or a new empty memo when memos or the entry is
// nil.
func memoAt(memos []*Memo, i int) *Memo {
	if memos == nil || memos[i] == nil {
		return NewMemo()
	}
	return memos[i]
}

// Len returns the number of memoized entries, canonical classes included.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// canonicalLocked maps a freshly computed class to the memo's canonical
// instance of its value (registering it if new). Merge results that are
// value-equal across different fold positions thereby collapse to one
// pointer, which is what lets the pointer-keyed merge caches converge to
// hits on long chains. Callers hold mu.
func (m *Memo) canonicalLocked(c *algebra.Class) *algebra.Class {
	key := c.Key()
	if prev, ok := m.canonCache[key]; ok {
		return prev
	}
	m.canonCache[key] = c
	m.n++
	return c
}

// memoized returns table[k], computing it at most once per distinct key
// unless two callers race (the later one defers to the first stored
// instance so pointers stay canonical). Every computation counts as one
// miss of scheme s.
func memoized[K comparable](s *Scheme, table map[K]*algebra.Class, k K, compute func() (*algebra.Class, error)) (*algebra.Class, error) {
	m := s.memo
	m.mu.Lock()
	if c, ok := table[k]; ok {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()
	c, err := compute()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.misses++
	if prev, ok := table[k]; ok {
		return prev, nil
	}
	c = m.canonicalLocked(c)
	table[k] = c
	m.n++
	return c, nil
}

// memoMisses returns how many evaluations the scheme has computed rather
// than found in its memo.
func (s *Scheme) memoMisses() int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.misses
}

func (s *Scheme) baseV(lane, input int) (*algebra.Class, error) {
	return memoized(s, s.memo.baseCache, baseKey{kind: lanewidth.VNode, lane: lane, a: input},
		func() (*algebra.Class, error) {
			return algebra.BaseClass(s.Prop, vNodeBGraph(lane, input))
		})
}

func (s *Scheme) baseE(lane int, real bool, inputs []int) (*algebra.Class, error) {
	k := baseKey{kind: lanewidth.ENode, lane: lane, real: real}
	if len(inputs) == 2 {
		k.a, k.b = inputs[0], inputs[1]
	}
	return memoized(s, s.memo.baseCache, k, func() (*algebra.Class, error) {
		return algebra.BaseClass(s.Prop, eNodeBGraph(lane, real, inputs))
	})
}

func (s *Scheme) baseP(lanes []int, realBits []bool, inputs []int) (*algebra.Class, error) {
	var sb []byte
	for _, l := range lanes {
		sb = strconv.AppendInt(sb, int64(l), 10)
		sb = append(sb, ',')
	}
	sb = append(sb, '|')
	for _, b := range realBits {
		if b {
			sb = append(sb, '1')
		} else {
			sb = append(sb, '0')
		}
	}
	sb = append(sb, '|')
	for _, in := range inputs {
		sb = strconv.AppendInt(sb, int64(in), 10)
		sb = append(sb, ',')
	}
	return memoized(s, s.memo.baseCache, baseKey{kind: lanewidth.PNode, extra: string(sb)},
		func() (*algebra.Class, error) {
			return algebra.BaseClass(s.Prop, pNodeBGraph(lanes, realBits, inputs))
		})
}

// parentMerge is algebra.ParentMerge memoized by operand identity.
func (s *Scheme) parentMerge(child, parent *algebra.Class) (*algebra.Class, error) {
	return memoized(s, s.memo.pMergeCache, mergePair{child: child, parent: parent},
		func() (*algebra.Class, error) { return algebra.ParentMerge(s.Prop, child, parent) })
}

// bridgeMerge is algebra.BridgeMerge memoized by operand identity.
func (s *Scheme) bridgeMerge(left, right *algebra.Class, i, j, label int) (*algebra.Class, error) {
	return memoized(s, s.memo.bMergeCache, bridgeKey{left: left, right: right, i: i, j: j, label: label},
		func() (*algebra.Class, error) { return algebra.BridgeMerge(s.Prop, left, right, i, j, label) })
}
