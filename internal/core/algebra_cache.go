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
// folds the same (child, parent) class pair over and over). Caching them per
// scheme turns the per-node algebra of both the prover and the verifier into
// map hits, and — because cache hits return the *same* *algebra.Class
// instance — downstream registry interning and merge lookups become pointer
// hits too. The caches are shared by concurrent verifiers and batch proving
// workers under algMu.

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

// schemeCaches bundles the algebra memo tables of one property's scheme(s).
// All entries are pure functions of their keys (merge keys use canonical class pointers, which
// the canonCache itself keeps stable), so the struct can outlive any single
// Scheme and be shared across scheme generations of the same property.
type schemeCaches struct {
	// Memoized algebra evaluations: base classes by payload and merges by
	// operand identity. The underlying functions are pure, so the caches are
	// semantically transparent; they turn the per-node algebra of prover and
	// verifier into map hits whenever the same local shape recurs (on
	// bounded-pathwidth families almost always).
	algMu       sync.Mutex
	baseCache   map[baseKey]*algebra.Class
	pMergeCache map[mergePair]*algebra.Class
	bMergeCache map[bridgeKey]*algebra.Class
	canonCache  map[string]*algebra.Class
}

func newSchemeCaches() *schemeCaches { return &schemeCaches{} }

// canonicalLocked maps a freshly computed class to the scheme's canonical
// instance of its value (registering it if new). Merge results that are
// value-equal across different fold positions thereby collapse to one
// pointer, which is what lets the pointer-keyed merge caches converge to
// hits on long chains. Callers hold algMu.
func (s *Scheme) canonicalLocked(c *algebra.Class) *algebra.Class {
	if s.caches.canonCache == nil {
		s.caches.canonCache = map[string]*algebra.Class{}
	}
	key := c.Key()
	if prev, ok := s.caches.canonCache[key]; ok {
		return prev
	}
	s.caches.canonCache[key] = c
	return c
}

// cachedBase returns the memoized class for the key, computing it at most
// once per distinct key (concurrent racers defer to the first stored
// instance so pointers stay canonical).
func (s *Scheme) cachedBase(k baseKey, compute func() (*algebra.Class, error)) (*algebra.Class, error) {
	s.caches.algMu.Lock()
	if c, ok := s.caches.baseCache[k]; ok {
		s.caches.algMu.Unlock()
		return c, nil
	}
	s.caches.algMu.Unlock()
	c, err := compute()
	if err != nil {
		return nil, err
	}
	s.caches.algMu.Lock()
	defer s.caches.algMu.Unlock()
	if s.caches.baseCache == nil {
		s.caches.baseCache = map[baseKey]*algebra.Class{}
	}
	if prev, ok := s.caches.baseCache[k]; ok {
		return prev, nil
	}
	c = s.canonicalLocked(c)
	s.caches.baseCache[k] = c
	return c, nil
}

func (s *Scheme) baseV(lane, input int) (*algebra.Class, error) {
	return s.cachedBase(baseKey{kind: lanewidth.VNode, lane: lane, a: input},
		func() (*algebra.Class, error) {
			return algebra.BaseClass(s.Prop, vNodeBGraph(lane, input))
		})
}

func (s *Scheme) baseE(lane int, real bool, inputs []int) (*algebra.Class, error) {
	k := baseKey{kind: lanewidth.ENode, lane: lane, real: real}
	if len(inputs) == 2 {
		k.a, k.b = inputs[0], inputs[1]
	}
	return s.cachedBase(k, func() (*algebra.Class, error) {
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
	return s.cachedBase(baseKey{kind: lanewidth.PNode, extra: string(sb)},
		func() (*algebra.Class, error) {
			return algebra.BaseClass(s.Prop, pNodeBGraph(lanes, realBits, inputs))
		})
}

// parentMerge is algebra.ParentMerge memoized by operand identity.
func (s *Scheme) parentMerge(child, parent *algebra.Class) (*algebra.Class, error) {
	k := mergePair{child: child, parent: parent}
	s.caches.algMu.Lock()
	if c, ok := s.caches.pMergeCache[k]; ok {
		s.caches.algMu.Unlock()
		return c, nil
	}
	s.caches.algMu.Unlock()
	c, err := algebra.ParentMerge(s.Prop, child, parent)
	if err != nil {
		return nil, err
	}
	s.caches.algMu.Lock()
	defer s.caches.algMu.Unlock()
	if s.caches.pMergeCache == nil {
		s.caches.pMergeCache = map[mergePair]*algebra.Class{}
	}
	if prev, ok := s.caches.pMergeCache[k]; ok {
		return prev, nil
	}
	c = s.canonicalLocked(c)
	s.caches.pMergeCache[k] = c
	return c, nil
}

// bridgeMerge is algebra.BridgeMerge memoized by operand identity.
func (s *Scheme) bridgeMerge(left, right *algebra.Class, i, j, label int) (*algebra.Class, error) {
	k := bridgeKey{left: left, right: right, i: i, j: j, label: label}
	s.caches.algMu.Lock()
	if c, ok := s.caches.bMergeCache[k]; ok {
		s.caches.algMu.Unlock()
		return c, nil
	}
	s.caches.algMu.Unlock()
	c, err := algebra.BridgeMerge(s.Prop, left, right, i, j, label)
	if err != nil {
		return nil, err
	}
	s.caches.algMu.Lock()
	defer s.caches.algMu.Unlock()
	if s.caches.bMergeCache == nil {
		s.caches.bMergeCache = map[bridgeKey]*algebra.Class{}
	}
	if prev, ok := s.caches.bMergeCache[k]; ok {
		return prev, nil
	}
	c = s.canonicalLocked(c)
	s.caches.bMergeCache[k] = c
	return c, nil
}
