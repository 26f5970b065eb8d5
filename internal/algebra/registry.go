package algebra

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Registry interns classes to compact integer ids. The finite class set C of
// Proposition 2.4 is part of the verification algorithm, not of the proof;
// labels therefore carry only the id, whose bit length is independent of n.
// The registry is shared between the prover and the verifier of a scheme
// (they run the same algorithm) and is safe for concurrent use by the
// distributed verifier.
//
// Ids are content hashes of the class's canonical key, not interning-order
// sequence numbers. Two provers that derive the same class — in any order,
// on any graph — agree on its id, which is what makes incremental
// re-proving effective: a local edit that adds or removes a few distinct
// classes leaves the ids of almost every other class untouched, so most
// entries and labels outside the dirty region keep their exact bytes. The
// exception is a class whose hash collides with an added or removed one:
// ranks within a hash follow key order, so such an edit can move a
// neighbour to another rank, and every entry carrying that neighbour's id
// gets new bytes.
//
// An id is a ClassHashBits-bit hash in its low bits (32-bit FNV-1a of the
// key, xor-folded) plus a collision rank above them: distinct keys sharing
// a hash stack at rank<<ClassHashBits, and Canonicalize fixes the rank
// order by key content so the resolution, too, is independent of interning
// order. No class gets id 0 (hash 0 starts at rank 1), so 0 never names a
// class. The wire writes the hash in exactly ClassHashBits bits and the
// rank as an Elias-gamma varint (one bit at rank 0), so an id costs
// ClassHashBits+1 bits unless its hash collides; the decoder rejects ranks
// above MaxClassRank, the largest rank whose id fits a non-negative int.
// With 2^16 hashes, collisions are expected once a registry holds a few
// hundred classes: K classes give about K²/2^17 colliding pairs.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]int
	byPtr map[*Class]int
	byID  map[int]*Class
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]int{}, byPtr: map[*Class]int{}, byID: map[int]*Class{}}
}

// ClassHashBits is the width of the content hash in the low bits of every
// class id; MaxClassRank is the largest collision rank an id may carry.
const (
	ClassHashBits = 16
	MaxClassRank  = 1<<(63-ClassHashBits) - 1
)

// hashMask selects the content-hash bits of an id.
const hashMask = 1<<ClassHashBits - 1

// idBase is the content hash an id is derived from: the low ClassHashBits
// bits of every id for a class with this key.
func idBase(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	sum := h.Sum32()
	return int((sum ^ sum>>ClassHashBits) & hashMask)
}

// rankedID is the id of the class at the given collision rank of a hash.
// Hash 0 starts at rank 1, so that no class gets id 0.
func rankedID(base, rank int) int {
	if base == 0 {
		rank++
	}
	return base + rank<<ClassHashBits
}

// Intern returns the id of the class, registering it if new. Instances seen
// before resolve by pointer without re-encoding their key, so schemes that
// share class instances (memoized algebra evaluations) intern in O(1).
func (r *Registry) Intern(c *Class) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.internLocked(c)
}

// InternAll interns every non-nil class of the batch under one lock
// acquisition and returns their ids aligned with the input (0 at nil slots).
// It is the bulk entry the prover uses after a class sweep: dense per-node
// class tables resolve to dense per-node id tables without paying a mutex
// round-trip per node.
func (r *Registry) InternAll(classes []*Class) []int {
	ids := make([]int, len(classes))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range classes {
		if c != nil {
			ids[i] = r.internLocked(c)
		}
	}
	return ids
}

func (r *Registry) internLocked(c *Class) int {
	if id, ok := r.byPtr[c]; ok {
		return id
	}
	key := c.Key()
	if id, ok := r.byKey[key]; ok {
		r.byPtr[c] = id
		return id
	}
	base, id := idBase(key), 0
	for rank := 0; ; rank++ {
		id = rankedID(base, rank)
		if _, taken := r.byID[id]; !taken {
			break
		}
	}
	r.byKey[key] = id
	r.byPtr[c] = id
	r.byID[id] = c
	return id
}

// RegistryFromTable builds a registry whose id assignment is fixed by the
// given table instead of by content hashing. It is the substrate of
// cross-process verification: a verifier that reconstructed the prover's
// class table from a decoded certificate (core.RebuildRegistry) seeds its
// registry with it, so the class ids claimed by the labels resolve exactly
// as they did in the proving process. Ids absent from the table resolve to
// nil, so a forged label referencing an undefined id is rejected. Two table
// entries sharing a class value are an error — an honest prover's registry
// never aliases.
func RegistryFromTable(classes map[int]*Class) (*Registry, error) {
	r := NewRegistry()
	//lint:certlint ignore mapiter table validation plus disjoint per-id inserts; only which alias pair an error names varies with order
	for id, c := range classes {
		if id < 0 {
			return nil, fmt.Errorf("algebra: negative class id %d in table", id)
		}
		if c == nil {
			return nil, fmt.Errorf("algebra: nil class for id %d in table", id)
		}
		key := c.Key()
		if dup, ok := r.byKey[key]; ok {
			return nil, fmt.Errorf("algebra: class ids %d and %d alias the same class", dup, id)
		}
		r.byKey[key] = id
		r.byPtr[c] = id
		r.byID[id] = c
	}
	return r, nil
}

// Canonicalize fixes the ids of hash-colliding classes into content order:
// within each set of distinct keys sharing a hash, ranks (the id bits above
// ClassHashBits) are reassigned by sorting the keys, replacing the
// first-interned-first ranks Intern handed out. The prover calls this once
// per pass, after the class sweep has interned every class the proof
// mentions and before any id is encoded into an entry; afterwards every id —
// collision or not — depends only on the set of distinct classes, never on
// traversal order, so a fresh prove and an incremental re-prove of the same
// graph encode identical ids. Non-colliding classes already hold their
// content hash and are untouched; colliding ones are expected in any
// registry of a few hundred classes or more. Canonicalize must
// not be called on a table-seeded registry; table registries belong to
// verifiers, which never call it.
func (r *Registry) Canonicalize() {
	r.mu.Lock()
	defer r.mu.Unlock()
	buckets := map[int][]string{}
	//lint:certlint ignore mapiter bucket collection only; every bucket is sorted before any rank is assigned
	for key, id := range r.byKey {
		base := id & hashMask
		buckets[base] = append(buckets[base], key)
	}
	//lint:certlint ignore mapiter buckets are disjoint hash classes; each rewrite touches only its own keys
	for base, keys := range buckets {
		if len(keys) < 2 {
			continue
		}
		sort.Strings(keys)
		// Reassign in two phases: old and new ids overlap within a bucket,
		// so writing while reading would clobber entries.
		classes := make([]*Class, len(keys))
		for i, key := range keys {
			classes[i] = r.byID[r.byKey[key]]
		}
		for _, key := range keys {
			delete(r.byID, r.byKey[key])
		}
		for rank, key := range keys {
			id := rankedID(base, rank)
			r.byKey[key] = id
			r.byID[id] = classes[rank]
		}
	}
	//lint:certlint ignore mapiter per-key rewrite from the already-canonical byKey table; entries are independent
	for p := range r.byPtr {
		r.byPtr[p] = r.byKey[p.Key()]
	}
}

// Lookup returns the id of the class if it is already registered.
func (r *Registry) Lookup(c *Class) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byPtr[c]; ok {
		return id, true
	}
	id, ok := r.byKey[c.Key()]
	if ok {
		r.byPtr[c] = id
	}
	return id, ok
}

// Class returns the class with the given id, or nil if unregistered.
func (r *Registry) Class(id int) *Class {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Size returns the number of distinct classes observed.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
