package algebra

import (
	"strconv"
	"testing"
)

type keyTable string

func (t keyTable) Key() string { return string(t) }

func keyClass(i int) *Class {
	return &Class{Lanes: []int{0}, Table: keyTable(strconv.Itoa(i))}
}

// collidingClasses returns the first three classes of the keyClass
// sequence sharing one hash, and the first class whose hash is 0.
func collidingClasses(t *testing.T) (triple []*Class, zero *Class) {
	t.Helper()
	byBase := map[int][]*Class{}
	for i := 0; triple == nil || zero == nil; i++ {
		if i > 1<<22 {
			t.Fatal("no collisions found")
		}
		c := keyClass(i)
		base := idBase(c.Key())
		if base == 0 && zero == nil {
			zero = c
		}
		byBase[base] = append(byBase[base], c)
		if len(byBase[base]) == 3 && triple == nil {
			triple = byBase[base]
		}
	}
	return triple, zero
}

// TestRegistryCollisionRanks pins the id layout the wire relies on: the
// low ClassHashBits bits are the content hash, colliding keys stack at
// rank<<ClassHashBits in key order after Canonicalize whatever the
// interning order, and no class gets id 0.
func TestRegistryCollisionRanks(t *testing.T) {
	triple, zero := collidingClasses(t)
	canonical := func(order []*Class) map[string]int {
		r := NewRegistry()
		for _, c := range order {
			r.Intern(c)
		}
		r.Canonicalize()
		ids := map[string]int{}
		for _, c := range order {
			id, ok := r.Lookup(c)
			if !ok || r.Class(id) != c {
				t.Fatalf("class %q does not resolve to itself", c.Key())
			}
			ids[c.Key()] = id
		}
		return ids
	}
	fwd := canonical([]*Class{triple[0], triple[1], triple[2], zero})
	rev := canonical([]*Class{zero, triple[2], triple[1], triple[0]})
	for key, id := range fwd {
		if rev[key] != id {
			t.Fatalf("class %q: id %d in one interning order, %d in the other", key, id, rev[key])
		}
		if id == 0 {
			t.Fatalf("class %q got id 0", key)
		}
		if id&hashMask != idBase(key) || id>>ClassHashBits > MaxClassRank {
			t.Fatalf("class %q: id %#x does not carry hash %#x at a valid rank", key, id, idBase(key))
		}
	}
	ranks := map[int]bool{}
	for _, c := range triple {
		ranks[fwd[c.Key()]>>ClassHashBits] = true
	}
	if len(ranks) != 3 || !ranks[0] || !ranks[1] || !ranks[2] {
		t.Fatalf("colliding classes hold ranks %v, want 0, 1 and 2", ranks)
	}
	if fwd[zero.Key()] != 1<<ClassHashBits {
		t.Fatalf("the hash-0 class got id %#x, want rank 1", fwd[zero.Key()])
	}
}
