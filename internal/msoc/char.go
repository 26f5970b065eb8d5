package msoc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/mso"
)

// op is the kind of a characteristic-tree node. The tree mirrors the
// formula skeleton exactly: connectives and quantifiers stay structural so
// that two tables of the same property can always be walked in lockstep;
// only atoms are folded, and a folded atom is still an opLeaf.
type op uint8

const (
	opLeaf op = iota + 1
	opNot
	opAnd
	opOr
	opImplies
	opIff
	opExists
	opForall
)

// qsort is the domain of a quantifier node.
type qsort uint8

const (
	qNone qsort = iota
	qVertex
	qEdge
	qVSet
	qESet
)

// leafKind distinguishes the atom leaves. lfBool leaves combine by OR
// across parts: true is an absolute fact (the part owning the binding
// decided it), false is merely "no information from this side", which the
// owning part may still override. lfAbsFalse is the absolute counterpart —
// a falsehood that holds in every completion (an internal vertex is never
// adjacent to an outside one, a monochromatic internal edge refutes a
// coloring forever) — and it dominates every merge the way bool-true does.
// The absolute constants are what let quantifiers and connectives
// constant-fold: a refuted branch collapses to a leaf instead of dragging
// its whole subtree through every future join. lfBoolAnd is the one
// AND-combining case, set equality, where every part must agree on its
// local restriction (its false side folds to lfAbsFalse). The three
// symbolic kinds reference quantifier *levels*, never boundary constants:
// lfEqSS is "the vertices bound at levels a and b are the same vertex",
// lfAdjSS is "the vertices bound at levels a and b are adjacent", and
// lfVec is "the vertex bound at level a is one of the boundary constants
// in vec". Keeping leaves constant-free is what makes tables sound under
// gluing that fuses several constants of one side: fusion only ever ORs
// vec bits, it never has to pick between per-constant subtrees.
type leafKind uint8

// lfVec vs lfVecC: an open vector (lfVec) is a set-membership projection —
// other parts may contribute further bits for constants this part has never
// seen, so an empty vector is only "no information". A closed vector
// (lfVecC) is the complete answer set of an owned object — the final
// neighborhood of an internal vertex, the endpoints of a local edge — so
// when re-mapping drains it, the leaf collapses to absolute false. That
// collapse is what lets Implies(adj(u,v),…) constraints of long-dead
// vertices fold away instead of encoding their assignments forever.
const (
	lfNone leafKind = iota
	lfBool
	lfBoolAnd
	lfEqSS
	lfAdjSS
	lfVec
	lfVecC
	lfAbsFalse
	lfExtS
)

// setEntry is one child of a set quantifier: the subtree for one local set
// restriction, plus (vertex sets only) the membership mask of the boundary
// constants, which gluing must keep consistent across parts.
type setEntry struct {
	mask uint64
	sub  *node
}

// node is one hash-consed characteristic-tree node. Within one Prop equal
// content is one pointer: the interner finds a node by its identity (its
// scalar fields and its children's pointers) and numbers each new node
// with a serial. id is the new node's 16-byte content digest, computed
// once from its scalar fields and its children's ids; table keys and the
// order of deduplicated children read it, so it is what makes them equal
// in every process and interning order.
type node struct {
	op   op
	srt  qsort
	leaf leafKind
	lvl  int    // qVertex quantifier: the level this node binds
	a, b int    // leaf level operands (lfEqSS/lfAdjSS; lfVec uses a)
	vec  uint64 // lfVec bit vector over boundary constants
	val  bool   // lfBool/lfBoolAnd truth

	sub     []*node    // connective children
	sym     *node      // qVertex: variable bound to an unnamed boundary constant
	others  []*node    // anonymous children (internal vertices, local edges)
	bot     *node      // the ⊥ child: variable bound outside this part
	entries []setEntry // set quantifier children

	id     string
	serial uint32 // interning order within the Prop
	next   *node  // the next node whose identity hash is the same
}

// computeID digests the node's content; children must be interned already.
func (n *node) computeID() string {
	h := sha256.New()
	var buf [8]byte
	w32 := func(x int) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(int32(x)))
		h.Write(buf[:4])
	}
	w64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	hdr := []byte{byte(n.op), byte(n.srt), byte(n.leaf), 0}
	if n.val {
		hdr[3] = 1
	}
	h.Write(hdr)
	w32(n.lvl)
	w32(n.a)
	w32(n.b)
	w64(n.vec)
	w32(len(n.sub))
	for _, s := range n.sub {
		h.Write([]byte(s.id))
	}
	if n.sym != nil {
		w32(1)
		h.Write([]byte(n.sym.id))
	} else {
		w32(0)
	}
	w32(len(n.others))
	for _, s := range n.others {
		h.Write([]byte(s.id))
	}
	if n.bot != nil {
		w32(1)
		h.Write([]byte(n.bot.id))
	} else {
		w32(0)
	}
	w32(len(n.entries))
	for _, e := range n.entries {
		w64(e.mask)
		h.Write([]byte(e.sub.id))
	}
	sum := h.Sum(nil)
	return string(sum[:16])
}

// identHash hashes the node's identity: its scalar fields and the serials
// of its children, which are interned already. Equal identities are equal
// content, since a child's serial stands for its whole subtree.
func (n *node) identHash() uint64 {
	h := uint64(n.op) | uint64(n.srt)<<8 | uint64(n.leaf)<<16
	if n.val {
		h |= 1 << 24
	}
	h = mix(h, uint64(uint32(n.lvl))|uint64(uint32(n.a))<<32)
	h = mix(h, uint64(uint32(n.b)))
	h = mix(h, n.vec)
	ref := func(c *node) uint64 {
		if c == nil {
			return 0
		}
		return uint64(c.serial) + 1
	}
	h = mix(h, ref(n.sym)|ref(n.bot)<<32)
	h = mix(h, uint64(len(n.sub))|uint64(len(n.others))<<20|uint64(len(n.entries))<<40)
	for _, c := range n.sub {
		h = mix(h, ref(c))
	}
	for _, c := range n.others {
		h = mix(h, ref(c))
	}
	for _, e := range n.entries {
		h = mix(mix(h, e.mask), ref(e.sub))
	}
	return h
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// sameIdentity reports whether two nodes have equal scalar fields and the
// same children, in order.
func (n *node) sameIdentity(o *node) bool {
	return n.op == o.op && n.srt == o.srt && n.leaf == o.leaf && n.val == o.val &&
		n.lvl == o.lvl && n.a == o.a && n.b == o.b && n.vec == o.vec &&
		n.sym == o.sym && n.bot == o.bot &&
		slices.Equal(n.sub, o.sub) && slices.Equal(n.others, o.others) &&
		slices.Equal(n.entries, o.entries)
}

// interner hash-conses nodes by identity. It is shared by all tables of
// one Prop and guarded by a mutex because Join runs concurrently under the
// parallel prover. A lookup hashes the candidate's identity and compares
// it with the nodes of that hash; only a node that is new is allocated and
// digested. Identity and digest agree (both cover the scalar fields and
// the children, whose pointers are as unique as their ids), so the ids,
// table keys and class ids are those a digest-keyed interner assigns.
type interner struct {
	mu     sync.Mutex
	byHash map[uint64]*node // identity hash -> its most recent node
	nodes  []*node          // by serial
	calls  int
}

func newInterner() *interner { return &interner{byHash: map[uint64]*node{}} }

func (in *interner) lookup(h uint64, t *node) *node {
	for n := in.byHash[h]; n != nil; n = n.next {
		if n.sameIdentity(t) {
			return n
		}
	}
	return nil
}

func (in *interner) intern(t node) *node {
	h := t.identHash()
	in.mu.Lock()
	in.calls++
	ex := in.lookup(h, &t)
	in.mu.Unlock()
	if ex != nil {
		return ex
	}
	// Digest outside the lock; a concurrent intern of the same node wins
	// the insert below and this copy is dropped.
	n := new(node)
	*n = t
	n.id = n.computeID()
	in.mu.Lock()
	defer in.mu.Unlock()
	if ex := in.lookup(h, n); ex != nil {
		return ex
	}
	n.serial = uint32(len(in.nodes))
	n.next = in.byHash[h]
	in.byHash[h] = n
	in.nodes = append(in.nodes, n)
	return n
}

// node returns the node with the given serial.
func (in *interner) node(serial uint32) *node {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodes[serial]
}

// Prop is a compiled MSO₂ property. It implements algebra.Property, so it
// flows through BaseClass/BridgeMerge/ParentMerge, Registry interning and
// the PLSC wire format exactly like a hand-written catalog algebra.
type Prop struct {
	f     mso.Formula
	name  string
	in    *interner
	nlvls int // number of vertex-quantifier levels in the formula

	bridgeOnce sync.Once
	bridgeTab  *table
	bridgeErr  error

	mu       sync.Mutex
	joins    map[string]*table
	accepts  map[string]bool
	ctxs     map[string]*composeCtx
	composes int

	// The constant leaves, pre-interned: they are built on nearly every
	// atom evaluation, so skip the hash on the hot path. bTrue and absF
	// are the two absolute constants; pointer equality against them is
	// what drives constant folding.
	bTrue, bFalse, baTrue, absF *node
}

var _ algebra.Property = (*Prop)(nil)

// Stats counts the work a compiled property has done since it was
// compiled.
type Stats struct {
	Composes    int // compose walks run: joins whose result was not yet known
	MemoEntries int // combine memo entries held, over every compose context
	InternCalls int // node constructions looked up in the interner
	NewNodes    int // distinct nodes interned
}

// Stats returns the property's compose and interning counters.
func (p *Prop) Stats() Stats {
	p.mu.Lock()
	st := Stats{Composes: p.composes}
	for _, ctx := range p.ctxs {
		st.MemoEntries += ctx.size()
	}
	p.mu.Unlock()
	p.in.mu.Lock()
	st.InternCalls, st.NewNodes = p.in.calls, len(p.in.nodes)
	p.in.mu.Unlock()
	return st
}

// Name implements algebra.Property; it is "mso:" + the canonical formula.
func (p *Prop) Name() string { return p.name }

// Formula returns the compiled formula (used by the model-checking oracle).
func (p *Prop) Formula() mso.Formula { return p.f }

func (p *Prop) mk(n node) *node { return p.in.intern(n) }

// initLeaves pre-interns the boolean leaf singletons.
func (p *Prop) initLeaves() {
	p.bTrue = p.mk(node{op: opLeaf, leaf: lfBool, val: true})
	p.bFalse = p.mk(node{op: opLeaf, leaf: lfBool})
	p.baTrue = p.mk(node{op: opLeaf, leaf: lfBoolAnd, val: true})
	p.absF = p.mk(node{op: opLeaf, leaf: lfAbsFalse})
}

func (p *Prop) nBool(v bool) *node {
	if v {
		return p.bTrue
	}
	return p.bFalse
}

// nAbs is the absolute constant of either polarity: a fact that holds in
// every completion of the part.
func (p *Prop) nAbs(v bool) *node {
	if v {
		return p.bTrue
	}
	return p.absF
}

func (p *Prop) nBoolAnd(v bool) *node {
	if v {
		return p.baTrue
	}
	// Local set restrictions that disagree can never be repaired by other
	// parts: AND-false is absolute.
	return p.absF
}

func (p *Prop) nEqSS(a, b int) *node {
	if a == b {
		return p.nBool(true)
	}
	if a > b {
		a, b = b, a
	}
	return p.mk(node{op: opLeaf, leaf: lfEqSS, a: a, b: b})
}

func (p *Prop) nAdjSS(a, b int) *node {
	if a == b {
		return p.nBool(false)
	}
	if a > b {
		a, b = b, a
	}
	return p.mk(node{op: opLeaf, leaf: lfAdjSS, a: a, b: b})
}

// nVec keeps empty vectors: an open vector with no bits still reads as
// false, but folding it to an anonymous false would lose the level
// reference — and with it the chance to decide the leaf absolutely when
// the referenced variable is instantiated at an internalized vertex. That
// decision is what lets Iff membership tests over dead vertices fold.
func (p *Prop) nVec(ref int, vec uint64) *node {
	return p.mk(node{op: opLeaf, leaf: lfVec, a: ref, vec: vec})
}

// nVecC is the closed-vector variant: the complete answer set of an owned
// object, so an empty vector refutes absolutely.
func (p *Prop) nVecC(ref int, vec uint64) *node {
	if vec == 0 {
		return p.absF
	}
	return p.mk(node{op: opLeaf, leaf: lfVecC, a: ref, vec: vec})
}

// nExtS is a deferred refutation against an outside object: adjacency or
// incidence of the constant bound at level ref with something beyond this
// part. While the constant lives it reads as a no-info false — another
// part may own a witnessing edge — but the moment the constant
// internalizes, its neighborhood and edge set are complete, so the leaf
// hardens into an absolute false. Without the hardening, Implies guards
// over ⊥ children never fold and dead vertices' assignments linger as one
// subtree variant each, multiplying set entries exponentially.
func (p *Prop) nExtS(ref int) *node {
	return p.mk(node{op: opLeaf, leaf: lfExtS, a: ref})
}

// nConn folds a connective only when absolute constants fully decide it.
// Partial simplification (And(true,x) → x) is deliberately forbidden: it
// would change the formula skeleton of one operand and desynchronise the
// lockstep walk Join relies on. Folding to a constant is safe because
// combine short-circuits on the absolute constants at any position.
func (p *Prop) nConn(o op, subs ...*node) *node {
	t, f := p.bTrue, p.absF
	switch o {
	case opNot:
		if subs[0] == t {
			return f
		}
		if subs[0] == f {
			return t
		}
	case opAnd:
		if subs[0] == f || subs[1] == f {
			return f
		}
		if subs[0] == t && subs[1] == t {
			return t
		}
	case opOr:
		if subs[0] == t || subs[1] == t {
			return t
		}
		if subs[0] == f && subs[1] == f {
			return f
		}
	case opImplies:
		if subs[0] == f || subs[1] == t {
			return t
		}
		if subs[0] == t && subs[1] == f {
			return f
		}
	case opIff:
		if (subs[0] == t || subs[0] == f) && (subs[1] == t || subs[1] == f) {
			return p.nAbs((subs[0] == t) == (subs[1] == t))
		}
	}
	return p.mk(node{op: o, sub: subs})
}

// foldQuant drops neutral anonymous children and reports an absorbing one:
// a concrete internal witness (∃) or refutation (∀) decides the quantifier
// for every completion. This collapse is what keeps tables from recording
// one subtree per doomed assignment — without it, set quantifiers grow an
// entry per subset of the whole graph.
func (p *Prop) foldQuant(o op, others []*node) (kept []*node, folded *node) {
	absorb, neutral := p.bTrue, p.absF
	if o == opForall {
		absorb, neutral = p.absF, p.bTrue
	}
	for _, n := range others {
		if n == absorb {
			return nil, absorb
		}
		if n == neutral {
			continue
		}
		kept = append(kept, n)
	}
	return kept, nil
}

func (p *Prop) nQuantV(o op, lvl int, sym *node, others []*node, bot *node) *node {
	kept, folded := p.foldQuant(o, others)
	if folded != nil {
		return folded
	}
	neutral := p.absF
	if o == opForall {
		neutral = p.bTrue
	}
	if sym == neutral && bot == neutral && len(kept) == 0 {
		return neutral
	}
	return p.mk(node{op: o, srt: qVertex, lvl: lvl, sym: sym, others: dedupNodes(kept), bot: bot})
}

func (p *Prop) nQuantE(o op, others []*node, bot *node) *node {
	kept, folded := p.foldQuant(o, others)
	if folded != nil {
		return folded
	}
	neutral := p.absF
	if o == opForall {
		neutral = p.bTrue
	}
	if bot == neutral && len(kept) == 0 {
		return neutral
	}
	return p.mk(node{op: o, srt: qEdge, others: dedupNodes(kept), bot: bot})
}

// nQuantSet folds like foldQuant but over set entries. Dropping a decided
// entry is sound: an absorbed entry decides the node outright (the other
// side always has a boundary-compatible partner entry, since each part
// enumerates every local restriction), and a neutral entry can never be
// the deciding one.
func (p *Prop) nQuantSet(o op, srt qsort, entries []setEntry) *node {
	absorb, neutral := p.bTrue, p.absF
	if o == opForall {
		absorb, neutral = p.absF, p.bTrue
	}
	kept := make([]setEntry, 0, len(entries))
	for _, e := range entries {
		if e.sub == absorb {
			return absorb
		}
		if e.sub == neutral {
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) == 0 {
		return neutral
	}
	return p.mk(node{op: o, srt: srt, entries: dedupEntries(kept)})
}

type nodesByID []*node

func (s nodesByID) Len() int           { return len(s) }
func (s nodesByID) Less(i, j int) bool { return s[i].id < s[j].id }
func (s nodesByID) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

type entriesByKey []setEntry

func (s entriesByKey) Len() int { return len(s) }
func (s entriesByKey) Less(i, j int) bool {
	if s[i].mask != s[j].mask {
		return s[i].mask < s[j].mask
	}
	return s[i].sub.id < s[j].sub.id
}
func (s entriesByKey) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// dedupNodes sorts anonymous children by digest and drops duplicates:
// quantifier children are a set, which is what keeps the table space
// finite as graphs grow.
func dedupNodes(ns []*node) []*node {
	if len(ns) <= 1 {
		return ns
	}
	sort.Sort(nodesByID(ns))
	out := ns[:1]
	for _, n := range ns[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

func dedupEntries(es []setEntry) []setEntry {
	if len(es) <= 1 {
		return es
	}
	sort.Sort(entriesByKey(es))
	out := es[:1]
	for _, e := range es[1:] {
		last := out[len(out)-1]
		if e.mask != last.mask || e.sub != last.sub {
			out = append(out, e)
		}
	}
	return out
}

// table is the compiled Table: the characteristic tree plus the adjacency
// matrix of the boundary constants accumulated so far (rows are bit
// vectors over constants). Key is content-derived (digests are pure
// SHA-256 of structure), so equal tables get equal keys in every process
// and interning order — the invariant the Registry's wire ids rely on.
type table struct {
	p    *Prop
	nb   int
	m    []uint64
	root *node
	key  string
}

var (
	_ algebra.Table      = (*table)(nil)
	_ algebra.Permutable = (*table)(nil)
)

func (p *Prop) newTable(nb int, m []uint64, root *node) *table {
	var sb strings.Builder
	fmt.Fprintf(&sb, "msoc:%d:", nb)
	for _, row := range m {
		fmt.Fprintf(&sb, "%x,", row)
	}
	fmt.Fprintf(&sb, ":%x", root.id)
	return &table{p: p, nb: nb, m: m, root: root, key: sb.String()}
}

// Key implements algebra.Table.
func (t *table) Key() string { return t.key }

// Permute implements algebra.Permutable: boundary constant i becomes
// perm[i] in the matrix and in every leaf vector and set mask. Quantifier
// levels are untouched — symbolic leaves reference variables, not
// constants, which is why permutation is a pure mask rewrite.
func (t *table) Permute(perm []int) algebra.Table {
	if len(perm) != t.nb {
		return t
	}
	m2 := make([]uint64, t.nb)
	for i := range t.m {
		for j := 0; j < t.nb; j++ {
			if t.m[i]>>uint(j)&1 == 1 {
				m2[perm[i]] |= 1 << uint(perm[j])
			}
		}
	}
	memo := map[*node]*node{}
	root2 := t.p.permNode(t.root, perm, memo)
	return t.p.newTable(t.nb, m2, root2)
}

func permBits(vec uint64, perm []int) uint64 {
	var out uint64
	for i, pi := range perm {
		if vec>>uint(i)&1 == 1 {
			out |= 1 << uint(pi)
		}
	}
	return out
}

func (p *Prop) permNode(n *node, perm []int, memo map[*node]*node) *node {
	if n == nil {
		return nil
	}
	if r, ok := memo[n]; ok {
		return r
	}
	var r *node
	switch n.op {
	case opLeaf:
		if n.leaf == lfVec {
			r = p.nVec(n.a, permBits(n.vec, perm))
		} else if n.leaf == lfVecC {
			r = p.nVecC(n.a, permBits(n.vec, perm))
		} else {
			// Boolean and level-referencing leaves carry no constant
			// indices; they are permutation-invariant.
			r = n
		}
	case opExists, opForall:
		switch n.srt {
		case qVertex:
			r = p.nQuantV(n.op, n.lvl, p.permNode(n.sym, perm, memo),
				permNodes(p, n.others, perm, memo), p.permNode(n.bot, perm, memo))
		case qEdge:
			r = p.nQuantE(n.op, permNodes(p, n.others, perm, memo), p.permNode(n.bot, perm, memo))
		default:
			entries := make([]setEntry, len(n.entries))
			for i, e := range n.entries {
				entries[i] = setEntry{mask: permBits(e.mask, perm), sub: p.permNode(e.sub, perm, memo)}
			}
			r = p.nQuantSet(n.op, n.srt, entries)
		}
	default:
		subs := make([]*node, len(n.sub))
		for i, s := range n.sub {
			subs[i] = p.permNode(s, perm, memo)
		}
		r = p.nConn(n.op, subs...)
	}
	memo[n] = r
	return r
}

func permNodes(p *Prop, ns []*node, perm []int, memo map[*node]*node) []*node {
	out := make([]*node, len(ns))
	for i, s := range ns {
		out[i] = p.permNode(s, perm, memo)
	}
	return out
}
