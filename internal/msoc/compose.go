package msoc

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/graph"
)

// Join implements algebra.Property. A real bridge edge belongs to neither
// operand, so it is treated as a third single-edge part: glue it onto A,
// then glue the result onto B, with two plain composes whose node spaces
// line up exactly with the one BridgeMerge describes. A virtual bridge is
// invisible to the property and composes plainly.
func (p *Prop) Join(a, b algebra.Table, spec algebra.JoinSpec) (algebra.Table, error) {
	ta, ok := a.(*table)
	if !ok {
		return nil, fmt.Errorf("msoc: bad left table %T", a)
	}
	tb, ok := b.(*table)
	if !ok {
		return nil, fmt.Errorf("msoc: bad right table %T", b)
	}
	if spec.Bridge != nil && spec.BridgeLabel == algebra.EdgeReal {
		return p.joinBridge(ta, tb, spec)
	}
	return p.compose(ta, tb, spec)
}

// bridgeTable is the characteristic tree of the two-vertex one-real-edge
// part that a Bridge-merge inserts, with both vertices boundary.
func (p *Prop) bridgeTable() (*table, error) {
	p.bridgeOnce.Do(func() {
		g := graph.New(2)
		g.MustAddEdge(0, 1)
		bg := &algebra.BGraph{
			G:      g,
			Lanes:  []int{0},
			In:     map[int]graph.Vertex{0: 0},
			Out:    map[int]graph.Vertex{0: 1},
			VLabel: []int{0, 0},
			ELabel: map[graph.Edge]int{graph.NewEdge(0, 1): algebra.EdgeReal},
		}
		t, err := p.Base(bg, []graph.Vertex{0, 1})
		if err != nil {
			p.bridgeErr = err
			return
		}
		p.bridgeTab = t.(*table)
	})
	return p.bridgeTab, p.bridgeErr
}

func (p *Prop) joinBridge(ta, tb *table, spec algebra.JoinSpec) (algebra.Table, error) {
	// BridgeMerge always emits identity maps over NA+NB disjoint nodes;
	// the two-step decomposition below relies on that shape.
	if spec.NM != spec.NA+spec.NB || len(spec.Res) != spec.NM {
		return nil, fmt.Errorf("msoc: unexpected bridge spec shape")
	}
	for i, m := range spec.MapA {
		if m != i {
			return nil, fmt.Errorf("msoc: unexpected bridge MapA")
		}
	}
	for j, m := range spec.MapB {
		if m != spec.NA+j {
			return nil, fmt.Errorf("msoc: unexpected bridge MapB")
		}
	}
	for r, m := range spec.Res {
		if m != r {
			return nil, fmt.Errorf("msoc: unexpected bridge Res")
		}
	}
	ai, bj := spec.Bridge[0], spec.Bridge[1]-spec.NA
	if ai < 0 || ai >= spec.NA || bj < 0 || bj >= spec.NB {
		return nil, fmt.Errorf("msoc: bridge endpoints out of range")
	}
	bt, err := p.bridgeTable()
	if err != nil {
		return nil, err
	}
	// Step 1: glue the bridge part's vertex 0 onto A's constant ai; its
	// vertex 1 becomes the fresh node NA. Everything stays boundary so the
	// second glue still sees the pending endpoint.
	na := ta.nb
	s1 := algebra.JoinSpec{
		NA:   na,
		NB:   2,
		MapA: identity(na, 0),
		MapB: []int{ai, na},
		NM:   na + 1,
		Res:  identity(na+1, 0),
	}
	t1, err := p.compose(ta, bt, s1)
	if err != nil {
		return nil, err
	}
	// Step 2: glue the pending endpoint (node NA of t1) onto B's constant
	// bj, producing exactly the NA+NB node space BridgeMerge describes.
	mapA2 := identity(na+1, 0)
	mapA2[na] = na + bj
	s2 := algebra.JoinSpec{
		NA:   na + 1,
		NB:   tb.nb,
		MapA: mapA2,
		MapB: identity(tb.nb, na),
		NM:   na + tb.nb,
		Res:  identity(na+tb.nb, 0),
	}
	return p.compose(t1, tb, s2)
}

func identity(n, offset int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + offset
	}
	return out
}

// envT is the instantiation environment of a compose walk: for each vertex
// quantifier level, either -1 (the variable is live, denoting a result
// constant) or the merged node the variable was internalized at. The
// environment is what lets one symbolic subtree per side serve every
// constant: instantiating a variable at a node with several preimages just
// ORs the preimages' vector bits — there is no per-constant subtree to
// choose, so same-side fusion cannot manufacture chimera witnesses.
//
// An environment is immutable, so it is held as a string of int8 levels.
type envT string

func newEnv(n int) envT { return envT(bytes.Repeat([]byte{0xff}, n)) } // every level -1

func envWith(env envT, lvl, m int) envT {
	out := []byte(env)
	out[lvl] = byte(int8(m))
	return envT(out)
}

// at returns level i's entry: -1 or a merged node.
func (e envT) at(i int) int8 { return int8(e[i]) }

// envRef is an environment of one compose context together with its id
// there, which is what the context's memo keys carry.
type envRef struct {
	lv envT
	id uint32
}

// comboKey is a combine memo key: the two subtrees' serials and the
// environment's id. Nodes are hash-consed within a Prop, so equal
// subtrees are one serial and the serials identify them exactly; the key
// holds no pointer, so the memo costs the collector nothing to scan.
type comboKey struct {
	x, y, env uint32
}

// composeCtx is the shared combine memo of one compose context (the spec
// maps plus the merged adjacency matrix): any two joins with the same
// context rewrite leaves identically, so (subtree pair, environment)
// triples — which recur heavily across class pairs and set-entry products
// thanks to hash-consing — combine once, property-wide. The context also
// numbers the environments its walks meet; id 0 is every level live.
type composeCtx struct {
	mu   sync.Mutex
	memo map[comboKey]uint32 // the combined node's serial
	envs map[string]envRef
}

func newComposeCtx() *composeCtx {
	return &composeCtx{memo: map[comboKey]uint32{}, envs: map[string]envRef{}}
}

// env interns an environment of the context; only one the context has not
// met before is copied.
func (ctx *composeCtx) env(lv []byte) envRef {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	e, ok := ctx.envs[string(lv)]
	if !ok {
		e = envRef{envT(lv), uint32(len(ctx.envs))}
		ctx.envs[string(e.lv)] = e
	}
	return e
}

// size returns the number of memo entries.
func (ctx *composeCtx) size() int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return len(ctx.memo)
}

// envWith is env with level lvl instantiated at merged node m.
func (ctx *composeCtx) envWith(env envRef, lvl, m int) envRef {
	var buf [16]byte
	lv := append(buf[:0], env.lv...)
	lv[lvl] = byte(int8(m))
	return ctx.env(lv)
}

// composer carries the per-compose state of the lockstep walk. The memo
// is shared across composes with the same context (spec + merged matrix),
// under ctx.mu: leaf rewriting depends only on that context and the
// environment, so a (subtree pair, environment) triple combines to the
// same node in every such compose.
type composer struct {
	p     *Prop
	spec  algebra.JoinSpec
	mNM   []uint64 // boundary adjacency over merged nodes
	resOf []int    // merged node -> result index, -1 if internalized
	ctx   *composeCtx
	err   error
}

func (cc *composer) fail(format string, args ...any) *node {
	if cc.err == nil {
		cc.err = fmt.Errorf("msoc: "+format, args...)
	}
	return cc.p.nBool(false)
}

func (p *Prop) compose(ta, tb *table, spec algebra.JoinSpec) (*table, error) {
	mk := fmt.Sprintf("%s|%s|%v|%v|%d|%v", ta.key, tb.key, spec.MapA, spec.MapB, spec.NM, spec.Res)
	p.mu.Lock()
	if r, ok := p.joins[mk]; ok {
		p.mu.Unlock()
		return r, nil
	}
	p.mu.Unlock()
	if spec.NA != ta.nb || spec.NB != tb.nb || len(spec.MapA) != spec.NA || len(spec.MapB) != spec.NB {
		return nil, fmt.Errorf("msoc: join spec does not match operand widths")
	}
	if spec.NM > maxBoundary || len(spec.Res) > maxBoundary {
		return nil, fmt.Errorf("msoc: merged boundary width %d exceeds limit %d", spec.NM, maxBoundary)
	}
	mNM := make([]uint64, spec.NM)
	for _, m := range spec.MapA {
		if m < 0 || m >= spec.NM {
			return nil, fmt.Errorf("msoc: MapA out of range")
		}
	}
	for _, m := range spec.MapB {
		if m < 0 || m >= spec.NM {
			return nil, fmt.Errorf("msoc: MapB out of range")
		}
	}
	for i := 0; i < ta.nb; i++ {
		for j := 0; j < ta.nb; j++ {
			if ta.m[i]>>uint(j)&1 == 1 {
				mNM[spec.MapA[i]] |= 1 << uint(spec.MapA[j])
			}
		}
	}
	for i := 0; i < tb.nb; i++ {
		for j := 0; j < tb.nb; j++ {
			if tb.m[i]>>uint(j)&1 == 1 {
				mNM[spec.MapB[i]] |= 1 << uint(spec.MapB[j])
			}
		}
	}
	resOf := make([]int, spec.NM)
	for i := range resOf {
		resOf[i] = -1
	}
	for r, m := range spec.Res {
		if m < 0 || m >= spec.NM {
			return nil, fmt.Errorf("msoc: Res out of range")
		}
		if resOf[m] >= 0 {
			return nil, fmt.Errorf("msoc: duplicate Res node %d", m)
		}
		resOf[m] = r
	}
	ctxKey := fmt.Sprintf("%v|%v|%d|%v|%x", spec.MapA, spec.MapB, spec.NM, spec.Res, mNM)
	p.mu.Lock()
	ctx, ok := p.ctxs[ctxKey]
	if !ok {
		ctx = newComposeCtx()
		p.ctxs[ctxKey] = ctx
	}
	p.composes++
	p.mu.Unlock()
	cc := &composer{p: p, spec: spec, mNM: mNM, resOf: resOf, ctx: ctx}
	root := cc.combine(ta.root, tb.root, ctx.env([]byte(newEnv(p.nlvls))))
	if cc.err != nil {
		return nil, cc.err
	}
	resM := make([]uint64, len(spec.Res))
	for r1, m1 := range spec.Res {
		for r2, m2 := range spec.Res {
			if mNM[m1]>>uint(m2)&1 == 1 {
				resM[r1] |= 1 << uint(r2)
			}
		}
	}
	t := p.newTable(len(spec.Res), resM, root)
	p.mu.Lock()
	p.joins[mk] = t
	p.mu.Unlock()
	return t, nil
}

func (cc *composer) combine(x, y *node, env envRef) *node {
	if cc.err != nil {
		return cc.p.nBool(false)
	}
	if x.op != y.op || x.srt != y.srt {
		// Constant folding can collapse one side's node at this position to
		// an absolute constant; it holds in every completion of that side's
		// part, which includes every completion of the glued graph.
		if x == cc.p.bTrue || x == cc.p.absF {
			return x
		}
		if y == cc.p.bTrue || y == cc.p.absF {
			return y
		}
		return cc.fail("misaligned tables (%d/%d vs %d/%d)", x.op, x.srt, y.op, y.srt)
	}
	key := comboKey{x.serial, y.serial, env.id}
	cc.ctx.mu.Lock()
	r0, hit := cc.ctx.memo[key]
	cc.ctx.mu.Unlock()
	if hit {
		return cc.p.in.node(r0)
	}
	var r *node
	switch x.op {
	case opLeaf:
		r = cc.mergeLeaves(cc.rewrite(x, cc.spec.MapA, env.lv), cc.rewrite(y, cc.spec.MapB, env.lv))
	case opExists, opForall:
		switch x.srt {
		case qVertex:
			if x.lvl != y.lvl {
				return cc.fail("misaligned quantifier levels %d vs %d", x.lvl, y.lvl)
			}
			// One symbolic child covers every result constant — including
			// constants only one side knows, whose other-side vector bits
			// are simply absent.
			sym := cc.combine(x.sym, y.sym, env)
			var others []*node
			for _, u := range x.others {
				others = append(others, cc.combine(u, y.bot, env))
			}
			for _, u := range y.others {
				others = append(others, cc.combine(x.bot, u, env))
			}
			// An internalized node becomes an anonymous vertex: instantiate
			// the symbolic children at it via the environment.
			for m := 0; m < cc.spec.NM; m++ {
				if cc.resOf[m] < 0 {
					others = append(others, cc.combine(x.sym, y.sym, cc.ctx.envWith(env, x.lvl, m)))
				}
			}
			bot := cc.combine(x.bot, y.bot, env)
			r = cc.p.nQuantV(x.op, x.lvl, sym, others, bot)
		case qEdge:
			others := make([]*node, 0, len(x.others)+len(y.others))
			for _, u := range x.others {
				others = append(others, cc.combine(u, y.bot, env))
			}
			for _, u := range y.others {
				others = append(others, cc.combine(x.bot, u, env))
			}
			bot := cc.combine(x.bot, y.bot, env)
			r = cc.p.nQuantE(x.op, others, bot)
		case qVSet:
			r = cc.combineVSet(x, y, env)
		case qESet:
			entries := make([]setEntry, 0, len(x.entries)*len(y.entries))
			for _, ea := range x.entries {
				for _, eb := range y.entries {
					entries = append(entries, setEntry{sub: cc.combine(ea.sub, eb.sub, env)})
				}
			}
			r = cc.p.nQuantSet(x.op, qESet, entries)
		default:
			r = cc.fail("quantifier node without sort")
		}
	default:
		subs := make([]*node, len(x.sub))
		for i := range x.sub {
			subs[i] = cc.combine(x.sub[i], y.sub[i], env)
		}
		r = cc.p.nConn(x.op, subs...)
	}
	if cc.err == nil {
		cc.ctx.mu.Lock()
		cc.ctx.memo[key] = r.serial
		cc.ctx.mu.Unlock()
	}
	return r
}

// combineVSet pairs vertex-set entries whose boundary memberships agree on
// every merged node: gluing identifies boundary vertices, so a vertex set
// must make one choice per merged vertex. Entries that disagree with
// themselves (two fused constants of one side, different bits) are
// unrealizable and drop out.
func (cc *composer) combineVSet(x, y *node, env envRef) *node {
	profA, okA := cc.profiles(x.entries, cc.spec.MapA)
	profB, okB := cc.profiles(y.entries, cc.spec.MapB)
	var entries []setEntry
	for ia, ea := range x.entries {
		if !okA[ia] {
			continue
		}
		for ib, eb := range y.entries {
			if !okB[ib] {
				continue
			}
			compatible := true
			for m := 0; m < cc.spec.NM; m++ {
				a, b := profA[ia][m], profB[ib][m]
				if a >= 0 && b >= 0 && a != b {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			var mask uint64
			for ri, m := range cc.spec.Res {
				bit := profA[ia][m]
				if bit < 0 {
					bit = profB[ib][m]
				}
				if bit < 0 {
					return cc.fail("result node %d has no boundary preimage", m)
				}
				if bit == 1 {
					mask |= 1 << uint(ri)
				}
			}
			entries = append(entries, setEntry{mask: mask, sub: cc.combine(ea.sub, eb.sub, env)})
		}
	}
	return cc.p.nQuantSet(x.op, qVSet, entries)
}

// profiles maps each entry's constant-membership mask through cmap to a
// per-merged-node bit (-1 where the side has no constant); ok is false for
// self-inconsistent entries.
func (cc *composer) profiles(entries []setEntry, cmap []int) ([][]int8, []bool) {
	prof := make([][]int8, len(entries))
	ok := make([]bool, len(entries))
	for i, e := range entries {
		bits := make([]int8, cc.spec.NM)
		for m := range bits {
			bits[m] = -1
		}
		good := true
		for c, m := range cmap {
			bit := int8(e.mask >> uint(c) & 1)
			if bits[m] >= 0 && bits[m] != bit {
				good = false
				break
			}
			bits[m] = bit
		}
		prof[i], ok[i] = bits, good
	}
	return prof, ok
}

// leafVal is a leaf after re-mapping one side's vectors through the spec
// and resolving environment-instantiated variables.
type leafVal struct {
	kind leafKind
	a, b int
	vec  uint64
	val  bool
}

// lfDec marks a leaf decided by instantiating a variable at a vertex this
// very compose internalizes. It exists only transiently in leafVal, never
// in a tree: once the two sides' contributions are merged, no future part
// contains the vertex, so mergeLeaves promotes the OR to an absolute
// constant. Without the promotion a false here would linger as a no-info
// leaf, and the subtrees recording dead vertices' set memberships would
// never fold away — one surviving variant per internalized vertex
// multiplies into exponentially many set entries.
const lfDec leafKind = 100

// rewrite resolves a leaf under the compose: vector bits move to result
// indices (bits at internalized nodes drop — a live variable can only
// denote a surviving constant), and variables the environment pins to an
// internalized node are decided now, ORing over every preimage of that
// node on this side. That OR is the whole of same-side fusion handling.
func (cc *composer) rewrite(n *node, cmap []int, env envT) leafVal {
	switch n.leaf {
	case lfBool, lfBoolAnd, lfAbsFalse:
		return leafVal{kind: n.leaf, val: n.val}
	case lfEqSS:
		ea, eb := env.at(n.a), env.at(n.b)
		switch {
		case ea < 0 && eb < 0:
			return leafVal{kind: lfEqSS, a: n.a, b: n.b}
		case ea >= 0 && eb >= 0:
			// Identity of two internalized vertices is decided for good;
			// both sides compute the same answer from the shared nodes.
			if ea == eb {
				return leafVal{kind: lfBool, val: true}
			}
			return leafVal{kind: lfAbsFalse}
		default:
			// One variable is an internalized vertex, the other still a
			// surviving constant: never the same vertex, in any completion.
			return leafVal{kind: lfAbsFalse}
		}
	case lfAdjSS:
		ea, eb := env.at(n.a), env.at(n.b)
		switch {
		case ea < 0 && eb < 0:
			return leafVal{kind: lfAdjSS, a: n.a, b: n.b}
		case ea >= 0 && eb >= 0:
			// Both vertices internalized: their adjacency is frozen in the
			// merged matrix (an internal vertex gains no further edges).
			if ea != eb && cc.mNM[ea]>>uint(eb)&1 == 1 {
				return leafVal{kind: lfBool, val: true}
			}
			return leafVal{kind: lfAbsFalse}
		case ea >= 0:
			// One vertex internalized: its matrix row is its final
			// neighborhood, so the vector is closed.
			return cc.vecValC(n.b, cc.rowVec(int(ea)))
		default:
			return cc.vecValC(n.a, cc.rowVec(int(eb)))
		}
	case lfVec, lfVecC:
		ev := env.at(n.a)
		var nv uint64
		val := false
		for c, m := range cmap {
			if n.vec>>uint(c)&1 == 0 {
				continue
			}
			if ev >= 0 {
				if int(ev) == m {
					val = true
				}
			} else if r := cc.resOf[m]; r >= 0 {
				nv |= 1 << uint(r)
			}
		}
		if ev >= 0 {
			return leafVal{kind: lfDec, val: val}
		}
		if n.leaf == lfVecC {
			return cc.vecValC(n.a, nv)
		}
		return cc.vecVal(n.a, nv)
	case lfExtS:
		if env.at(n.a) >= 0 {
			// The constant internalized: nothing outside is adjacent or
			// incident to it, in any completion. Decided, like a resolved
			// vector bit, so the merge promotes it to an absolute false.
			return leafVal{kind: lfDec}
		}
		return leafVal{kind: lfExtS, a: n.a}
	default:
		cc.fail("unknown leaf kind %d", n.leaf)
		return leafVal{kind: lfBool}
	}
}

// rowVec is the merged matrix row of an internalized node, restricted to
// result constants: the final neighborhood it exposes to live variables.
func (cc *composer) rowVec(m int) uint64 {
	var vec uint64
	for ri, rm := range cc.spec.Res {
		if cc.mNM[m]>>uint(rm)&1 == 1 {
			vec |= 1 << uint(ri)
		}
	}
	return vec
}

// vecVal keeps empty open vectors, mirroring nVec: the level reference
// must survive so a later compose can still decide the leaf.
func (cc *composer) vecVal(ref int, vec uint64) leafVal {
	return leafVal{kind: lfVec, a: ref, vec: vec}
}

// vecValC is the closed-vector variant: the object's answer set can only
// shrink as constants internalize, so draining it refutes absolutely.
func (cc *composer) vecValC(ref int, vec uint64) leafVal {
	if vec == 0 {
		return leafVal{kind: lfAbsFalse}
	}
	return leafVal{kind: lfVecC, a: ref, vec: vec}
}

// mergeLeaves combines the two sides' rewritten leaves: AND for set
// equality, OR for everything else (true dominates, false is neutral, and
// matching symbolic leaves coincide or — for vectors — union their bits).
func (cc *composer) mergeLeaves(la, lb leafVal) *node {
	if la.kind == lfAbsFalse || lb.kind == lfAbsFalse {
		// An absolute false dominates any merge. An absolute true on the
		// other side would be a contradiction about the same final graph.
		if (la.kind == lfBool && la.val) || (lb.kind == lfBool && lb.val) ||
			(la.kind == lfDec && la.val) || (lb.kind == lfDec && lb.val) {
			return cc.fail("contradictory absolute leaves")
		}
		return cc.p.absF
	}
	if la.kind == lfDec || lb.kind == lfDec {
		// Decided by this merge's internalization: the OR of the two
		// contributions is final, so promote it to an absolute constant.
		other := lb
		if lb.kind == lfDec {
			other = la
		}
		if other.kind != lfDec && other.kind != lfBool {
			return cc.fail("decided leaf paired with %d", other.kind)
		}
		return cc.p.nAbs(la.val || lb.val)
	}
	if la.kind == lfBoolAnd || lb.kind == lfBoolAnd {
		if la.kind != lb.kind {
			return cc.fail("set-equality leaf paired with %d", lb.kind)
		}
		return cc.p.nBoolAnd(la.val && lb.val)
	}
	if la.kind == lfBool && la.val {
		return cc.p.nBool(true)
	}
	if lb.kind == lfBool && lb.val {
		return cc.p.nBool(true)
	}
	if la.kind == lfBool {
		return cc.leafNode(lb)
	}
	if lb.kind == lfBool {
		return cc.leafNode(la)
	}
	if la.kind == lfExtS && lb.kind == lfVecC {
		// Our outside object is internal to the other side, whose closed
		// vector subsumes the deferred refutation.
		return cc.leafNode(lb)
	}
	if lb.kind == lfExtS && la.kind == lfVecC {
		return cc.leafNode(la)
	}
	if la.kind != lb.kind {
		return cc.fail("mismatched symbolic leaves %d vs %d", la.kind, lb.kind)
	}
	switch la.kind {
	case lfEqSS, lfAdjSS:
		if la.a != lb.a || la.b != lb.b {
			return cc.fail("misaligned symbolic leaf levels")
		}
		return cc.leafNode(la)
	case lfVec:
		if la.a != lb.a {
			return cc.fail("misaligned vector leaf references")
		}
		return cc.p.nVec(la.a, la.vec|lb.vec)
	case lfVecC:
		// Closed vectors meet only when both sides resolved the same
		// symbolic adjacency against the shared merged matrix, so they
		// must coincide exactly; an owned object's vector always faces a
		// no-info false instead, handled above.
		if la.a != lb.a || la.vec != lb.vec {
			return cc.fail("diverging closed vectors at one position")
		}
		return cc.p.nVecC(la.a, la.vec)
	case lfExtS:
		if la.a != lb.a {
			return cc.fail("misaligned outside-object leaf levels")
		}
		return cc.p.nExtS(la.a)
	default:
		return cc.fail("unexpected leaf kind %d", la.kind)
	}
}

func (cc *composer) leafNode(lv leafVal) *node {
	switch lv.kind {
	case lfBool:
		return cc.p.nBool(lv.val)
	case lfBoolAnd:
		return cc.p.nBoolAnd(lv.val)
	case lfAbsFalse:
		return cc.p.absF
	case lfEqSS:
		return cc.p.nEqSS(lv.a, lv.b)
	case lfAdjSS:
		return cc.p.nAdjSS(lv.a, lv.b)
	case lfVecC:
		return cc.p.nVecC(lv.a, lv.vec)
	case lfExtS:
		return cc.p.nExtS(lv.a)
	default:
		return cc.p.nVec(lv.a, lv.vec)
	}
}

// Accept implements algebra.Property: evaluate the root tree against the
// final boundary adjacency. The remaining boundary vertices are ordinary
// distinct vertices, so a symbolic child is enumerated once per constant
// (the environment supplies the binding) and ⊥ children are dropped —
// nothing is outside the complete graph.
func (p *Prop) Accept(t algebra.Table) (bool, error) {
	tb, ok := t.(*table)
	if !ok {
		return false, fmt.Errorf("msoc: bad table %T", t)
	}
	p.mu.Lock()
	if v, ok := p.accepts[tb.key]; ok {
		p.mu.Unlock()
		return v, nil
	}
	p.mu.Unlock()
	type evalKey struct {
		n   *node
		env envT
	}
	memo := map[evalKey]bool{}
	var ev func(n *node, env envT) bool
	ev = func(n *node, env envT) bool {
		key := evalKey{n, env}
		if v, ok := memo[key]; ok {
			return v
		}
		var v bool
		switch n.op {
		case opLeaf:
			switch n.leaf {
			case lfBool, lfBoolAnd, lfAbsFalse:
				v = n.val
			case lfEqSS:
				v = env.at(n.a) >= 0 && env.at(n.a) == env.at(n.b)
			case lfAdjSS:
				ca, cb := env.at(n.a), env.at(n.b)
				v = ca >= 0 && cb >= 0 && ca != cb && tb.m[ca]>>uint(cb)&1 == 1
			case lfExtS:
				// Nothing is outside the complete graph.
				v = false
			default:
				v = env.at(n.a) >= 0 && n.vec>>uint(env.at(n.a))&1 == 1
			}
		case opNot:
			v = !ev(n.sub[0], env)
		case opAnd:
			v = ev(n.sub[0], env) && ev(n.sub[1], env)
		case opOr:
			v = ev(n.sub[0], env) || ev(n.sub[1], env)
		case opImplies:
			v = !ev(n.sub[0], env) || ev(n.sub[1], env)
		case opIff:
			v = ev(n.sub[0], env) == ev(n.sub[1], env)
		case opExists, opForall:
			want := n.op == opExists
			v = !want
			switch n.srt {
			case qVertex:
				for c := 0; c < tb.nb && v != want; c++ {
					if ev(n.sym, envWith(env, n.lvl, c)) == want {
						v = want
					}
				}
				for _, k := range n.others {
					if v == want {
						break
					}
					if ev(k, env) == want {
						v = want
					}
				}
			case qEdge:
				for _, k := range n.others {
					if v == want {
						break
					}
					if ev(k, env) == want {
						v = want
					}
				}
			default:
				for _, e := range n.entries {
					if v == want {
						break
					}
					if ev(e.sub, env) == want {
						v = want
					}
				}
			}
		}
		memo[key] = v
		return v
	}
	out := ev(tb.root, newEnv(p.nlvls))
	p.mu.Lock()
	p.accepts[tb.key] = out
	p.mu.Unlock()
	return out, nil
}
