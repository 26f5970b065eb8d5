// Package msoc compiles MSO₂ formulas (internal/mso) into runnable
// homomorphism-class algebras (internal/algebra). It is the constructive
// counterpart of Proposition 6.1: for every MSO₂ property the set of
// homomorphism classes of k-boundaried graphs is finite, so a compiled
// algebra.Property can ride the existing prove/verify pipeline — classes
// flow through the same Registry interning, PLSC wire format and
// cross-process reconstruction as the hand-written catalog.
//
// The compiled Table of a boundaried graph H with boundary b₁..bₖ is the
// characteristic tree of the formula on H: a tree that mirrors the formula
// skeleton, where each quantifier node carries one subtree per way its
// variable can meet H (a named boundary vertex, an anonymous internal
// vertex or local edge, a local set restriction, or "outside H" — the ⊥
// child), and each atom bottoms out in either a concrete truth value or a
// small symbolic leaf over boundary indices (x=y, adj(x,y), or a bit
// vector) whose truth is only decided once gluing stops. Two boundaried
// graphs with equal characteristic trees are homomorphism-equivalent for
// the formula, so the tree is a sound table; it is finite because subtrees
// are deduplicated (hash-consing) and quantifier children are kept as sets.
//
// Join re-derives the merged tree from the operands' trees alone by a
// lockstep walk: the two trees share the formula skeleton, boundary
// constants are re-mapped through the JoinSpec, internalized vertices
// decide their symbolic leaves against the accumulated boundary adjacency
// matrix, and a real bridge edge is handled as a third single-edge part
// glued in by two plain composes. Accept evaluates the root tree with the
// final boundary adjacency, giving the formula's truth on the whole graph.
package msoc

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/mso"
)

// Prefix marks property names that are compiled MSO₂ formulas rather than
// catalog entries: "mso:" followed by the canonical formula text.
// Certificates carry these names on the wire, and the verifying process
// recompiles the formula from the name alone.
const Prefix = "mso:"

// ByName resolves a property name as certificates carry it: a compiled
// formula (Prefix followed by the formula text) is recompiled, and any
// other name resolves through the algebra catalog, the operands of a
// conjunction through ByName again, so "and(mso:…,maxdeg:3)" conjoins a
// formula. It is the one name resolver every verifying process uses.
func ByName(name string) (algebra.Property, error) {
	if src, ok := strings.CutPrefix(name, Prefix); ok {
		return CompileSource(src)
	}
	return algebra.ByNameWith(name, ByName)
}

// CompileError reports a formula that parsed but cannot be compiled:
// an unbound variable, a sort mismatch, or a class-space blow-up during
// enumeration. Formula names the offending subformula when known.
type CompileError struct {
	Formula string
	Msg     string
}

func (e *CompileError) Error() string {
	if e.Formula == "" {
		return "msoc: " + e.Msg
	}
	return fmt.Sprintf("msoc: %s in %s", e.Msg, e.Formula)
}

// Compile checks the formula (every variable bound before use, every atom
// well-sorted) and returns the compiled property. The property's name is
// "mso:" followed by the canonical formula text, so equal formulas compile
// to equal names and certificate names round-trip back through the
// compiler on the verifier side.
func Compile(f mso.Formula) (*Prop, error) {
	if err := check(f, map[string]mso.Sort{}); err != nil {
		return nil, err
	}
	p := &Prop{
		f:       f,
		name:    Prefix + f.String(),
		in:      newInterner(),
		nlvls:   maxVDepth(f),
		joins:   map[string]*table{},
		accepts: map[string]bool{},
		ctxs:    map[string]*composeCtx{},
	}
	p.initLeaves()
	return p, nil
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// maxVDepth is the deepest nesting of vertex quantifiers: the number of
// levels the compose environment must track. Sibling quantifiers share a
// level — their scopes never overlap, so environment entries cannot clash.
func maxVDepth(f mso.Formula) int {
	switch f := f.(type) {
	case mso.Exists:
		d := maxVDepth(f.Body)
		if f.Sort == mso.VertexSort {
			d++
		}
		return d
	case mso.Forall:
		d := maxVDepth(f.Body)
		if f.Sort == mso.VertexSort {
			d++
		}
		return d
	case mso.Not:
		return maxVDepth(f.F)
	case mso.And:
		return max2(maxVDepth(f.L), maxVDepth(f.R))
	case mso.Or:
		return max2(maxVDepth(f.L), maxVDepth(f.R))
	case mso.Implies:
		return max2(maxVDepth(f.L), maxVDepth(f.R))
	case mso.Iff:
		return max2(maxVDepth(f.L), maxVDepth(f.R))
	default:
		return 0
	}
}

// CompileSource parses and compiles a formula. Parse failures are returned
// as *mso.ParseError (with position), compile failures as *CompileError.
func CompileSource(src string) (*Prop, error) {
	f, err := mso.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// check walks the formula with the sorts of the bound variables in scope.
func check(f mso.Formula, scope map[string]mso.Sort) error {
	bound := func(name string) (mso.Sort, error) {
		s, ok := scope[name]
		if !ok {
			return 0, &CompileError{Formula: f.String(), Msg: fmt.Sprintf("unbound variable %q", name)}
		}
		return s, nil
	}
	switch f := f.(type) {
	case mso.Exists:
		return checkQuant(f.Var, f.Sort, f.Body, scope)
	case mso.Forall:
		return checkQuant(f.Var, f.Sort, f.Body, scope)
	case mso.Not:
		return check(f.F, scope)
	case mso.And:
		if err := check(f.L, scope); err != nil {
			return err
		}
		return check(f.R, scope)
	case mso.Or:
		if err := check(f.L, scope); err != nil {
			return err
		}
		return check(f.R, scope)
	case mso.Implies:
		if err := check(f.L, scope); err != nil {
			return err
		}
		return check(f.R, scope)
	case mso.Iff:
		if err := check(f.L, scope); err != nil {
			return err
		}
		return check(f.R, scope)
	case mso.InSet:
		es, err := bound(f.Elem)
		if err != nil {
			return err
		}
		ss, err := bound(f.Set)
		if err != nil {
			return err
		}
		okV := es == mso.VertexSort && ss == mso.VertexSetSort
		okE := es == mso.EdgeSort && ss == mso.EdgeSetSort
		if !okV && !okE {
			return &CompileError{Formula: f.String(),
				Msg: fmt.Sprintf("element sort %s does not match set sort %s", es, ss)}
		}
		return nil
	case mso.Inc:
		es, err := bound(f.EdgeVar)
		if err != nil {
			return err
		}
		vs, err := bound(f.VertexVar)
		if err != nil {
			return err
		}
		if es != mso.EdgeSort || vs != mso.VertexSort {
			return &CompileError{Formula: f.String(),
				Msg: fmt.Sprintf("inc needs an E and a V variable, got %s and %s", es, vs)}
		}
		return nil
	case mso.Adj:
		us, err := bound(f.U)
		if err != nil {
			return err
		}
		vs, err := bound(f.V)
		if err != nil {
			return err
		}
		if us != mso.VertexSort || vs != mso.VertexSort {
			return &CompileError{Formula: f.String(),
				Msg: fmt.Sprintf("adj needs two V variables, got %s and %s", us, vs)}
		}
		return nil
	case mso.Eq:
		as, err := bound(f.A)
		if err != nil {
			return err
		}
		bs, err := bound(f.B)
		if err != nil {
			return err
		}
		if as != bs {
			return &CompileError{Formula: f.String(),
				Msg: fmt.Sprintf("equality of mismatched sorts %s and %s", as, bs)}
		}
		return nil
	default:
		return &CompileError{Msg: fmt.Sprintf("unknown formula node %T", f)}
	}
}

func checkQuant(name string, srt mso.Sort, body mso.Formula, scope map[string]mso.Sort) error {
	switch srt {
	case mso.VertexSort, mso.EdgeSort, mso.VertexSetSort, mso.EdgeSetSort:
	default:
		return &CompileError{Msg: fmt.Sprintf("unknown sort %d for %q", srt, name)}
	}
	old, had := scope[name]
	scope[name] = srt
	err := check(body, scope)
	if had {
		scope[name] = old
	} else {
		delete(scope, name)
	}
	return err
}
