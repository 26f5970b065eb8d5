package certify

import (
	"strings"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/msoc"
)

// Property is one certifiable MSO₂ property, resolved from the catalog.
// The zero value is invalid; obtain properties from PropertyByName or And.
//
// Each resolved instance carries the memo of its class algebra's
// evaluations, and copies of a Property share it: every prove, update and
// verification through the same instance reuses what earlier ones computed,
// on any graph. Resolving the name again yields an independent instance
// with an empty memo.
type Property struct {
	p    algebra.Property
	name string
	memo *memoCell
}

// maxMemoEntries caps the entries one property's memo may reach before the
// property moves on to a fresh one. A proof of 3color on an 8192-vertex
// interval graph of width 4 leaves 3.6k entries, one of maxdeg:30 9k; the
// cap bounds what a stream of hostile certificates, each naming new local
// shapes, can pin in a long-lived property (entries are 0.3–1 kB).
const maxMemoEntries = 1 << 14

// memoCell holds a property instance's current memo.
type memoCell struct{ cur atomic.Pointer[core.Memo] }

func newMemoCell() *memoCell {
	c := &memoCell{}
	c.cur.Store(core.NewMemo())
	return c
}

// load returns the memo new schemes should use. A memo holding limit
// entries or more is replaced by an empty one for later callers; schemes
// already using it keep it, so it is never cleared under them.
func (c *memoCell) load(limit int) *core.Memo {
	m := c.cur.Load()
	if m.Len() < limit {
		return m
	}
	fresh := core.NewMemo()
	if c.cur.CompareAndSwap(m, fresh) {
		return fresh
	}
	return c.cur.Load()
}

// algebraMemo returns the memo for a new scheme of this property.
func (p Property) algebraMemo() *core.Memo { return p.memo.load(maxMemoEntries) }

// Name returns the property's catalog name (the exact string that resolved
// it). Names are the identity carried by certificates: a wire certificate
// names its properties, and the verifying process resolves them back
// through PropertyByName.
func (p Property) Name() string {
	return p.name
}

// valid reports whether the property was properly resolved.
func (p Property) valid() bool { return p.p != nil }

// PropertyByName resolves a property from its catalog name. Supported names
// (see Names): plain properties like "bipartite" or "acyclic", parameterized
// ones like "vc:3" (vertex cover ≤ 3) and "maxdeg:2", conjunctions like
// "and(bipartite,evenedges)", and compiled formulas "mso:(...)" (see
// FormulaProperty). Unknown names return ErrUnknownProperty; a formula
// name that fails to compile returns ErrBadFormula.
func PropertyByName(name string) (Property, error) {
	p, err := msoc.ByName(name)
	formula := strings.HasPrefix(name, msoc.Prefix)
	switch {
	case err != nil && formula:
		return Property{}, wrapErr(ErrBadFormula, err)
	case err != nil:
		return Property{}, wrapErr(ErrUnknownProperty, err)
	case formula:
		// A formula's name is its canonical text, whatever the spelling.
		name = p.Name()
	}
	return Property{p: p, name: name, memo: newMemoCell()}, nil
}

// FormulaProperty compiles an MSO₂ formula (s-expression syntax, see
// mso.Parse) into a certifiable property via the internal/msoc compiler.
// The property's name is "mso:" + the canonical formula text, so it
// resolves back through PropertyByName on the verifier side — including a
// verifier in another process reconstructing a decoded certificate.
// Failures satisfy errors.Is(err, ErrBadFormula) and wrap the parse or
// compile error.
func FormulaProperty(src string) (Property, error) {
	p, err := msoc.CompileSource(src)
	if err != nil {
		return Property{}, wrapErr(ErrBadFormula, err)
	}
	return Property{p: p, name: p.Name(), memo: newMemoCell()}, nil
}

// PropertiesByName resolves a list of catalog names in order.
func PropertiesByName(names ...string) ([]Property, error) {
	out := make([]Property, 0, len(names))
	for _, name := range names {
		p, err := PropertyByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// And returns the conjunction of two properties (MSO₂ properties are closed
// under ∧, and so are their homomorphism-class algebras). Its name is
// "and(<p>,<q>)", which resolves back through PropertyByName.
func And(p, q Property) Property {
	return Property{
		p:    algebra.And{P1: p.p, P2: q.p},
		name: "and(" + p.name + "," + q.name + ")",
		memo: newMemoCell(),
	}
}

// Names lists the catalog's property names, parameterized entries with
// their placeholder — the vocabulary PropertyByName accepts.
func Names() []string {
	return algebra.Names()
}

// SplitPropList splits a comma-separated property list (e.g. a CLI flag) at
// top-level commas, trimming blanks: parenthesized conjunctions like
// and(bipartite,evenedges) stay whole. It shares the catalog's one
// top-level scanner (malformed entries then fail property resolution).
func SplitPropList(s string) []string {
	parts, _ := algebra.SplitTopLevel(s)
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ReadsInputSet reports whether the property's semantics read the marked
// vertex set X from the configuration (e.g. "X is a dominating set"); such
// properties need Graph.Mark before proving.
func ReadsInputSet(p Property) bool {
	return algebra.ReadsInputSet(p.p)
}
