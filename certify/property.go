package certify

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/msoc"
)

// Property is one certifiable MSO₂ property, resolved from the catalog.
// The zero value is invalid; obtain properties from PropertyByName or And.
type Property struct {
	p    algebra.Property
	name string
}

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
	return Property{p: p, name: name}, nil
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
	return Property{p: p, name: p.Name()}, nil
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
