package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// ByName resolves a property from its catalog name — the single source of
// truth for the property list shared by cmd/certify, cmd/bench and the
// experiment harness. Parameterized properties take their parameter after a
// colon: "vc:3" (vertex cover ≤ 3), "maxdeg:2" (maximum degree ≤ 2).
func ByName(name string) (Property, error) {
	return ByNameWith(name, ByName)
}

// ByNameWith resolves a catalog name as ByName does, except that the two
// operands of a conjunction "and(x,y)" are resolved by operand. A resolver
// that knows more names than the catalog (msoc.ByName, which compiles
// formulas) passes itself, so conjunctions may nest its names.
func ByNameWith(name string, operand func(string) (Property, error)) (Property, error) {
	switch {
	case name == "bipartite":
		return Colorable{Q: 2}, nil
	case name == "3color":
		return Colorable{Q: 3}, nil
	case name == "acyclic":
		return Acyclic{}, nil
	case name == "matching":
		return PerfectMatching{}, nil
	case name == "hamiltonian":
		return HamiltonianCycle{}, nil
	case name == "evenedges":
		return EvenEdges{}, nil
	case name == "dominating":
		return DominatingSet{}, nil
	case name == "independent":
		return IndependentSet{}, nil
	case strings.HasPrefix(name, "vc:"):
		c, err := strconv.Atoi(strings.TrimPrefix(name, "vc:"))
		if err != nil {
			return nil, fmt.Errorf("algebra: bad vertex cover bound: %w", err)
		}
		return VertexCoverAtMost{C: c}, nil
	case strings.HasPrefix(name, "maxdeg:"):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "maxdeg:"))
		if err != nil {
			return nil, fmt.Errorf("algebra: bad degree bound: %w", err)
		}
		return MaxDegreeAtMost{D: d}, nil
	case strings.HasPrefix(name, "and(") && strings.HasSuffix(name, ")"):
		parts, balanced := SplitTopLevel(name[len("and(") : len(name)-1])
		if !balanced || len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("algebra: malformed conjunction %q", name)
		}
		p1, err := operand(parts[0])
		if err != nil {
			return nil, err
		}
		p2, err := operand(parts[1])
		if err != nil {
			return nil, err
		}
		return And{P1: p1, P2: p2}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown property %q", name)
	}
}

// SplitTopLevel splits s at its top-level commas — commas inside
// parentheses do not separate, so conjunctions nest: "and(x,y),z" splits
// into ["and(x,y)", "z"]. It is the one scanner behind the catalog's
// and(...) grammar and the comma-separated property lists CLIs accept
// (certify.SplitPropList). balanced reports whether every ')' had a
// matching '('.
func SplitTopLevel(s string) (parts []string, balanced bool) {
	depth, start := 0, 0
	balanced = true
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				balanced = false
				depth = 0
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		balanced = false
	}
	return append(parts, s[start:]), balanced
}

// ByNames resolves a list of catalog names (e.g. a comma-split -prop flag).
func ByNames(names []string) ([]Property, error) {
	props := make([]Property, 0, len(names))
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			return nil, err
		}
		props = append(props, p)
	}
	return props, nil
}

// InputSetReader marks properties whose semantics read the marked vertex
// set X from the configuration's input labels (e.g. "X is a dominating
// set"). Catalog consumers use it to decide whether a configuration needs
// a MarkSet before proving.
type InputSetReader interface {
	ReadsInputSet() bool
}

// ReadsInputSet reports whether the property consumes the marked set X.
func ReadsInputSet(p Property) bool {
	r, ok := p.(InputSetReader)
	return ok && r.ReadsInputSet()
}

// Names lists the catalog's property names (parameterized entries with
// their placeholder), for help text and documentation.
func Names() []string {
	return []string{
		"bipartite", "3color", "acyclic", "matching", "hamiltonian",
		"evenedges", "dominating", "independent", "vc:<c>", "maxdeg:<d>",
		"and(<p>,<q>)",
	}
}
