package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// OnceCopy flags by-value copies and whole-struct literal initialization
// of structs that carry a memoized sync.Once encoding cache (NodeEntry,
// EdgeLabel and NodeEntry's encCache embed; msoc's bridgeOnce).
//
// go vet's copylocks already rejects most copies of lock-carrying values,
// but it deliberately permits composite literals — and a composite literal
// is exactly the slab bug class PR 8 had to dodge by hand: `*slot =
// NodeEntry{…}` stamps a zero sync.Once over a slot whose old memoized
// encoding may still be observed through pointers handed to concurrent
// verifiers. An entry carved from a property pass's arena must be filled
// field-by-field (a shape pointer and class ids), leaving the cache words
// alone, or fresh storage allocated via &T{…}.
//
// Flagged shapes:
//   - T{…} composite literal of a Once-carrying struct anywhere except
//     directly under & (a fresh heap value copies nothing);
//   - assignment or definition whose RHS is a Once-carrying value that is
//     not an &-literal (a copy);
//   - function parameters and results of Once-carrying type by value;
//   - `for _, v := range xs` where the element copies a Once-carrier.
var OnceCopy = &analysis.Analyzer{
	Name: "oncecopy",
	Doc:  "flag copies and literal re-initialization of structs carrying sync.Once caches",
	Run:  runOnceCopy,
}

func runOnceCopy(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				// &T{…} is the sanctioned fresh-value idiom: skip the
				// literal underneath so it is not reported, but keep
				// walking its element expressions.
				if cl, ok := isOnceLiteral(pass, n.X); n.Op == token.AND && ok {
					for _, elt := range cl.Elts {
						ast.Inspect(elt, func(e ast.Node) bool { return inspectOnce(pass, e) })
					}
					return false
				}
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkOnceCopyExpr(pass, rhs, "assignment copies")
				}
				return true
			case *ast.FuncDecl:
				checkOnceSignature(pass, n.Type)
				return true
			case *ast.FuncLit:
				checkOnceSignature(pass, n.Type)
				return true
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := typeOf(pass, n.Value); t != nil && carriesOnce(t) {
						pass.Reportf(n.Value.Pos(),
							"range value copies %s, which carries a sync.Once cache; range over indices or pointers instead", t)
					}
				}
				return true
			}
			return inspectOnce(pass, n)
		})
	}
	return nil, nil
}

// inspectOnce handles the node kinds that can appear anywhere in an
// expression tree: bare composite literals and call arguments.
func inspectOnce(pass *analysis.Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if cl, ok := isOnceLiteral(pass, n.X); n.Op == token.AND && ok {
			for _, elt := range cl.Elts {
				ast.Inspect(elt, func(e ast.Node) bool { return inspectOnce(pass, e) })
			}
			return false
		}
	case *ast.CompositeLit:
		if t := typeOf(pass, n); t != nil && carriesOnce(t) {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				pass.Reportf(n.Pos(),
					"composite literal of %s stamps a fresh sync.Once over any destination; initialize field-by-field or take the address of a fresh literal",
					t)
			}
		}
	case *ast.CallExpr:
		for _, arg := range n.Args {
			checkOnceCopyExpr(pass, arg, "argument copies")
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			checkOnceCopyExpr(pass, r, "return copies")
		}
	}
	return true
}

// isOnceLiteral matches a composite literal of a Once-carrying struct.
func isOnceLiteral(pass *analysis.Pass, e ast.Expr) (*ast.CompositeLit, bool) {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return nil, false
	}
	t := typeOf(pass, cl)
	if t == nil || !carriesOnce(t) {
		return nil, false
	}
	_, isStruct := t.Underlying().(*types.Struct)
	return cl, isStruct
}

// checkOnceCopyExpr reports e when evaluating it produces a by-value copy
// of a Once-carrying struct: an identifier, selector, index or
// dereference of carrier type. Composite literals are reported separately
// (they are an initialization, not a copy), and calls returning carriers
// are the callee's problem.
func checkOnceCopyExpr(pass *analysis.Pass, e ast.Expr, what string) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := typeOf(pass, e)
	if t == nil || !carriesOnce(t) {
		return
	}
	if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
		return
	}
	pass.Reportf(e.Pos(), "%s %s by value, losing its memoized sync.Once cache; pass a pointer", what, t)
}

func checkOnceSignature(pass *analysis.Pass, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := typeOf(pass, field.Type)
			if t == nil || !carriesOnce(t) {
				continue
			}
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				continue
			}
			pass.Reportf(field.Type.Pos(), "%s of type %s passes a sync.Once cache by value; use a pointer", what, t)
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}
