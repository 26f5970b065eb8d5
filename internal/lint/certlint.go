// Package lint is certlint: a suite of project-specific static analyzers
// that machine-check the prover's load-bearing invariants on every build
// instead of leaving them to the tests that happened to exist when each
// invariant was introduced.
//
// The five analyzers and the bug class each one guards against:
//
//   - mapiter: unordered map iteration in a certificate-byte-producing
//     package (byte-identity across worker counts dies exactly this way).
//   - oncecopy: by-value copies or whole-struct literal overwrites of
//     structs carrying memoized sync.Once encoding caches (the NodeEntry
//     slab re-initialization bug class PR 8 had to dodge by hand).
//   - ctxpoll: loops in exported context-taking functions that never poll
//     ctx and never call into a polling helper (cancellation added in
//     PR 4 must stay prompt as code grows).
//   - wirecap: make() whose size derives from decoded wire input with no
//     intervening bound check (the PR 5 hostile-header allocation class).
//   - errtaxonomy: errors escaping the certify facade or certify/serve
//     without wrapping a typed sentinel (the PR 4 error taxonomy).
//
// Intentional exceptions are suppressed in-diff with
//
//	//lint:certlint ignore <analyzer> <reason>
//
// on the flagged line or the line above it. The reason is mandatory; a
// malformed or unknown suppression is itself a finding, so every escape
// hatch stays auditable in review.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Analyzers returns the certlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIter,
		OnceCopy,
		CtxPoll,
		WireCap,
		ErrTaxonomy,
	}
}

// ByName resolves one analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Finding is one diagnostic with its resolved source position.
type Finding struct {
	analysis.Diagnostic
	Position token.Position
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Run applies the analyzers to the packages and returns the findings that
// survive suppression filtering, sorted by position. Malformed suppression
// comments are returned as findings of the synthetic "suppression"
// analyzer. Unsuppressed findings are the caller's signal to fail.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		sup, bad := suppressions(pkg, analyzers)
		findings = append(findings, bad...)
		for _, az := range analyzers {
			if !az.AppliesTo(pkg.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  az,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					if sup.covers(az.Name, pos) {
						return
					}
					findings = append(findings, Finding{Diagnostic: d, Position: pos})
				},
			}
			if _, err := az.Run(pass); err != nil {
				return nil, fmt.Errorf("certlint: %s on %s: %w", az.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
