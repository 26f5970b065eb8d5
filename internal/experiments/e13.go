package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/certify"
	"repro/internal/mso"
)

// E13Row is one reference formula's compiled-vs-hand-written comparison at
// a fixed workload size: how long the MSO₂→algebra compilation itself
// takes, how many homomorphism classes each algebra's registry holds after
// proving, and the prove-time overhead of the generic compiled algebra
// over the specialized hand-written one. The JSON tags define the
// BENCH_E13.json schema.
type E13Row struct {
	Formula             string  `json:"formula"`
	Family              string  `json:"family"`
	N                   int     `json:"n"`
	CompileMicros       float64 `json:"compile_us"`
	CompiledClasses     int     `json:"compiled_classes"`
	HandClasses         int     `json:"hand_classes"`
	CompiledProveMicros float64 `json:"compiled_prove_us"`
	HandProveMicros     float64 `json:"hand_prove_us"`
	Overhead            float64 `json:"overhead"`
}

// e13Cases pairs each reference formula with its catalog twin and a
// workload family the property holds on, so every prove runs to a full
// certificate: paths for everything except hamiltonicity, which needs the
// cycle. The last row is fixed-size: compiled 3-colourability on a ladder
// of four rungs, where its characteristic trees already grow steeply with
// the lane count (E13's path rows hide that wall).
var e13Cases = []struct {
	name    string
	catalog string
	formula func() mso.Formula
	family  string
	graph   func(n int) *certify.Graph
}{
	{"bipartite", "bipartite", mso.BipartiteFormula, "path", certify.Path},
	{"3color", "3color", mso.ThreeColorableFormula, "path", certify.Path},
	{"acyclic", "acyclic", mso.AcyclicFormula, "path", certify.Path},
	{"matching", "matching", mso.PerfectMatchingFormula, "path", certify.Path},
	{"hamiltonian", "hamiltonian", mso.HamiltonianCycleFormula, "cycle", certify.Cycle},
	{"3color", "3color", mso.ThreeColorableFormula, "ladder", func(int) *certify.Graph { return certify.Ladder(4) }},
}

// E13Compiler measures the five reference formulas' compiled algebras
// against their hand-written catalog twins at size n.
func E13Compiler(n int) ([]E13Row, error) {
	ctx := context.Background()
	rows := make([]E13Row, 0, len(e13Cases))
	for _, tc := range e13Cases {
		src := tc.formula().String()
		start := time.Now()
		compiledProp, err := certify.FormulaProperty(src)
		compileUS := float64(time.Since(start).Microseconds())
		if err != nil {
			return nil, fmt.Errorf("e13 %s: compile: %w", tc.name, err)
		}
		handProp, err := certify.PropertyByName(tc.catalog)
		if err != nil {
			return nil, fmt.Errorf("e13 %s: %w", tc.name, err)
		}
		g := tc.graph(n)
		row := E13Row{Formula: tc.name, Family: tc.family, N: g.N(), CompileMicros: compileUS}
		row.CompiledClasses, row.CompiledProveMicros, err = e13Prove(ctx, compiledProp, g)
		if err != nil {
			return nil, fmt.Errorf("e13 %s compiled: %w", tc.name, err)
		}
		row.HandClasses, row.HandProveMicros, err = e13Prove(ctx, handProp, g)
		if err != nil {
			return nil, fmt.Errorf("e13 %s hand-written: %w", tc.name, err)
		}
		if row.HandProveMicros > 0 {
			row.Overhead = row.CompiledProveMicros / row.HandProveMicros
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// e13Prove certifies the graph with one property and reports the
// registry's class count and the prove wall time.
func e13Prove(ctx context.Context, p certify.Property, g *certify.Graph) (classes int, us float64, err error) {
	c, err := certify.New(certify.WithProperty(p))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	_, stats, err := c.ProveBatch(ctx, g)
	us = float64(time.Since(start).Microseconds())
	if err != nil {
		return 0, 0, err
	}
	if len(stats.Failed) > 0 {
		return 0, 0, fmt.Errorf("property %s does not hold on the workload", stats.Failed[0])
	}
	return stats.PerProperty[p.Name()].RegistryClasses, us, nil
}

// PrintE13 renders the compiled-vs-hand-written series.
func PrintE13(w io.Writer, rows []E13Row) {
	fmt.Fprintf(w, "E13 MSO₂ compiler vs hand-written algebras\n")
	fmt.Fprintf(w, "%-12s %-7s %8s %12s %10s %10s %14s %14s %9s\n",
		"formula", "family", "n", "compile[us]", "classes", "classes*", "prove[us]", "prove*[us]", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-7s %8d %12.0f %10d %10d %14.0f %14.0f %9.2f\n",
			r.Formula, r.Family, r.N, r.CompileMicros, r.CompiledClasses, r.HandClasses,
			r.CompiledProveMicros, r.HandProveMicros, r.Overhead)
	}
	fmt.Fprintf(w, "(* = hand-written catalog algebra)\n")
}
