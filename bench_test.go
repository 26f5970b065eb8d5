package repro

// One benchmark per experiment of EXPERIMENTS.md (the paper is a theory
// result; each experiment regenerates the measurements standing in for one
// quantitative claim — see DESIGN.md §3). The same harness backs cmd/bench,
// which prints the full series.

import (
	"context"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/certify"
	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/mso"
)

// benchOut receives the regenerated tables (printed once per benchmark).
var benchOut io.Writer = os.Stdout

// BenchmarkBuildStructure measures the structure pipeline (decomposition →
// lanes → transcript → hierarchy) on a path, sequential vs all cores. The
// allocation count is the pin for the arena-backed id sequences.
func BenchmarkBuildStructure(b *testing.B) {
	g := graph.PathGraph(4096)
	pd := interval.OrderingDecomposition(g, interval.HeuristicOrdering(g))
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := cert.NewConfig(g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.BuildStructureCtx(context.Background(), cfg, pd, core.StructureOptions{Parallelism: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProveWith measures the algebra sweep and label build over a
// prebuilt structure, sequential vs all cores. Both variants produce
// byte-identical labels (pinned by TestProveByteIdenticalAcrossWorkers in
// internal/core); this benchmark is the throughput side of that guarantee.
func BenchmarkProveWith(b *testing.B) {
	g := graph.PathGraph(4096)
	pd := interval.OrderingDecomposition(g, interval.HeuristicOrdering(g))
	cfg := cert.NewConfig(g)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := core.NewScheme(algebra.Colorable{Q: 2}, 4)
				s.Workers = bc.workers
				sp, err := core.BuildStructureCtx(context.Background(), cfg, pd, core.StructureOptions{Parallelism: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := s.ProveWithCtx(context.Background(), sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1LabelSizeVsBaseline regenerates the Theorem 1 vs FMRT label
// size comparison (Θ(log n) vs Θ(log² n)).
func BenchmarkE1LabelSizeVsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E1LabelSize([]int{32, 128, 512})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE1(benchOut, rows)
			b.ReportMetric(float64(rows[len(rows)-1].CoreBits), "core-bits@512")
			b.ReportMetric(float64(rows[len(rows)-1].BaselineBits), "base-bits@512")
		}
	}
}

// BenchmarkE2CongestionBounds regenerates the Proposition 4.6 lane and
// congestion measurements (greedy vs the paper's recursive construction).
func BenchmarkE2CongestionBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E2Congestion(1, 2, []int{64, 256})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE2(benchOut, 2, rows)
			b.ReportMetric(float64(rows[len(rows)-1].PaperCong), "paper-congestion")
		}
	}
}

// BenchmarkE3HierarchyDepth regenerates the Observation 5.5 depth
// measurement (≤ 2k).
func BenchmarkE3HierarchyDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E3Depth(1, []int{2, 3, 4}, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE3(benchOut, rows)
			b.ReportMetric(float64(rows[len(rows)-1].MaxDepth), "max-depth@k4")
		}
	}
}

// BenchmarkE4PointingScheme regenerates the Proposition 2.2 label-size
// measurement.
func BenchmarkE4PointingScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E4Pointing([]int{16, 256, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE4(benchOut, rows)
			b.ReportMetric(rows[len(rows)-1].PerLog, "bits/log-n")
		}
	}
}

// BenchmarkE5SoundnessDetection regenerates the corruption-detection
// measurement (Theorem 1 soundness).
func BenchmarkE5SoundnessDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E5Soundness(1, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE5(benchOut, rows)
			for _, r := range rows {
				if r.Detected != r.Injected {
					b.Fatalf("fault %s: %d/%d detected", r.Fault, r.Detected, r.Injected)
				}
			}
		}
	}
}

// BenchmarkE6PathVsCycle regenerates the Ω(log n) lower-bound scenario
// (accept paths, reject cycles).
func BenchmarkE6PathVsCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E6LowerBound([]int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE6(benchOut, rows)
			for _, r := range rows {
				if r.ForgedCaught != r.ForgedTrials {
					b.Fatalf("n=%d: %d/%d forged cycles caught", r.N, r.ForgedCaught, r.ForgedTrials)
				}
			}
		}
	}
}

// BenchmarkE7MinorFree regenerates the Corollary 1.2 experiment
// (F-minor-free certification for the forest F = K₁,₃).
func BenchmarkE7MinorFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E7MinorFree()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE7(benchOut, rows)
		}
	}
}

// BenchmarkE8ProveAndVerify regenerates the scaling measurement: prover
// wall time and per-vertex verification time.
func BenchmarkE8ProveAndVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E8Scaling([]int{64, 256})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE8(benchOut, rows)
			b.ReportMetric(rows[len(rows)-1].VerifyPerVtxUS, "verify-µs/vtx")
		}
	}
}

// BenchmarkE9BatchAmortization regenerates the multi-property amortization
// measurement: ProveAll over a shared StructuralProof vs B independent
// Prove calls (byte-identical labelings, checked inside the harness).
func BenchmarkE9BatchAmortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E9Amortization(512, experiments.E9Props)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE9(benchOut, rows)
			b.ReportMetric(rows[len(rows)-1].Speedup, "speedup@B=7")
		}
	}
}

// BenchmarkE11IncrementalRecertification regenerates the incremental
// recertification series at a reduced size (the fallback pinning and the
// byte-identity spot check run inside the harness either way).
func BenchmarkE11IncrementalRecertification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E11Recertification([]int{512}, []int{1, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintE11(benchOut, rows)
			b.ReportMetric(rows[len(rows)-1].Speedup, "speedup@tail")
		}
	}
}

// BenchmarkVerifyDecoded measures the verify-everywhere path on its own:
// UnmarshalBinary and Verify of a certificate proved once, outside the
// timer, for {3color, maxdeg:Δ} on an interval graph of n = 8192 (Δ its
// maximum degree) — the decoder's interning, the canonical re-encode
// check, the registry rebuild and the per-vertex verifier. The allocation
// figures are the pin for the verifier's reused vertex scratch.
func BenchmarkVerifyDecoded(b *testing.B) {
	ctx := context.Background()
	g := certify.Interval(1, 8192, 2)
	deg := make([]int, g.N())
	for _, e := range g.Edges() {
		deg[e[0]]++
		deg[e[1]]++
	}
	props, err := certify.PropertiesByName("3color", "maxdeg:"+strconv.Itoa(slices.Max(deg)))
	if err != nil {
		b.Fatal(err)
	}
	c, err := certify.New(certify.WithProperties(props...))
	if err != nil {
		b.Fatal(err)
	}
	crt, bst, err := c.ProveBatch(ctx, g)
	if err != nil {
		b.Fatal(err)
	}
	if len(bst.Failed) > 0 {
		b.Fatalf("properties failed: %v", bst.Failed)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d certify.Certificate
		if err := d.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
		if err := c.Verify(ctx, g, &d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProveBatchOnWarmStructure measures a six-property batch (five
// catalog algebras and the compiled bipartiteness formula) against one
// prebuilt Ladder(2048) structure that earlier batches already proved on:
// every op runs only the property passes — class sweeps, entries and
// labels — with the structure's shared per-edge label layouts warm.
func BenchmarkProveBatchOnWarmStructure(b *testing.B) {
	ctx := context.Background()
	g := certify.Ladder(2048)
	props, err := certify.PropertiesByName("bipartite", "3color", "matching", "hamiltonian", "maxdeg:3")
	if err != nil {
		b.Fatal(err)
	}
	formula, err := certify.FormulaProperty(mso.BipartiteFormula().String())
	if err != nil {
		b.Fatal(err)
	}
	c, err := certify.New(certify.WithProperties(append(props, formula)...))
	if err != nil {
		b.Fatal(err)
	}
	st, err := c.BuildStructure(ctx, g)
	if err != nil {
		b.Fatal(err)
	}
	if _, bst, err := c.ProveBatchOn(ctx, st); err != nil || len(bst.Failed) > 0 {
		b.Fatalf("warm-up batch: %v %v", err, bst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.ProveBatchOn(ctx, st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(retainedMBPerCert(b, func() any {
		crt, _, err := c.ProveBatchOn(ctx, st)
		if err != nil {
			b.Fatal(err)
		}
		return crt
	}), "retained-MB/cert")
}

// retainedMBPerCert returns the live heap, in MB, that one certificate from
// prove holds: HeapAlloc after a collection with four certificates held,
// minus HeapAlloc after a collection before them, divided by four.
func retainedMBPerCert(b *testing.B, prove func() any) float64 {
	const held = 4
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	certs := make([]any, held)
	for i := range certs {
		certs[i] = prove()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(certs)
	return (float64(ms.HeapAlloc) - float64(base)) / held / 1e6
}

// BenchmarkProveCompiledCold measures a cold prove of a compiled formula:
// every op compiles the formula afresh (tens of microseconds), so msoc's
// interner and compose memo start empty and the op pays for every
// characteristic-tree join. The structure is built once, outside the
// timer.
func BenchmarkProveCompiledCold(b *testing.B) {
	ctx := context.Background()
	for _, bc := range []struct {
		name    string
		formula func() mso.Formula
		g       *certify.Graph
	}{
		{"bipartite-ladder2048", mso.BipartiteFormula, certify.Ladder(2048)},
		{"3color-path4096", mso.ThreeColorableFormula, certify.Path(4096)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := bc.formula().String()
			c, err := certify.New(certify.WithFormula(src))
			if err != nil {
				b.Fatal(err)
			}
			st, err := c.BuildStructure(ctx, bc.g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := certify.New(certify.WithFormula(src))
				if err != nil {
					b.Fatal(err)
				}
				if _, bst, err := c.ProveBatchOn(ctx, st); err != nil || len(bst.Failed) > 0 {
					b.Fatalf("prove: %v %v", err, bst)
				}
			}
		})
	}
}
