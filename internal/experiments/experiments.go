// Package experiments implements the E1–E9 and E11 experiment harness of
// DESIGN.md: each function regenerates the measurements that stand in for one
// of the paper's quantitative claims (the paper is a theory result with no
// measurement tables; see EXPERIMENTS.md for the mapping). The functions are
// shared between cmd/bench and the root testing.B benchmarks.
package experiments

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/certify/graphio"
	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
	"repro/internal/lanewidth"
)

// E1Row is one point of the label-size comparison (Theorem 1 vs FMRT).
type E1Row struct {
	N            int
	CoreBits     int
	BaselineBits int
	Log2N        float64
	CorePerLog   float64 // CoreBits / log2 n — flat ⇔ Θ(log n)
	BasePerLog2  float64 // BaselineBits / log2² n — flat ⇔ Θ(log² n)
}

// prove builds the configuration's structure and runs the scheme's property
// pass over it (the optional decomposition is used when non-nil).
func prove(s *core.Scheme, cfg *cert.Config, pd *interval.PathDecomposition) (*core.Labeling, *core.Stats, error) {
	sp, err := core.BuildStructureCtx(context.Background(), cfg, pd, core.StructureOptions{Parallelism: s.Workers})
	if err != nil {
		return nil, nil, err
	}
	return s.ProveWithCtx(context.Background(), sp)
}

// accepts runs the verifier at every vertex and reports whether all of them
// accepted; a verifier error is returned, never read as a verdict.
func accepts(s *core.Scheme, cfg *cert.Config, labeling *core.Labeling) (bool, error) {
	verdicts, err := s.VerifyParallelCtx(context.Background(), cfg, labeling)
	if err != nil {
		return false, err
	}
	return core.AllAccept(verdicts), nil
}

// DefaultE1Ns is the full E1 sweep; cmd/bench's -e1-max-n trims it.
var DefaultE1Ns = []int{32, 128, 512, 2048, 8192, 32768, 131072, 262144}

// E1LabelSize measures the Theorem 1 scheme against the FMRT-style baseline
// on caterpillars of growing size, certifying bipartiteness.
func E1LabelSize(ns []int) ([]E1Row, error) {
	return E1LabelSizeFor(algebra.Colorable{Q: 2}, ns)
}

// E1LabelSizeFor runs the E1 sweep for an arbitrary property that holds on
// caterpillars (e.g. bipartite, 3-colorable, acyclic).
func E1LabelSizeFor(prop algebra.Property, ns []int) ([]E1Row, error) {
	var rows []E1Row
	for _, n := range ns {
		g := gen.Caterpillar(n/2, 1)
		cfg := cert.NewConfig(g)
		pd := interval.OrderingDecomposition(g, interval.HeuristicOrdering(g))
		s := core.NewScheme(prop, 6)
		labeling, stats, err := prove(s, cfg, pd)
		if err != nil {
			return nil, fmt.Errorf("e1 n=%d: %w", n, err)
		}
		ok, err := accepts(s, cfg, labeling)
		if err != nil {
			return nil, fmt.Errorf("e1 n=%d: verify: %w", n, err)
		}
		if !ok {
			return nil, fmt.Errorf("e1 n=%d: verification failed", n)
		}
		bl, err := baseline.Prove(cfg, pd)
		if err != nil {
			return nil, fmt.Errorf("e1 baseline n=%d: %w", n, err)
		}
		lg := math.Log2(float64(g.N()))
		rows = append(rows, E1Row{
			N:            g.N(),
			CoreBits:     stats.MaxLabelBits,
			BaselineBits: bl.MaxBits(),
			Log2N:        lg,
			CorePerLog:   float64(stats.MaxLabelBits) / lg,
			BasePerLog2:  float64(bl.MaxBits()) / (lg * lg),
		})
	}
	return rows, nil
}

// PrintE1 renders E1 rows.
func PrintE1(w io.Writer, rows []E1Row) {
	fmt.Fprintf(w, "E1  label size: Theorem 1 (ours) vs FMRT-style baseline (bipartiteness on caterpillars)\n")
	fmt.Fprintf(w, "%8s %12s %14s %12s %14s\n", "n", "ours[bits]", "baseline[bits]", "ours/log n", "base/log^2 n")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12d %14d %12.1f %14.1f\n", r.N, r.CoreBits, r.BaselineBits, r.CorePerLog, r.BasePerLog2)
	}
}

// E2Row is one point of the lane/congestion measurement (Proposition 4.6).
type E2Row struct {
	N, Width                int
	GreedyLanes, GreedyCong int
	PaperLanes, PaperCong   int
	BoundLanes, BoundCong   int64
}

// E2Congestion compares the greedy first-fit partition against the paper's
// recursive construction on random width-k interval graphs, reporting lanes
// and completion congestion against the F/H bounds.
func E2Congestion(seed int64, k int, ns []int) ([]E2Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []E2Row
	for _, n := range ns {
		g, r := gen.IntervalGraph(rng, n, k)
		w := r.Width()
		greedy := lanes.Greedy(r)
		gc := lanes.Complete(g, greedy, false)
		gEmb, err := lanes.Embed(g, gc, nil, nil, 1)
		if err != nil {
			return nil, fmt.Errorf("e2 n=%d: %w", n, err)
		}
		p, _, pEmb, err := lanes.BuildLowCongestion(g, r)
		if err != nil {
			return nil, fmt.Errorf("e2 n=%d: %w", n, err)
		}
		rows = append(rows, E2Row{
			N: n, Width: w,
			GreedyLanes: greedy.K(), GreedyCong: gEmb.Emb.Congestion(),
			PaperLanes: p.K(), PaperCong: pEmb.Congestion(),
			BoundLanes: lanes.F(w), BoundCong: lanes.H(w),
		})
	}
	return rows, nil
}

// PrintE2 renders E2 rows.
func PrintE2(w io.Writer, k int, rows []E2Row) {
	fmt.Fprintf(w, "E2  Prop 4.6: lanes and completion congestion, width-%d interval graphs\n", k)
	fmt.Fprintf(w, "%8s %6s %12s %12s %12s %12s %10s %10s\n",
		"n", "width", "greedy.lanes", "greedy.cong", "paper.lanes", "paper.cong", "F(w)", "H(w)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %6d %12d %12d %12d %12d %10d %10d\n",
			r.N, r.Width, r.GreedyLanes, r.GreedyCong, r.PaperLanes, r.PaperCong, r.BoundLanes, r.BoundCong)
	}
}

// E3Row is one point of the hierarchy-depth measurement (Observation 5.5).
type E3Row struct {
	K        int
	Trials   int
	MaxDepth int
	Bound    int
}

// E3Depth builds random lanewidth-k graphs and measures the maximum
// hierarchical-decomposition depth against the 2k bound.
func E3Depth(seed int64, ks []int, trials int) ([]E3Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []E3Row
	for _, k := range ks {
		maxDepth := 0
		for trial := 0; trial < trials; trial++ {
			b, err := gen.LanewidthGraph(rng, k, 10+rng.Intn(40))
			if err != nil {
				return nil, err
			}
			h, err := lanewidth.BuildHierarchy(b.Graph(), b.Log())
			if err != nil {
				return nil, err
			}
			if err := h.Validate(); err != nil {
				return nil, err
			}
			if d := h.Depth(); d > maxDepth {
				maxDepth = d
			}
		}
		rows = append(rows, E3Row{K: k, Trials: trials, MaxDepth: maxDepth, Bound: 2 * k})
	}
	return rows, nil
}

// PrintE3 renders E3 rows.
func PrintE3(w io.Writer, rows []E3Row) {
	fmt.Fprintf(w, "E3  Obs 5.5: hierarchical decomposition depth ≤ 2k\n")
	fmt.Fprintf(w, "%6s %8s %10s %8s\n", "k", "trials", "max depth", "2k")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %8d %10d %8d\n", r.K, r.Trials, r.MaxDepth, r.Bound)
	}
}

// E4Row is one point of the pointing-scheme size measurement (Prop 2.2).
type E4Row struct {
	N       int
	MaxBits int
	Log2N   float64
	PerLog  float64
}

// E4Pointing measures Prop 2.2 label sizes on paths.
func E4Pointing(ns []int) ([]E4Row, error) {
	var rows []E4Row
	for _, n := range ns {
		g := graph.PathGraph(n)
		cfg := cert.NewConfig(g)
		labels, err := cert.ProvePointing(cfg, n/2)
		if err != nil {
			return nil, err
		}
		if !cert.AllAccept(cert.VerifyPointing(cfg, cfg.IDs[n/2], labels)) {
			return nil, fmt.Errorf("e4 n=%d: rejected", n)
		}
		lg := math.Log2(float64(n))
		mb := cert.MaxPointingBits(labels)
		rows = append(rows, E4Row{N: n, MaxBits: mb, Log2N: lg, PerLog: float64(mb) / lg})
	}
	return rows, nil
}

// PrintE4 renders E4 rows.
func PrintE4(w io.Writer, rows []E4Row) {
	fmt.Fprintf(w, "E4  Prop 2.2: pointing-scheme label bits (paths)\n")
	fmt.Fprintf(w, "%8s %10s %12s\n", "n", "bits", "bits/log n")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %10d %12.1f\n", r.N, r.MaxBits, r.PerLog)
	}
}

// E5Row is the soundness measurement for one fault kind.
type E5Row struct {
	Fault    string
	Injected int
	Detected int
}

// E5Soundness injects every fault kind into honest labelings and reports
// detection counts (Theorem 1 soundness).
func E5Soundness(seed int64, trials int) ([]E5Row, error) {
	g := gen.Caterpillar(8, 1)
	s := core.NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []E5Row
	for _, fault := range dist.AllFaults {
		injected, detected := 0, 0
		for trial := 0; trial < trials; trial++ {
			mutated, ok := dist.Inject(rng, labeling, fault)
			if !ok {
				continue
			}
			injected++
			ok, err := accepts(s, cfg, mutated)
			if err != nil {
				return nil, err
			}
			if !ok {
				detected++
			}
		}
		rows = append(rows, E5Row{Fault: fault.String(), Injected: injected, Detected: detected})
	}
	return rows, nil
}

// PrintE5 renders E5 rows.
func PrintE5(w io.Writer, rows []E5Row) {
	fmt.Fprintf(w, "E5  Soundness: adversarial label corruption detection\n")
	fmt.Fprintf(w, "%-18s %10s %10s\n", "fault", "injected", "detected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %10d\n", r.Fault, r.Injected, r.Detected)
	}
}

// E6Row is one point of the lower-bound demonstration.
type E6Row struct {
	N            int
	PathBits     int
	CeilLog2     int
	ForgedTrials int
	ForgedCaught int
}

// E6LowerBound demonstrates the Ω(log n) scenario of [KKP10]: the scheme
// accepts P_n for acyclicity with Θ(log n) bits, and every attempt to make
// C_n accept by transplanting path labels onto the closing edge is caught.
func E6LowerBound(ns []int) ([]E6Row, error) {
	var rows []E6Row
	for _, n := range ns {
		pathG := graph.PathGraph(n)
		s := core.NewScheme(algebra.Acyclic{}, 4)
		cfgPath := cert.NewConfig(pathG)
		labeling, stats, err := prove(s, cfgPath, nil)
		if err != nil {
			return nil, err
		}
		ok, err := accepts(s, cfgPath, labeling)
		if err != nil {
			return nil, fmt.Errorf("e6 n=%d: verify: %w", n, err)
		}
		if !ok {
			return nil, fmt.Errorf("e6 n=%d: path rejected", n)
		}
		cycleG := graph.CycleGraph(n)
		cfgCycle := cert.NewConfig(cycleG)
		caught := 0
		for donor := range pathG.EdgesSeq() {
			forged := labeling.Clone()
			forged.Edges[graph.NewEdge(0, n-1)] = forged.Edges[donor]
			ok, err := accepts(s, cfgCycle, forged)
			if err != nil {
				return nil, err
			}
			if !ok {
				caught++
			}
		}
		rows = append(rows, E6Row{
			N: n, PathBits: stats.MaxLabelBits,
			CeilLog2:     int(math.Ceil(math.Log2(float64(n)))),
			ForgedTrials: pathG.M(), ForgedCaught: caught,
		})
	}
	return rows, nil
}

// PrintE6 renders E6 rows.
func PrintE6(w io.Writer, rows []E6Row) {
	fmt.Fprintf(w, "E6  Ω(log n) scenario: accept paths / reject cycles (acyclicity)\n")
	fmt.Fprintf(w, "%8s %12s %10s %14s %14s\n", "n", "path[bits]", "⌈log2 n⌉", "forged cycles", "caught")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12d %10d %14d %14d\n", r.N, r.PathBits, r.CeilLog2, r.ForgedTrials, r.ForgedCaught)
	}
}

// E7Row is one point of the minor-free certification experiment.
type E7Row struct {
	Graph    string
	N        int
	Oracle   bool // K1,3-minor-free per brute force
	Proved   bool
	Verified bool
}

// E7MinorFree exercises Corollary 1.2 with the forest F = K₁,₃: the class of
// K₁,₃-minor-free graphs (paths and cycles) is certified via the max-degree-2
// algebra; spiders and legged caterpillars are rejected, in agreement with
// the brute-force minor oracle.
func E7MinorFree() ([]E7Row, error) {
	star := graph.CompleteBipartite(1, 3)
	prop := algebra.MaxDegreeAtMost{D: 2}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-32", graph.PathGraph(32)},
		{"cycle-24", graph.CycleGraph(24)},
		{"spider-S222", graph.Spider(2)},
		{"caterpillar-6x1", gen.Caterpillar(6, 1)},
	}
	var rows []E7Row
	for _, tc := range cases {
		s := core.NewScheme(prop, 6)
		cfg := cert.NewConfig(tc.g)
		labeling, _, err := prove(s, cfg, nil)
		proved := err == nil
		verified := false
		if proved {
			if verified, err = accepts(s, cfg, labeling); err != nil {
				return nil, err
			}
		}
		oracle := !tc.g.HasMinor(star)
		if proved != oracle {
			return nil, fmt.Errorf("e7 %s: prover %v vs oracle %v", tc.name, proved, oracle)
		}
		rows = append(rows, E7Row{Graph: tc.name, N: tc.g.N(), Oracle: oracle, Proved: proved, Verified: verified})
	}
	return rows, nil
}

// PrintE7 renders E7 rows.
func PrintE7(w io.Writer, rows []E7Row) {
	fmt.Fprintf(w, "E7  Cor 1.2 (F = K1,3): minor-free certification vs brute-force oracle\n")
	fmt.Fprintf(w, "%-18s %6s %14s %8s %9s\n", "graph", "n", "K1,3-free", "proved", "verified")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %6d %14v %8v %9v\n", r.Graph, r.N, r.Oracle, r.Proved, r.Verified)
	}
}

// DefaultE8Ns is the full E8 sweep. cmd/bench's -e8-max-n trims it: CI runs
// the small prefix on every push. The committed BENCH_E8.json ends at
// n = 262144; its n = 10⁶ point needs a host with more memory to re-run.
var DefaultE8Ns = []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1000000}

// E8Row is one point of the scaling measurement. The JSON tags define the
// BENCH_E8.json schema consumed across PRs to track the perf trajectory.
type E8Row struct {
	N              int     `json:"n"`
	ProveMillis    float64 `json:"prove_ms"`
	VerifyPerVtxUS float64 `json:"verify_us_per_vtx"`
	LabelBits      int     `json:"label_bits"`
	// Per-stage prove breakdown (wall ms): the structure build's pipeline
	// stages plus the property pass's sweep (classes, entries, labels).
	StageDecomposeMillis  float64 `json:"stage_decompose_ms"`
	StageLanesMillis      float64 `json:"stage_lanes_ms"`
	StageTranscriptMillis float64 `json:"stage_transcript_ms"`
	StageHierarchyMillis  float64 `json:"stage_hierarchy_ms"`
	StageSweepMillis      float64 `json:"stage_sweep_ms"`
}

// e8PathGraph streams an n-vertex path through the certify/graphio edge-list
// format and rebuilds the prover's graph from the decoded result, so the
// sweep's large instances exercise the same ingestion path a deployment
// feeding the service from disk would.
func e8PathGraph(n int) (*graph.Graph, error) {
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 1<<16)
		fmt.Fprintf(bw, "n %d\n", n)
		for v := 0; v+1 < n; v++ {
			fmt.Fprintf(bw, "%d %d\n", v, v+1)
		}
		bw.Flush()
		pw.Close()
	}()
	cg, err := graphio.ReadEdgeList(pr)
	pr.Close()
	if err != nil {
		return nil, err
	}
	g := graph.New(cg.N())
	for _, e := range cg.Edges() {
		g.MustAddEdge(e[0], e[1])
	}
	return g, nil
}

// E8Scaling measures prover wall time and per-vertex verification time.
// Verification runs on the VerifyParallel worker pool — the paper treats
// verification as an embarrassingly parallel per-vertex computation, so the
// wall time per vertex is the deployment-relevant number. Proving runs with
// the scheme's default parallelism (GOMAXPROCS); the emitted labels are
// byte-identical to a sequential prove at every level.
func E8Scaling(ns []int) ([]E8Row, error) {
	var rows []E8Row
	for _, n := range ns {
		g, err := e8PathGraph(n)
		if err != nil {
			return nil, err
		}
		pd := interval.OrderingDecomposition(g, interval.HeuristicOrdering(g))
		cfg := cert.NewConfig(g)
		s := core.NewScheme(algebra.Colorable{Q: 2}, 4)
		// Settle the previous row's garbage so every point measures its own
		// allocation cost, not the GC debt of the row before it — at the
		// n=10⁶ tail the retained-heap difference dominates the timing.
		runtime.GC()
		start := time.Now()
		labeling, stats, err := prove(s, cfg, pd)
		if err != nil {
			return nil, err
		}
		proveMS := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		ok, err := accepts(s, cfg, labeling)
		if err != nil {
			return nil, fmt.Errorf("e8 n=%d: verify: %w", n, err)
		}
		if !ok {
			return nil, fmt.Errorf("e8 n=%d rejected", n)
		}
		verifyUS := float64(time.Since(start).Microseconds()) / float64(n)
		rows = append(rows, E8Row{
			N: n, ProveMillis: proveMS, VerifyPerVtxUS: verifyUS, LabelBits: stats.MaxLabelBits,
			StageDecomposeMillis:  stats.Stages.DecomposeMillis,
			StageLanesMillis:      stats.Stages.LanesMillis,
			StageTranscriptMillis: stats.Stages.TranscriptMillis,
			StageHierarchyMillis:  stats.Stages.HierarchyMillis,
			StageSweepMillis:      stats.Stages.SweepMillis,
		})
	}
	return rows, nil
}

// PrintE8 renders E8 rows.
func PrintE8(w io.Writer, rows []E8Row) {
	fmt.Fprintf(w, "E8  Scaling: prover time and per-vertex verification time (paths)\n")
	fmt.Fprintf(w, "%8s %12s %16s %12s\n", "n", "prove[ms]", "verify[µs/vtx]", "label[bits]")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.2f %16.2f %12d\n", r.N, r.ProveMillis, r.VerifyPerVtxUS, r.LabelBits)
	}
}

// E9Props is the default multi-property workload of E9: seven properties
// that all hold on an even path whose every 2nd vertex is marked X. Names
// resolve through the algebra.ByName catalog (the same source of truth as
// cmd/certify's -prop flag).
var E9Props = []string{
	"bipartite", "3color", "acyclic", "maxdeg:2", "matching",
	"dominating", "independent",
}

// E9Row is one point of the multi-property amortization measurement. The
// JSON tags define the BENCH_E9.json schema tracked across PRs.
type E9Row struct {
	N                 int     `json:"n"`
	B                 int     `json:"b"`
	Props             string  `json:"props"`
	IndependentMillis float64 `json:"independent_ms"`
	BatchMillis       float64 `json:"batch_ms"`
	Speedup           float64 `json:"speedup"`
}

// E9Amortization measures multi-property certification: proving B
// properties of one marked path via core.ProveAll (structure built once,
// per-property algebra passes against it) versus B independent Prove calls
// (each rebuilding the full pipeline). Both sides produce byte-identical
// labelings — pinned here edge by edge — so the speedup is pure
// amortization of the property-independent structure.
func E9Amortization(n int, propNames []string) ([]E9Row, error) {
	g := graph.PathGraph(n)
	cfg := cert.NewConfig(g)
	var marked []graph.Vertex
	for v := 0; v < g.N(); v += 2 {
		marked = append(marked, v)
	}
	cfg.MarkSet(marked)
	props, err := algebra.ByNames(propNames)
	if err != nil {
		return nil, err
	}
	var rows []E9Row
	for b := 1; b <= len(props); b *= 2 {
		sub := props[:b]
		if b*2 > len(props) { // last step: take the full set
			sub = props
		}
		row, err := e9Point(cfg, sub)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if len(sub) == len(props) {
			break
		}
	}
	return rows, nil
}

// labelingDigest compacts a labeling to per-edge FNV-1a hashes of the
// canonical encodings, so byte-identity can be checked across the two
// prover paths without keeping both full labelings alive (retaining B extra
// labelings would distort the timed side with GC scan work).
func labelingDigest(l *core.Labeling) map[graph.Edge]uint64 {
	out := make(map[graph.Edge]uint64, len(l.Edges))
	for e, el := range l.Edges {
		h := fnv.New64a()
		h.Write([]byte(el.Key()))
		out[e] = h.Sum64()
	}
	return out
}

func e9Point(cfg *cert.Config, props []algebra.Property) (E9Row, error) {
	// Independent baseline: B full Prove calls, fresh scheme each (exactly
	// what a naive per-request client would run). Best of two trials per
	// side, as for any wall-clock microbenchmark.
	var indMS float64
	independent := make(map[string]map[graph.Edge]uint64, len(props))
	for trial := 0; trial < 2; trial++ {
		var elapsed time.Duration
		for _, p := range props {
			s := core.NewScheme(p, core.DefaultMaxLanes)
			start := time.Now()
			labeling, _, err := prove(s, cfg, nil)
			elapsed += time.Since(start)
			if err != nil {
				return E9Row{}, fmt.Errorf("e9 %s: %w", p.Name(), err)
			}
			// Digest (and release) outside the timed window — both sides are
			// charged for proving only.
			independent[p.Name()] = labelingDigest(labeling)
		}
		if ms := float64(elapsed.Microseconds()) / 1000; trial == 0 || ms < indMS {
			indMS = ms
		}
	}

	var (
		batchMS   float64
		labelings map[string]*core.Labeling
	)
	for trial := 0; trial < 2; trial++ {
		batch, err := core.NewBatch(props, core.BatchOptions{})
		if err != nil {
			return E9Row{}, err
		}
		start := time.Now()
		sp, err := core.BuildStructureCtx(context.Background(), cfg, nil, core.StructureOptions{})
		if err != nil {
			return E9Row{}, err
		}
		labelings, _, err = batch.ProveAllWithCtx(context.Background(), sp)
		if err != nil {
			return E9Row{}, err
		}
		if ms := float64(time.Since(start).Microseconds()) / 1000; trial == 0 || ms < batchMS {
			batchMS = ms
		}
	}

	// Amortization must not change a single bit of any labeling.
	if len(labelings) != len(independent) {
		return E9Row{}, fmt.Errorf("e9: batch certified %d of %d properties", len(labelings), len(independent))
	}
	names := make([]string, 0, len(props))
	for _, p := range props {
		names = append(names, p.Name())
		ref := independent[p.Name()]
		got := labelingDigest(labelings[p.Name()])
		if len(got) != len(ref) {
			return E9Row{}, fmt.Errorf("e9 %s: edge count differs", p.Name())
		}
		for e, h := range ref {
			if got[e] != h {
				return E9Row{}, fmt.Errorf("e9 %s: batch labeling differs at edge %v", p.Name(), e)
			}
		}
	}
	return E9Row{
		N:                 cfg.G.N(),
		B:                 len(props),
		Props:             strings.Join(names, ","),
		IndependentMillis: indMS,
		BatchMillis:       batchMS,
		Speedup:           indMS / batchMS,
	}, nil
}

// E11Row is one point of the incremental-recertification measurement. The
// JSON tags define the BENCH_E11.json schema tracked across PRs.
type E11Row struct {
	N            int     `json:"n"`
	Locality     string  `json:"locality"`
	Edits        int     `json:"edits"`
	FullMillis   float64 `json:"full_ms"`
	UpdateMillis float64 `json:"update_ms"`
	Speedup      float64 `json:"speedup"`
	DirtyOps     int     `json:"dirty_ops"`
	Fallback     bool    `json:"fallback"`
}

// E11Recertification measures incremental re-certification against the full
// re-prove it replaces. The workload is a ladder (2×k grid, pathwidth 2)
// certified bipartite: for each locality (head, middle, tail of the lane
// order) and batch size, a batch of rung removals is applied through
// core.Incremental and timed, then the inverse batch restores the graph. The
// baseline is a fresh Prove of the same configuration — what every edit would
// cost without the engine. Rung edits stay covered by the retained path
// decomposition, so none of these updates falls back; the Fallback column
// pins that. After each size's sweep the engine's labeling is compared
// edge-by-edge against the fresh prove's, so the timings can never drift away
// from the byte-identity contract unnoticed.
func E11Recertification(ns, batches []int) ([]E11Row, error) {
	const maxLanes = 4
	prop := algebra.Colorable{Q: 2}
	ctx := context.Background()
	var rows []E11Row
	for _, n := range ns {
		k := n / 2
		g := gen.Ladder(k)
		cfg := cert.NewConfig(g)
		var fullMS float64
		for trial := 0; trial < 2; trial++ {
			s := core.NewScheme(prop, maxLanes)
			start := time.Now()
			if _, _, err := prove(s, cfg, nil); err != nil {
				return nil, fmt.Errorf("e11 n=%d full prove: %w", n, err)
			}
			if ms := float64(time.Since(start).Microseconds()) / 1000; trial == 0 || ms < fullMS {
				fullMS = ms
			}
		}
		inc, err := core.NewIncremental(ctx, cert.NewConfig(gen.Ladder(k)),
			[]algebra.Property{prop}, nil, core.IncrementalOptions{MaxLanes: maxLanes})
		if err != nil {
			return nil, fmt.Errorf("e11 n=%d: %w", n, err)
		}
		localities := []struct {
			name  string
			start func(b int) int // first rung of a b-rung batch
		}{
			{"head", func(b int) int { return 1 }},
			{"mid", func(b int) int { return (k - b) / 2 }},
			{"tail", func(b int) int { return k - 1 - b }},
		}
		for _, loc := range localities {
			for _, b := range batches {
				if b+2 > k {
					continue
				}
				first := loc.start(b)
				removes := make([]core.Edit, b)
				adds := make([]core.Edit, b)
				for i := 0; i < b; i++ {
					u, v := graph.Vertex(2*(first+i)), graph.Vertex(2*(first+i)+1)
					removes[i] = core.Edit{Op: core.EditRemove, U: u, V: v}
					adds[i] = core.Edit{Op: core.EditAdd, U: u, V: v}
				}
				var (
					updMS float64
					us    *core.UpdateStats
				)
				for trial := 0; trial < 3; trial++ {
					start := time.Now()
					st, err := inc.UpdateBatch(ctx, removes)
					if err != nil {
						return nil, fmt.Errorf("e11 n=%d %s b=%d remove: %w", n, loc.name, b, err)
					}
					if ms := float64(time.Since(start).Microseconds()) / 1000; trial == 0 || ms < updMS {
						updMS = ms
						us = st
					}
					if _, err := inc.UpdateBatch(ctx, adds); err != nil {
						return nil, fmt.Errorf("e11 n=%d %s b=%d restore: %w", n, loc.name, b, err)
					}
				}
				rows = append(rows, E11Row{
					N: n, Locality: loc.name, Edits: b,
					FullMillis:   fullMS,
					UpdateMillis: updMS,
					Speedup:      fullMS / updMS,
					DirtyOps:     us.DirtyOps,
					Fallback:     us.Fallback,
				})
			}
		}
		// Byte-identity spot check: the engine's labeling must equal a fresh
		// prove of its own graph snapshot. (The snapshot — not the originally
		// generated ladder — is the reference: committed remove+add batches
		// permute adjacency-list order, and the contract is defined against
		// the graph in its current adjacency state.)
		snapG, labs, _, _ := inc.Snapshot()
		got := labelingDigest(labs[prop.Name()])
		refLab, _, err := prove(core.NewScheme(prop, maxLanes), cert.NewConfig(snapG), nil)
		if err != nil {
			return nil, fmt.Errorf("e11 n=%d reference prove: %w", n, err)
		}
		ref := labelingDigest(refLab)
		if len(got) != len(ref) {
			return nil, fmt.Errorf("e11 n=%d: edge count differs after restore", n)
		}
		for e, h := range ref {
			if got[e] != h {
				return nil, fmt.Errorf("e11 n=%d: incremental labeling differs at edge %v", n, e)
			}
		}
	}
	return rows, nil
}

// PrintE11 renders E11 rows.
func PrintE11(w io.Writer, rows []E11Row) {
	fmt.Fprintf(w, "E11 Incremental recertification vs full re-prove (bipartite ladders)\n")
	fmt.Fprintf(w, "%8s %8s %6s %10s %12s %9s %10s %9s\n",
		"n", "locality", "edits", "full[ms]", "update[ms]", "speedup", "dirty ops", "fallback")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8s %6d %10.2f %12.3f %8.1fx %10d %9v\n",
			r.N, r.Locality, r.Edits, r.FullMillis, r.UpdateMillis, r.Speedup, r.DirtyOps, r.Fallback)
	}
}

// PrintE9 renders E9 rows.
func PrintE9(w io.Writer, rows []E9Row) {
	fmt.Fprintf(w, "E9  Amortization: ProveAll (shared structure) vs B independent Prove calls\n")
	fmt.Fprintf(w, "%8s %4s %16s %12s %9s  %s\n", "n", "B", "independent[ms]", "batch[ms]", "speedup", "properties")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %4d %16.1f %12.1f %8.2fx  %s\n",
			r.N, r.B, r.IndependentMillis, r.BatchMillis, r.Speedup, r.Props)
	}
}
