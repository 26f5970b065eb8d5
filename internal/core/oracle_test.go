package core

// Ground-truth soundness oracle (Theorem 1): whenever a labeling is accepted
// at every vertex of a configuration, the configuration satisfies the
// property and has pathwidth at most MaxLanes−1. On graphs of at most
// oracleMaxN vertices both halves are decidable by brute force — the
// catalog's combinatorial oracles or mso.Eval, and interval.ExactPathwidth —
// so the oracle checks soundness against ground truth instead of against a
// hand-picked attack list. The forgeries start from honest labels sent
// through the wire (encoded, then decoded), and either mutate their fields
// or transplant them onto a no-instance of the same shape: one edge
// rewired, one input mark flipped, a smaller lane budget, or a different
// property.

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/mso"
	"repro/internal/msoc"
)

// oracleMaxN bounds the configurations the oracle runs on: mso.Eval and
// exact pathwidth are exponential in n.
const oracleMaxN = 9

// choices turns a fuzz input into a deterministic stream of bounded
// choices. An exhausted stream keeps answering 0, so every input, however
// short, names one complete trial.
type choices struct {
	data []byte
	pos  int
}

func (c *choices) intn(n int) int {
	if n <= 1 || c.pos >= len(c.data) {
		return 0
	}
	v := int(c.data[c.pos])
	c.pos++
	if n > 256 && c.pos < len(c.data) {
		v = v<<8 | int(c.data[c.pos])
		c.pos++
	}
	return v % n
}

var compiledBipartite = sync.OnceValues(func() (*msoc.Prop, error) {
	return msoc.Compile(mso.BipartiteFormula())
})

// oracleProps lists every catalog property (parameterized ones at one
// parameter, the conjunction at one pair) and one compiled formula.
func oracleProps(tb testing.TB) []algebra.Property {
	tb.Helper()
	names := []string{
		"bipartite", "3color", "acyclic", "matching", "hamiltonian",
		"evenedges", "dominating", "independent", "vc:3", "maxdeg:2",
		"and(bipartite,maxdeg:3)",
	}
	props, err := algebra.ByNames(names)
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := compiledBipartite()
	if err != nil {
		tb.Fatal(err)
	}
	return append(props, compiled)
}

// groundTruth decides the property on the configuration without the
// certification pipeline.
func groundTruth(tb testing.TB, cfg *cert.Config, p algebra.Property) bool {
	tb.Helper()
	g := cfg.G
	marked := make([]bool, g.N())
	for v := range marked {
		marked[v] = cfg.Input(v) == 1
	}
	switch q := p.(type) {
	case *msoc.Prop:
		holds, err := mso.Eval(g, q.Formula())
		if err != nil {
			tb.Fatal(err)
		}
		return holds
	case algebra.Colorable:
		return algebra.OracleQColorable(g, q.Q)
	case algebra.Acyclic:
		return algebra.OracleAcyclic(g)
	case algebra.PerfectMatching:
		return algebra.OraclePerfectMatching(g)
	case algebra.HamiltonianCycle:
		return algebra.OracleHamiltonianCycle(g)
	case algebra.EvenEdges:
		return algebra.OracleEvenEdges(g)
	case algebra.DominatingSet:
		return algebra.OracleDominatingSet(g, marked)
	case algebra.IndependentSet:
		return algebra.OracleIndependentSet(g, marked)
	case algebra.VertexCoverAtMost:
		return algebra.OracleVertexCoverAtMost(g, q.C)
	case algebra.MaxDegreeAtMost:
		return algebra.OracleMaxDegreeAtMost(g, q.D)
	case algebra.And:
		return groundTruth(tb, cfg, q.P1) && groundTruth(tb, cfg, q.P2)
	}
	tb.Fatalf("no ground truth for %s", p.Name())
	return false
}

// oracleGraph draws a connected graph of 2..oracleMaxN vertices from the
// generator families or at random.
func oracleGraph(c *choices) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(c.intn(1 << 16))))
	var g *graph.Graph
	switch c.intn(10) {
	case 0:
		g = graph.PathGraph(2 + c.intn(8))
	case 1:
		g = graph.CycleGraph(3 + c.intn(7))
	case 2:
		spine := 1 + c.intn(4)
		g = gen.Caterpillar(spine, c.intn(oracleMaxN/spine))
	case 3:
		g = gen.Lobster(1+c.intn(2), 1+c.intn(2))
	case 4:
		g = gen.Ladder(2 + c.intn(3))
	case 5:
		g = gen.Grid(2+c.intn(2), 2+c.intn(2))
	case 6:
		g = gen.BinaryTree(2 + c.intn(2))
	case 7:
		g, _ = gen.IntervalGraph(rng, 2+c.intn(8), 2+c.intn(3))
	case 8:
		g = gen.SpiderFreeCaterpillar(rng, 2+c.intn(8))
	default:
		n := 2 + c.intn(8)
		g = graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(v, rng.Intn(v))
		}
		for extra := c.intn(n); extra > 0; extra-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	if g.N() < 2 || g.N() > oracleMaxN {
		return graph.PathGraph(2 + c.intn(8))
	}
	return g
}

// oracleStats counts what one run exercised, for logging and for the
// non-vacuity checks of the deterministic test.
type oracleStats struct {
	trials, proved, forgeries, accepted, acceptedNo int
}

// wireRoundTrip encodes every label and decodes the lot with one Decoder,
// as UnmarshalBinary does; ok is false when some label does not decode.
func wireRoundTrip(l *Labeling) (*Labeling, bool) {
	var dec Decoder
	out := &Labeling{Edges: make(map[graph.Edge]*EdgeLabel, len(l.Edges))}
	for e, el := range l.Edges {
		data, nbits := EncodeLabel(el)
		back, err := dec.DecodeLabel(data, nbits)
		if err != nil {
			return nil, false
		}
		out.Edges[e] = back
	}
	return out, true
}

// runOracle plays one trial: prove a small yes-instance, forge a labeling
// for a configuration of the same shape, and check the oracle on every
// forgery some verifier accepts.
func runOracle(tb testing.TB, props []algebra.Property, c *choices, st *oracleStats) {
	tb.Helper()
	st.trials++
	g := oracleGraph(c)
	prop := props[c.intn(len(props))]
	k := 2 + c.intn(5)
	cfg := cert.NewConfig(g)
	marks := rand.New(rand.NewSource(int64(c.intn(1 << 16))))
	var marked []graph.Vertex
	for v := range g.N() {
		if marks.Intn(2) == 0 {
			marked = append(marked, v)
		}
	}
	cfg.MarkSet(marked)
	s := NewScheme(prop, k)
	s.Workers = 1
	honest, _, err := proveOpts(s, cfg, nil, StructureOptions{Parallelism: 1})
	if err != nil {
		return // not a yes-instance under this budget: nothing to forge from
	}
	st.proved++
	decoded, ok := wireRoundTrip(honest)
	if !ok {
		tb.Fatal("an honest labeling does not survive the wire")
	}

	target, targetProp, targetK := cfg, prop, k
	forged := decoded
	switch c.intn(5) {
	case 0: // mutation only
	case 1:
		target, forged = rewireEdge(c, cfg, decoded)
	case 2: // flip one input mark
		target = &cert.Config{G: g, IDs: cfg.IDs, VInput: slices.Clone(cfg.VInput)}
		target.VInput[c.intn(g.N())] ^= 1
	case 3: // shrink the lane budget
		targetK = 1 + c.intn(k)
	case 4: // verify as another property
		targetProp = props[c.intn(len(props))]
	}
	if target == nil {
		return
	}
	if c.intn(3) > 0 {
		orig := forged
		forged = forged.Clone()
		mutateLabeling(c, forged, orig, target)
	}
	variants := []*Labeling{forged}
	if wire, ok := wireRoundTrip(forged); ok {
		variants = append(variants, wire)
	}
	for _, l := range variants {
		st.forgeries++
		if !oracleAccepts(tb, targetProp, targetK, target, l) {
			continue
		}
		st.accepted++
		if target != cfg || targetK != k || targetProp != prop {
			st.acceptedNo++
		}
		if !groundTruth(tb, target, targetProp) {
			tb.Fatalf("%s accepted on a configuration where it does not hold (n=%d, edges %v, inputs %v, lanes %d)",
				targetProp.Name(), target.G.N(), target.G.Edges(), target.VInput, targetK)
		}
		pw, _, err := interval.ExactPathwidth(target.G)
		if err != nil {
			tb.Fatal(err)
		}
		if pw > targetK-1 {
			tb.Fatalf("%s accepted under %d lanes on a graph of pathwidth %d (edges %v)",
				targetProp.Name(), targetK, pw, target.G.Edges())
		}
	}
}

// oracleAccepts verifies as a fresh process would: the class registry is
// rebuilt from the labeling, and an inconsistent table is a rejection.
func oracleAccepts(tb testing.TB, prop algebra.Property, k int, cfg *cert.Config, l *Labeling) bool {
	tb.Helper()
	s := NewScheme(prop, k)
	s.Workers = 1
	if err := s.RebuildRegistry(l); err != nil {
		return false
	}
	verdicts, err := s.VerifyParallelCtx(context.Background(), cfg, l)
	if err != nil {
		tb.Fatalf("verify: %v", err)
	}
	return AllAccept(verdicts)
}

// rewireEdge moves one edge's label onto a non-edge: the target graph has
// the same vertex and edge counts, and every other edge keeps its label.
// It returns a nil configuration when the graph is complete or the rewired
// graph is disconnected.
func rewireEdge(c *choices, cfg *cert.Config, l *Labeling) (*cert.Config, *Labeling) {
	g := cfg.G
	edges := g.Edges()
	var non []graph.Edge
	for u := range g.N() {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				non = append(non, graph.NewEdge(u, v))
			}
		}
	}
	if len(non) == 0 {
		return nil, nil
	}
	drop, add := edges[c.intn(len(edges))], non[c.intn(len(non))]
	h := graph.New(g.N())
	out := &Labeling{Edges: make(map[graph.Edge]*EdgeLabel, len(edges))}
	for _, e := range edges {
		if e != drop {
			h.MustAddEdge(e.U, e.V)
			out.Edges[e] = l.Edges[e]
		}
	}
	h.MustAddEdge(add.U, add.V)
	out.Edges[add] = l.Edges[drop]
	if !h.Connected() {
		return nil, nil
	}
	return &cert.Config{G: h, IDs: cfg.IDs, VInput: cfg.VInput}, out
}

// entrySite pairs a node entry of a cloned labeling with the entry of the
// decoded labeling it was cloned from. Decoded labels share one pointer per
// distinct entry, so grouping sites by that pointer finds every copy of
// one entry across the labeling.
type entrySite struct {
	orig, copy *NodeEntry
}

func entrySites(clone, orig *Labeling, edges []graph.Edge) []entrySite {
	var sites []entrySite
	pair := func(a, b *CEdgeLabel) {
		for i := range a.Path {
			sites = append(sites, entrySite{orig: b.Path[i], copy: a.Path[i]})
		}
	}
	for _, e := range edges {
		a, b := clone.Edges[e], orig.Edges[e]
		if a.Own != nil {
			pair(a.Own, b.Own)
		}
		for i := range a.Emb {
			pair(a.Emb[i].Payload, b.Emb[i].Payload)
		}
	}
	return sites
}

// mutateLabeling applies one field mutation to the clone: to one copy of
// a node entry, to every copy of it (a consistent forgery, which the
// per-vertex agreement checks cannot catch), or to one label's own
// embedding and pointing fields. orig is the labeling the clone was taken
// from, for the configuration cfg; its entries are never written.
func mutateLabeling(c *choices, clone, orig *Labeling, cfg *cert.Config) {
	edges := cfg.G.Edges()
	sites := entrySites(clone, orig, edges)
	if len(sites) == 0 || len(edges) == 0 {
		return
	}
	var classIDs, nodeIDs []int
	for _, s := range sites {
		merged := 0
		if s.orig.member() {
			merged = s.orig.Classes[1]
		}
		classIDs = append(classIDs, s.orig.Classes[0], merged)
		nodeIDs = append(nodeIDs, s.orig.NodeID)
	}
	vertexID := func() uint64 {
		switch c.intn(4) {
		case 0:
			return 0
		case 1:
			return uint64(cfg.G.N()) + 1
		default:
			return cfg.IDs[c.intn(len(cfg.IDs))]
		}
	}
	// classID rewrites an id: its hash's next collision rank, its low bit,
	// or another id the labeling uses. The rewrite is drawn once and
	// applied to each copy's own value.
	classID := func() func(int) int {
		kind, other := c.intn(3), classIDs[c.intn(len(classIDs))]
		return func(old int) int {
			switch kind {
			case 0:
				return old + 1<<16
			case 1:
				return old ^ 1
			}
			return other
		}
	}
	nodeID := func(old int) int {
		if c.intn(2) == 0 {
			return old + 1
		}
		return nodeIDs[c.intn(len(nodeIDs))]
	}
	setID := func(ids []uint64, i int, v uint64) {
		if len(ids) > 0 {
			ids[i%len(ids)] = v
		}
	}

	if c.intn(4) == 0 { // the label's own fields
		el := clone.Edges[edges[c.intn(len(edges))]]
		switch c.intn(3) {
		case 0:
			if len(el.Emb) > 0 {
				emb := &el.Emb[c.intn(len(el.Emb))]
				switch c.intn(4) {
				case 0:
					emb.UID = vertexID()
				case 1:
					emb.VID = vertexID()
				case 2:
					emb.Fwd += 1 - 2*c.intn(2)
				default:
					emb.Bwd += 1 - 2*c.intn(2)
				}
			}
		case 1:
			if el.Pointing != nil {
				switch c.intn(4) {
				case 0:
					el.Pointing.X = vertexID()
				case 1:
					el.Pointing.UID = vertexID()
				case 2:
					el.Pointing.DU++
				default:
					el.Pointing.DV++
				}
			}
		default:
			if el.Own != nil {
				el.Own.OwnerPos += 1 - 2*c.intn(2)
			}
		}
		return
	}

	// One mutation, drawn once, applied to one copy or to every copy of
	// the chosen entry.
	i := c.intn(oracleMaxN)
	var mut func(e *NodeEntry)
	switch c.intn(8) {
	case 0: // a class id
		re := classID()
		switch c.intn(4) {
		case 0:
			mut = func(e *NodeEntry) { e.Classes[0] = re(e.Classes[0]) }
		case 1:
			mut = func(e *NodeEntry) {
				if e.member() {
					e.Classes[1] = re(e.Classes[1])
				}
			}
		case 2:
			mut = func(e *NodeEntry) {
				if len(e.Children) > 0 {
					k := 2 + i%len(e.Children)
					e.Classes[k] = re(e.Classes[k])
				}
			}
		default:
			mut = func(e *NodeEntry) {
				if e.Left != nil {
					e.Classes[e.opsAt()] = re(e.Classes[e.opsAt()])
				}
			}
		}
	case 1: // a vertex id
		v := vertexID()
		switch c.intn(4) {
		case 0:
			mut = func(e *NodeEntry) { setID(e.InIDs, i, v) }
		case 1:
			mut = func(e *NodeEntry) { setID(e.OutIDs, i, v) }
		case 2:
			mut = func(e *NodeEntry) { setID(e.PathIDs, i, v) }
		default:
			mut = func(e *NodeEntry) {
				if len(e.Children) > 0 {
					setID(e.Children[i%len(e.Children)].InIDs, i, v)
				}
			}
		}
	case 2: // a node id
		switch c.intn(3) {
		case 0:
			v := nodeID(0)
			mut = func(e *NodeEntry) { e.NodeID = v }
		case 1:
			v := nodeID(-1)
			mut = func(e *NodeEntry) { setParent(e, v) }
		default:
			v := nodeID(0)
			mut = func(e *NodeEntry) {
				if len(e.Children) > 0 {
					e.Children[i%len(e.Children)].NodeID = v
				}
			}
		}
	case 3: // a lane
		v := c.intn(8)
		mut = func(e *NodeEntry) {
			if len(e.Lanes) > 0 {
				e.Lanes[i%len(e.Lanes)] = v
			}
		}
	case 4: // a real bit
		mut = func(e *NodeEntry) {
			if len(e.RealBits) > 0 {
				e.RealBits[i%len(e.RealBits)] = !e.RealBits[i%len(e.RealBits)]
			} else {
				e.BridgeReal = !e.BridgeReal
			}
		}
	case 5: // an input carried for a path vertex
		mut = func(e *NodeEntry) {
			if len(e.VInputs) > 0 {
				e.VInputs[i%len(e.VInputs)] ^= 1
			}
		}
	case 6: // bridge lanes
		mut = func(e *NodeEntry) { e.LaneI, e.LaneJ = e.LaneJ, e.LaneI }
	default: // drop tree membership
		mut = func(e *NodeEntry) {
			setParent(e, -1)
			e.MergedOutIDs, e.Children = nil, nil
		}
	}
	target := sites[c.intn(len(sites))].orig
	if c.intn(2) == 0 {
		for _, s := range sites {
			if s.orig == target {
				mut(s.copy)
			}
		}
		return
	}
	for _, s := range sites {
		if s.orig == target {
			mut(s.copy)
			return
		}
	}
}

// setParent sets an entry's parent id and keeps its class vector in step
// with its membership: an entry that joins a tree gets merged class 0 and
// no child classes, and one that leaves a tree loses its merged and child
// classes (its children and merged out-terminals stay, unwritten).
func setParent(e *NodeEntry, parent int) {
	switch {
	case !e.member() && parent != -1:
		e.Classes = slices.Insert(e.Classes, 1, 0)
		e.Children = nil
	case e.member() && parent == -1:
		e.Classes = slices.Delete(e.Classes, 1, e.opsAt())
	}
	e.ParentID = parent
}

// TestSoundnessOracle runs the oracle over a fixed pseudo-random sample of
// trials: every property, every generator family, every forgery kind. It
// also pins that the sample is not vacuous — honest proofs exist to forge
// from, and some forgeries on other configurations are accepted (where
// they legitimately hold) and checked against ground truth.
func TestSoundnessOracle(t *testing.T) {
	props := oracleProps(t)
	rng := rand.New(rand.NewSource(1))
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	var st oracleStats
	for range trials {
		data := make([]byte, 48)
		rng.Read(data)
		runOracle(t, props, &choices{data: data}, &st)
	}
	t.Logf("trials=%d proved=%d forgeries=%d accepted=%d accepted-elsewhere=%d",
		st.trials, st.proved, st.forgeries, st.accepted, st.acceptedNo)
	if st.proved < trials/10 || st.acceptedNo == 0 {
		t.Fatalf("vacuous sample: %+v", st)
	}
}

// FuzzSoundnessOracle lets the fuzzer choose the trial: graph, property,
// lane budget, marks, forgery kind and mutation are all read from the
// input. CI runs it for a short smoke; any counterexample it finds is a
// soundness bug, to be fixed and kept as a seed.
func FuzzSoundnessOracle(f *testing.F) {
	props := oracleProps(f)
	rng := rand.New(rand.NewSource(2))
	for range 16 {
		data := make([]byte, 48)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st oracleStats
		runOracle(t, props, &choices{data: data}, &st)
	})
}
