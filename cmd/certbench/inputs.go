package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/certify"
	"repro/certify/graphio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// graphSpec is one generated input: the edge list the program receives,
// in generation order with u < v. The benchmark owns its generators, so the
// inputs for a seed stay fixed however the program's own generators change.
type graphSpec struct {
	family string
	n      int
	edges  [][2]int
}

// edgeList renders the spec in graphio's native edge-list format — the
// bytes a user would hand to cmd/certify or POST to certifyd.
func (s graphSpec) edgeList() []byte {
	var b bytes.Buffer
	b.Grow(12 * (len(s.edges) + 1))
	fmt.Fprintf(&b, "n %d\n", s.n)
	for _, e := range s.edges {
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(e[1]))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ingest hands the edge list to the program through its public reader.
func (s graphSpec) ingest() (*certify.Graph, error) {
	return graphio.Read(bytes.NewReader(s.edgeList()), graphio.FormatEdgeList)
}

// config builds the configuration the internal layers consume, for the
// traced replays. graphio adds the edges to the graph in file order, and
// so does this, so the two graphs have identical adjacency order and the
// replays certify exactly what the facade certifies.
func (s graphSpec) config() (*cert.Config, error) {
	es := make([]graph.Edge, len(s.edges))
	for i, e := range s.edges {
		es[i] = graph.Edge{U: e[0], V: e[1]}
	}
	g, err := graph.FromEdges(s.n, es)
	if err != nil {
		return nil, err
	}
	return cert.NewConfig(g), nil
}

func (s graphSpec) maxDegree() int {
	deg := make([]int, s.n)
	best := 0
	for _, e := range s.edges {
		for _, v := range e {
			deg[v]++
			best = max(best, deg[v])
		}
	}
	return best
}

// edgeSet accumulates normalized edges in insertion order.
type edgeSet struct {
	edges [][2]int
	has   map[[2]int]bool
}

func (es *edgeSet) add(u, v int) {
	if u > v {
		u, v = v, u
	}
	k := [2]int{u, v}
	if es.has == nil {
		es.has = map[[2]int]bool{}
	}
	if !es.has[k] {
		es.has[k] = true
		es.edges = append(es.edges, k)
	}
}

// intervalGraph is a connected interval graph of clique number ≤ k from a
// birth/death process over at most k simultaneously open intervals: each
// newcomer joins one random open vertex and each other one with
// probability 1/3. Its pathwidth is at most k−1.
func intervalGraph(rng *rand.Rand, n, k int) graphSpec {
	var es edgeSet
	var active []int
	next := 0
	for next < n || len(active) > 0 {
		canOpen := next < n && len(active) < k
		if len(active) == 0 || (canOpen && rng.Intn(2) == 0) {
			v := next
			next++
			if len(active) > 0 {
				first := active[rng.Intn(len(active))]
				es.add(v, first)
				for _, w := range active {
					if w != first && rng.Intn(3) == 0 {
						es.add(v, w)
					}
				}
			}
			active = append(active, v)
			continue
		}
		if len(active) == 1 && next < n {
			continue
		}
		idx := rng.Intn(len(active))
		active = append(active[:idx], active[idx+1:]...)
	}
	return graphSpec{family: "interval", n: n, edges: es.edges}
}

// caterpillar is a spine path whose vertices carry 0–2 pendant legs each
// (legLen 1) or pendant two-edge paths (legLen 2, a lobster), grown until
// the graph has n vertices.
func caterpillar(rng *rand.Rand, n, legLen int) graphSpec {
	family := "caterpillar"
	if legLen == 2 {
		family = "lobster"
	}
	var es edgeSet
	v := 1
	for spine := 0; v < n; {
		for l := rng.Intn(3); l > 0 && v+legLen <= n; l-- {
			prev := spine
			for i := 0; i < legLen; i++ {
				es.add(prev, v)
				prev = v
				v++
			}
		}
		if v < n {
			es.add(spine, v)
			spine = v
			v++
		}
	}
	return graphSpec{family: family, n: n, edges: es.edges}
}

// ladder is the 2×rungs grid; rung i is the edge {2i, 2i+1}.
func ladder(rungs int) graphSpec {
	var es edgeSet
	for i := 0; i < rungs; i++ {
		es.add(2*i, 2*i+1)
		if i > 0 {
			es.add(2*(i-1), 2*i)
			es.add(2*(i-1)+1, 2*i+1)
		}
	}
	return graphSpec{family: "ladder", n: 2 * rungs, edges: es.edges}
}

// route names one certifyd request kind of the service mix.
type route int

const (
	routeProve route = iota
	routeFetch
	routeVerify
	routeVerifyDist
	routePatch
	numRoutes
)

var routeNames = [numRoutes]string{"prove", "fetch", "verify", "verify_dist", "patch"}

func (r route) String() string { return routeNames[r] }

// mixDeck is the service mix as whole cards per 20 requests — prove 35%,
// fetch 15%, verify 35%, distributed verify 5%, PATCH 10% — so every seed
// offers exactly the stated proportions and only their order varies.
var mixDeck = [numRoutes]int{7, 3, 7, 1, 2}

// serviceSlot is one stored graph of the service mix and the property sets
// requests name on it; every set holds on the graph.
type serviceSlot struct {
	spec graphSpec
	sets [][]string
}

// request is one scheduled certifyd call. ticket orders the requests of
// one slot: they start in schedule order, so a PATCH's rung toggle and the
// fingerprint every later request names are fixed by the seed.
type request struct {
	due    time.Duration
	route  route
	slot   int
	set    int  // index into the slot's property sets
	rung   int  // PATCH: the ladder rung toggled
	remove bool // PATCH: remove (true) or re-add the rung
	ticket int
}

// serviceSlots generates the eight stored graphs: two each of interval,
// caterpillar, lobster and ladder, all near n.
func serviceSlots(rng *rand.Rand, n int) []serviceSlot {
	var out []serviceSlot
	for i := 0; i < 2; i++ {
		iv := intervalGraph(rng, n, 3)
		d := "maxdeg:" + strconv.Itoa(iv.maxDegree())
		out = append(out, serviceSlot{iv, [][]string{{"3color"}, {d}, {"3color", d}}})
	}
	for _, legLen := range []int{1, 2} {
		for i := 0; i < 2; i++ {
			c := caterpillar(rng, n, legLen)
			d := "maxdeg:" + strconv.Itoa(c.maxDegree())
			out = append(out, serviceSlot{c, [][]string{{"bipartite"}, {"acyclic"}, {"bipartite", d}}})
		}
	}
	// Two ladders of different lengths: equal graphs would share one store
	// entry. The first set is the PATCH set: it is the only certificate a
	// patched slot is sure to hold, so fetch and verify on ladders name it.
	rungs := n/2 - rng.Intn(4)
	for _, r := range []int{rungs, rungs - 1 - rng.Intn(4)} {
		out = append(out, serviceSlot{ladder(r), [][]string{{"bipartite"}, {"maxdeg:3"}, {"bipartite", "maxdeg:3"}}})
	}
	return out
}

func isLadder(s serviceSlot) bool { return s.spec.family == "ladder" }

// schedule draws the open-loop arrivals: exactly rate×seconds requests at
// uniformly random times (a Poisson process conditioned on its count),
// their kinds dealt from shuffled mix decks, and their targets.
func schedule(rng *rand.Rand, slots []serviceSlot, rate float64, seconds float64) []request {
	count := int(rate*seconds + 0.5)
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	var deck []route
	var ladders []int
	for i, s := range slots {
		if isLadder(s) {
			ladders = append(ladders, i)
		}
	}
	removed := make([]map[int]bool, len(slots))
	tickets := make([]int, len(slots))
	out := make([]request, count)
	for i := range out {
		if len(deck) == 0 {
			for r, k := range mixDeck {
				for ; k > 0; k-- {
					deck = append(deck, route(r))
				}
			}
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		req := request{due: dues[i], route: deck[0]}
		deck = deck[1:]
		switch req.route {
		case routePatch:
			req.slot = ladders[rng.Intn(len(ladders))]
			// Interior rungs only: the rails keep the ladder connected.
			rungs := slots[req.slot].spec.n / 2
			req.rung = 1 + rng.Intn(rungs-2)
			if removed[req.slot] == nil {
				removed[req.slot] = map[int]bool{}
			}
			req.remove = !removed[req.slot][req.rung]
			removed[req.slot][req.rung] = req.remove
		default:
			req.slot = rng.Intn(len(slots))
			req.set = rng.Intn(len(slots[req.slot].sets))
			if req.route != routeProve && isLadder(slots[req.slot]) {
				req.set = 0
			}
		}
		req.ticket = tickets[req.slot]
		tickets[req.slot]++
		out[i] = req
	}
	return out
}
