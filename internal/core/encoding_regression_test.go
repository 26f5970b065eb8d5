package core

// Regression pins for the cached-encoding optimization: the memoized
// Key/Bits/encode paths must be bit-identical to a naive re-encode, Prove
// must stay deterministic (same labels and stats on every run), and payload
// sharing must hold (every EmbEntry of one virtual edge references one
// certificate).

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
)

type regressionConfig struct {
	name string
	g    *graph.Graph
	prop algebra.Property
}

// regressionConfigs pairs one representative graph per internal/gen family
// with a property that holds on it (bipartite where the family is bipartite;
// 3-colorability for the triangle-bearing interval and lanewidth families,
// whose pathwidth ≤ 2 guarantees χ ≤ 3).
func regressionConfigs(t *testing.T) []regressionConfig {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 40, 2)
	lb, err := gen.LanewidthGraph(rng, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	two := algebra.Colorable{Q: 2}
	three := algebra.Colorable{Q: 3}
	return []regressionConfig{
		{"path", graph.PathGraph(32), two},
		{"cycle", graph.CycleGraph(22), two},
		{"caterpillar", gen.Caterpillar(8, 2), two},
		{"lobster", gen.Lobster(6, 1), two},
		{"ladder", gen.Ladder(7), two},
		{"interval", ig, three},
		{"lanewidth", lb.Graph(), three},
		{"spiderfree", gen.SpiderFreeCaterpillar(rng, 24), two},
	}
}

// TestProveBitIdenticalToNaiveReference proves every family twice and checks
// the labelings are key-identical edge for edge with identical stats, and
// that each label's cached encoding equals a cold re-encode of a deep clone
// (clones carry no cache, so their Key() runs the raw encoder).
func TestProveBitIdenticalToNaiveReference(t *testing.T) {
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			prove := func() (*cert.Config, *Labeling, *Stats) {
				s := NewScheme(tc.prop, 8)
				cfg := cert.NewConfig(tc.g)
				labeling, stats, err := prove(s, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				return cfg, labeling, stats
			}
			_, l1, st1 := prove()
			_, l2, st2 := prove()
			// Stage timings are wall-clock, never comparable across runs.
			s1, s2 := *st1, *st2
			s1.Stages, s2.Stages = StageTimings{}, StageTimings{}
			if s1 != s2 {
				t.Fatalf("stats differ across runs: %+v vs %+v", s1, s2)
			}
			if len(l1.Edges) != len(l2.Edges) {
				t.Fatalf("edge count differs: %d vs %d", len(l1.Edges), len(l2.Edges))
			}
			for e, el := range l1.Edges {
				other := l2.Edges[e]
				if other == nil {
					t.Fatalf("edge %v missing from second run", e)
				}
				if el.Key() != other.Key() {
					t.Fatalf("edge %v: labels differ across runs", e)
				}
				// Cache vs naive: a clone has a cold cache, so its Key() is
				// the ground-truth raw encoding.
				cold := el.Clone()
				if el.Key() != cold.Key() {
					t.Fatalf("edge %v: cached key differs from raw re-encode", e)
				}
				if el.Bits() != cold.Bits() {
					t.Fatalf("edge %v: cached bits %d, raw %d", e, el.Bits(), cold.Bits())
				}
				data, nbits := EncodeLabel(el)
				coldData, coldBits := EncodeLabel(cold)
				if nbits != coldBits || string(data) != string(coldData) {
					t.Fatalf("edge %v: cached encode differs from raw encode", e)
				}
				// Size accounting must agree with the materialized encoding.
				if el.Bits() != nbits {
					t.Fatalf("edge %v: Bits()=%d but encoding has %d bits", e, el.Bits(), nbits)
				}
			}
		})
	}
}

// TestEmbPayloadSharing checks that all EmbEntry copies of one virtual edge
// point at a single shared certificate (the optimization that keeps label
// construction linear in the total embedding length).
func TestEmbPayloadSharing(t *testing.T) {
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling, _, err := prove(s, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			payloads := map[[2]uint64]*CEdgeLabel{}
			for e, el := range labeling.Edges {
				for _, emb := range el.Emb {
					key := [2]uint64{emb.UID, emb.VID}
					if prev, ok := payloads[key]; ok {
						if prev != emb.Payload {
							t.Fatalf("edge %v: virtual edge %v has a second payload instance", e, key)
						}
						continue
					}
					payloads[key] = emb.Payload
				}
			}
		})
	}
}
