package core

// Byte-identity pins for parallel proving: the worker count is a throughput
// knob, never a semantic one. Every generator family must produce the exact
// same labels, keys, and stats at workers 1 (every pool loop runs inline),
// 2 (the smallest count that runs the level-synchronized sweep and the
// label build on goroutines), and 0 (= GOMAXPROCS, whatever the host has).
// The bytes themselves are pinned against a committed digest table by the
// certify package's golden tests.

import (
	"testing"

	"repro/internal/cert"
)

// TestProveByteIdenticalAcrossWorkers proves every regression family at
// worker counts 1, 2, and 0 (=GOMAXPROCS) and checks the labelings are
// key-identical edge for edge with identical stats: the sweep, the deferred
// registry interning, and the label build give the same bytes inline and on
// goroutines.
func TestProveByteIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			proveAt := func(workers int) (*Labeling, *Stats) {
				s := NewScheme(tc.prop, 8)
				s.Workers = workers
				cfg := cert.NewConfig(tc.g)
				labeling, stats, err := prove(s, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				return labeling, stats
			}
			refLab, refStats := proveAt(1)
			for _, workers := range []int{2, 0} {
				lab, stats := proveAt(workers)
				// Stage timings are wall-clock, never comparable across runs.
				s1, s2 := *refStats, *stats
				s1.Stages, s2.Stages = StageTimings{}, StageTimings{}
				if s1 != s2 {
					t.Fatalf("workers=%d: stats differ from sequential: %+v vs %+v", workers, s2, s1)
				}
				if len(lab.Edges) != len(refLab.Edges) {
					t.Fatalf("workers=%d: edge count %d, sequential has %d", workers, len(lab.Edges), len(refLab.Edges))
				}
				for e, want := range refLab.Edges {
					got := lab.Edges[e]
					if got == nil {
						t.Fatalf("workers=%d: edge %v missing", workers, e)
					}
					if got.Key() != want.Key() {
						t.Fatalf("workers=%d: edge %v label differs from sequential", workers, e)
					}
					gd, gb := EncodeLabel(got)
					wd, wb := EncodeLabel(want)
					if gb != wb || string(gd) != string(wd) {
						t.Fatalf("workers=%d: edge %v encoding differs from sequential", workers, e)
					}
				}
			}
		})
	}
}
