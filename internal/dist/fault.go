// Package dist is the transient-fault catalog of the self-stabilization
// scenario (the paper's Section 1 motivation): a fault mutates the label
// memory of one edge, and soundness of the scheme (Theorem 1) means one
// verification round detects every such corruption at some processor.
// certify's Corrupt, the corruption experiments and the fault controller
// of certify/distnet all inject through this catalog (Fault, AllFaults,
// Inject).
package dist

import (
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// Fault is one kind of transient label corruption.
type Fault int

const (
	// FlipClass bumps the homomorphism-class id of one node entry on one
	// edge's certificate path.
	FlipClass Fault = iota
	// FlipRealBit toggles a real/virtual marker bit of one node entry.
	FlipRealBit
	// ShiftTerminal perturbs one out-terminal identifier of a node entry.
	ShiftTerminal
	// RankSkew perturbs the forward rank of one embedding entry.
	RankSkew
	// EraseLabel wipes an edge's entire label memory.
	EraseLabel

	numFaults // must stay last
)

// AllFaults lists every fault kind, in the order cmd/certify documents.
var AllFaults = []Fault{FlipClass, FlipRealBit, ShiftTerminal, RankSkew, EraseLabel}

// String returns the fault's command-line name.
func (f Fault) String() string {
	switch f {
	case FlipClass:
		return "flip-class"
	case FlipRealBit:
		return "flip-real-bit"
	case ShiftTerminal:
		return "shift-terminal"
	case RankSkew:
		return "rank-skew"
	case EraseLabel:
		return "erase-label"
	}
	return "unknown-fault"
}

// Injector mutates one edge label in place, reporting whether the fault
// was applicable to that label. Injectors are exported so that harnesses
// (internal/experiments E5) share this exact corruption model instead of
// mirroring it.
type Injector func(rng *rand.Rand, el *core.EdgeLabel) bool

// InjectorFor returns the injector implementing the fault.
func InjectorFor(f Fault) Injector {
	switch f {
	case FlipClass:
		return injectFlipClass
	case FlipRealBit:
		return injectFlipRealBit
	case ShiftTerminal:
		return injectShiftTerminal
	case RankSkew:
		return injectRankSkew
	case EraseLabel:
		return injectEraseLabel
	}
	return nil
}

// Inject applies the fault to one label chosen at random among those it
// applies to, and returns that label's edge and its corrupted copy, or
// ok=false when no label can host the fault. edges lists the labeling's
// edges in canonical order (graph.CompareEdges), so the choice is
// reproducible per rng seed; label returns an edge's label and is called
// only for the edges Inject probes (nil for a label known not to host the
// fault, see Hosted). No label is mutated: the chosen one is deep-cloned,
// and the caller swaps the copy in.
func Inject(rng *rand.Rand, edges []graph.Edge, label func(graph.Edge) *core.EdgeLabel, f Fault) (graph.Edge, *core.EdgeLabel, bool) {
	inject := InjectorFor(f)
	if inject == nil {
		return graph.Edge{}, nil, false
	}
	// The edges are tried in a seeded random order: a shuffle of their
	// positions, which draws from rng exactly as shuffling the edges would.
	// Candidates are probed with hosts before anything is cloned, and an
	// injector draws from rng only once it applies, so probing changes
	// neither the chosen edge nor the corruption.
	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, i := range order {
		el := label(edges[i])
		if !f.hosts(el) {
			continue
		}
		trial := el.Clone()
		inject(rng, trial) // hosts(el) holds, so it applies to the clone
		return edges[i], trial, true
	}
	return graph.Edge{}, nil, false
}

// FaultSet is a set of faults of the catalog, one bit per fault.
type FaultSet uint8

// A FaultSet has a bit for every fault of the catalog.
var _ [8 - numFaults]struct{}

// Has reports whether the fault is in the set.
func (s FaultSet) Has(f Fault) bool { return s&(1<<f) != 0 }

// Hosted returns the faults that apply to the label. A holder of encoded
// labels keeps it per label, so that Inject's label accessor can answer
// nil for a label that cannot host the fault without decoding it.
func Hosted(el *core.EdgeLabel) FaultSet {
	var s FaultSet
	for _, f := range AllFaults {
		if f.hosts(el) {
			s |= 1 << f
		}
	}
	return s
}

// hosts reports whether the fault applies to the label: exactly the
// injector's early returns, evaluated without mutating or cloning. A clone
// keeps every length these read, so it answers the same for el.Clone().
func (f Fault) hosts(el *core.EdgeLabel) bool {
	if el == nil {
		return false
	}
	switch f {
	case FlipClass:
		return el.Own != nil && len(el.Own.Path) > 0
	case FlipRealBit:
		return el.Own != nil && slices.ContainsFunc(el.Own.Path, func(en *core.NodeEntry) bool { return len(en.RealBits) > 0 })
	case ShiftTerminal:
		return el.Own != nil && slices.ContainsFunc(el.Own.Path, func(en *core.NodeEntry) bool { return len(en.OutIDs) > 0 })
	case RankSkew:
		return len(el.Emb) > 0
	case EraseLabel:
		return el.Own != nil || len(el.Emb) > 0 || el.Pointing != nil
	}
	return false
}

func injectFlipClass(rng *rand.Rand, el *core.EdgeLabel) bool {
	if !FlipClass.hosts(el) {
		return false
	}
	el.Own.Path[rng.Intn(len(el.Own.Path))].Classes[0] += 1 + rng.Intn(3)
	return true
}

func injectFlipRealBit(rng *rand.Rand, el *core.EdgeLabel) bool {
	if !FlipRealBit.hosts(el) {
		return false
	}
	var candidates []*core.NodeEntry
	for _, en := range el.Own.Path {
		if len(en.RealBits) > 0 {
			candidates = append(candidates, en)
		}
	}
	en := candidates[rng.Intn(len(candidates))]
	i := rng.Intn(len(en.RealBits))
	en.RealBits[i] = !en.RealBits[i]
	return true
}

func injectShiftTerminal(rng *rand.Rand, el *core.EdgeLabel) bool {
	if !ShiftTerminal.hosts(el) {
		return false
	}
	var candidates []*core.NodeEntry
	for _, en := range el.Own.Path {
		if len(en.OutIDs) > 0 {
			candidates = append(candidates, en)
		}
	}
	en := candidates[rng.Intn(len(candidates))]
	// OutIDs is aligned with the sorted lanes, so index i is the i-th
	// smallest lane.
	en.OutIDs[rng.Intn(len(en.OutIDs))] += 1 + uint64(rng.Intn(5))
	return true
}

func injectRankSkew(rng *rand.Rand, el *core.EdgeLabel) bool {
	if !RankSkew.hosts(el) {
		return false
	}
	el.Emb[rng.Intn(len(el.Emb))].Fwd += 1 + rng.Intn(2)
	return true
}

func injectEraseLabel(_ *rand.Rand, el *core.EdgeLabel) bool {
	if !EraseLabel.hosts(el) {
		return false // nothing left to erase — not a new corruption
	}
	el.Own = nil
	el.Emb = nil
	el.Pointing = nil
	return true
}
