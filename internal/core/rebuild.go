package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/lanewidth"
)

// ErrRegistryRebuild is returned by RebuildRegistry when a labeling does not
// determine a consistent class table: two entries pin the same class id to
// different classes, or a referenced id has no recomputable definition. An
// honest certificate never trips it — the prover's registry is a function of
// the labeling's own contents — so callers treat it as a rejected proof.
var ErrRegistryRebuild = errors.New("core: labeling does not determine a consistent class registry")

// RebuildRegistry reconstructs the proving scheme's class registry from the
// labelings alone and installs it on this scheme, enabling verification in a
// process that never ran the prover (the prove-once / verify-everywhere
// deployment of a wire certificate).
//
// The class set C is part of the verification algorithm (Proposition 2.4) —
// only the *naming* of classes by compact ids is private prover state. Every
// id a label claims is, however, definitionally pinned by the label's own
// payload: E-/P-node entries and V-node operand summaries carry the data of
// their base class, B-node entries name the operand ids of their fB merge,
// member entries name the child ids of their Lemma 6.5 fP fold, and T-node
// entries alias their root member's merged id. RebuildRegistry collects these
// definitions, resolves them to classes by fixpoint iteration (recomputing
// with the scheme's own algebra, so instances are canonical), and seeds the
// registry with the resulting id table. Soundness is unaffected: the
// verifier still recomputes every class from first principles, and any
// inconsistent or unresolvable table — which no honest prover produces — is
// rejected here, before a single vertex runs.
func (s *Scheme) RebuildRegistry(labelings ...*Labeling) error {
	defs, refs := s.collectClassDefs(labelings)

	resolved := map[int]*algebra.Class{}
	for {
		progress := false
		remaining := defs[:0]
		for _, d := range defs {
			ready := true
			for _, dep := range d.deps {
				if _, ok := resolved[dep]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				remaining = append(remaining, d)
				continue
			}
			cls, err := s.build(&d, resolved)
			progress = true
			if err != nil {
				// Unbuildable definitions come only from corrupted entries;
				// dropping them either leaves the id to an honest definition
				// or leaves it unresolved (rejected below). The corrupted
				// entry itself still fails its per-vertex checks.
				continue
			}
			if prev, ok := resolved[d.id]; ok {
				if prev != cls && prev.Key() != cls.Key() {
					return fmt.Errorf("%w: id %d is claimed by two distinct classes", ErrRegistryRebuild, d.id)
				}
				continue
			}
			resolved[d.id] = cls
		}
		defs = remaining
		if !progress {
			break
		}
	}

	//lint:certlint ignore mapiter validation scan; which undefined id an error names may vary with order, the verdict cannot
	for id := range refs {
		if _, ok := resolved[id]; !ok {
			return fmt.Errorf("%w: class id %d has no definition", ErrRegistryRebuild, id)
		}
	}
	reg, err := algebra.RegistryFromTable(resolved)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistryRebuild, err)
	}
	s.Reg = reg
	return nil
}

// defOp is the algebra operation a classDef recomputes.
type defOp uint8

const (
	defE     defOp = iota // E-node base class
	defP                  // P-node base class
	defV                  // V-node operand base class
	defB                  // fB bridge merge of two operand ids
	defAlias              // T-node: its root member's merged id
	defFold               // Lemma 6.5 member fold: fP of the children into the own id
)

// classDef is one recomputable definition of a claimed class id, by value:
// the operation and every input its build reads. Two definitions with equal
// fields build the same class, so the rebuild keeps one of each.
type classDef struct {
	op     defOp
	id     int
	lanes  []int  // defE, defV: the lane; defP: the lanes; defB: LaneI, LaneJ
	real   []bool // defE, defP: the real bits; defB: BridgeReal
	inputs []int  // defE, defP, defV: the vertices' input labels
	deps   []int  // ids it merges, which must resolve first: defB left and right; defAlias the source; defFold own, then each child
}

func (d *classDef) equal(o *classDef) bool {
	return d.op == o.op && d.id == o.id && slices.Equal(d.lanes, o.lanes) && slices.Equal(d.real, o.real) &&
		slices.Equal(d.inputs, o.inputs) && slices.Equal(d.deps, o.deps)
}

// build recomputes the definition's class; every dependency is resolved.
func (s *Scheme) build(d *classDef, resolved map[int]*algebra.Class) (*algebra.Class, error) {
	switch d.op {
	case defE:
		return s.baseE(d.lanes[0], d.real[0], d.inputs)
	case defP:
		return s.baseP(d.lanes, d.real, d.inputs)
	case defV:
		return s.baseV(d.lanes[0], d.inputs[0])
	case defB:
		label := 0
		if d.real[0] {
			label = algebra.EdgeReal
		}
		return s.bridgeMerge(resolved[d.deps[0]], resolved[d.deps[1]], d.lanes[0], d.lanes[1], label)
	case defAlias:
		return resolved[d.deps[0]], nil
	}
	acc := resolved[d.deps[0]]
	for _, child := range d.deps[1:] {
		next, err := s.parentMerge(resolved[child], acc)
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// defCollector gathers the distinct class definitions of a set of
// labelings and every class id they reference.
type defCollector struct {
	defs     []classDef
	ids      map[int][]int // every referenced id, to the indices of its definitions in defs
	seenCert map[*CEdgeLabel]bool

	lanes, deps []int // field scratch of the definition being added
	real        [1]bool
	input       [1]int
}

// ref records a referenced class id.
func (c *defCollector) ref(id int) {
	if _, ok := c.ids[id]; !ok {
		c.ids[id] = nil
	}
}

// add records d unless an equal definition is already recorded. d's
// slices may alias scratch or entry memory; a recorded copy owns its own.
func (c *defCollector) add(d classDef) {
	for _, i := range c.ids[d.id] {
		if c.defs[i].equal(&d) {
			return
		}
	}
	d.lanes, d.real = slices.Clone(d.lanes), slices.Clone(d.real)
	d.inputs, d.deps = slices.Clone(d.inputs), slices.Clone(d.deps)
	c.ids[d.id] = append(c.ids[d.id], len(c.defs))
	c.defs = append(c.defs, d)
}

// collectClassDefs walks every certificate path of the labelings and
// returns the distinct class definitions they carry and every referenced
// id, mapped to the indices of its definitions. Certificates are
// deduplicated by pointer: prover output and decoded labelings share them
// (a Decoder interns them), so each distinct one is walked once.
// Definitions are deduplicated by value, against the few already recorded
// for the same id, which also merges the copies that share no pointer —
// cloned labelings, separately decoded labels, and the many distinct
// entries whose definitions coincide (an honest labeling's tens of
// thousands of entries carry a few dozen distinct definitions, one or two
// per class id). Entries are not deduplicated first: deriving an entry's
// definitions costs no more than a pointer-set lookup would.
func (s *Scheme) collectClassDefs(labelings []*Labeling) ([]classDef, map[int][]int) {
	c := &defCollector{ids: map[int][]int{}, seenCert: map[*CEdgeLabel]bool{}}
	for _, l := range labelings {
		if l == nil {
			continue
		}
		//lint:certlint ignore mapiter collects distinct defs; resolution order is fixed by the dependency pass, not this loop
		for _, el := range l.Edges {
			if el == nil {
				continue
			}
			c.addCert(el.Own)
			for i := range el.Emb {
				c.addCert(el.Emb[i].Payload)
			}
		}
	}
	return c.defs, c.ids
}

func (c *defCollector) addCert(ce *CEdgeLabel) {
	if ce == nil || c.seenCert[ce] {
		return
	}
	c.seenCert[ce] = true
	for _, e := range ce.Path {
		c.addEntry(e)
	}
}

func (c *defCollector) addEntry(e *NodeEntry) {
	if !e.wellFormed() {
		return // an in-memory forgery; the verifier rejects it
	}
	c.ref(e.Classes[0])
	switch e.Kind {
	case lanewidth.ENode:
		if len(e.Lanes) == 1 && len(e.RealBits) == 1 && len(e.VInputs) == 2 {
			c.add(classDef{op: defE, id: e.Classes[0], lanes: e.Lanes, real: e.RealBits, inputs: e.VInputs})
		}
	case lanewidth.PNode:
		if len(e.Lanes) > 0 && len(e.RealBits) == len(e.PathIDs)-1 && len(e.VInputs) == len(e.PathIDs) {
			c.add(classDef{op: defP, id: e.Classes[0], lanes: e.Lanes, real: e.RealBits, inputs: e.VInputs})
		}
	case lanewidth.BNode:
		if e.Left != nil && e.Right != nil {
			for k, op := range e.operands() {
				c.ref(e.Classes[e.opsAt()+k])
				if op.Kind == lanewidth.VNode && len(op.Lanes) == 1 {
					c.input[0] = op.Input
					c.add(classDef{op: defV, id: e.Classes[e.opsAt()+k], lanes: op.Lanes, inputs: c.input[:]})
				}
			}
			c.lanes = append(c.lanes[:0], e.LaneI, e.LaneJ)
			c.deps = append(c.deps[:0], e.Classes[e.opsAt()], e.Classes[e.opsAt()+1])
			c.real[0] = e.BridgeReal
			c.add(classDef{op: defB, id: e.Classes[0], lanes: c.lanes, real: c.real[:], deps: c.deps})
		}
	case lanewidth.TNode:
		// checkTNode pins the own id to the root member's merged id, whose
		// definition lives at the root member's own entry; recording the
		// alias keeps the id resolvable when the two numbers agree.
		if e.RootMember != nil {
			c.ref(e.Classes[len(e.Classes)-1])
			c.deps = append(c.deps[:0], e.Classes[len(e.Classes)-1])
			c.add(classDef{op: defAlias, id: e.Classes[0], deps: c.deps})
		}
	}
	if e.member() {
		// Lemma 6.5 member fold: merged = fP(children..., own).
		c.ref(e.Classes[1])
		c.deps = append(c.deps[:0], e.Classes[0])
		for i := range e.Children {
			c.ref(e.Classes[2+i])
			c.deps = append(c.deps, e.Classes[2+i])
		}
		c.add(classDef{op: defFold, id: e.Classes[1], deps: c.deps})
	}
}
