package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/certify"
	"repro/internal/mso"
)

// ingestSpec hands a generated graph to the program through graphio.
func ingestSpec(sp *span, spec graphSpec) (*certify.Graph, error) {
	s := sp.child("graphio.ingest")
	defer s.end()
	g, err := spec.ingest()
	if err != nil {
		return nil, fmt.Errorf("ingest %s: %w", spec.family, err)
	}
	return g, nil
}

// call runs f inside a child span of sp.
func call(sp *span, name string, f func() error) error {
	s := sp.child(name)
	defer s.end()
	return f()
}

// statsSummary reduces batch stats to the largest label and the total
// class count, failing if any property does not hold.
func statsSummary(bst *certify.BatchStats) (bits, classes int, err error) {
	if len(bst.Failed) > 0 {
		return 0, 0, fmt.Errorf("properties do not hold: %v", bst.Failed)
	}
	for _, st := range bst.PerProperty {
		bits = max(bits, st.MaxLabelBits)
		classes += st.RegistryClasses
	}
	return bits, classes, nil
}

// detectCorrupt injects one fault (chosen by the seed) into a freshly
// proved certificate and requires Verify to reject it.
func detectCorrupt(e *env, c *certify.Certifier, g *certify.Graph, crt *certify.Certificate) error {
	faults := certify.FaultNames()
	fault := faults[int(e.cfg.seed%int64(len(faults)))]
	bad, err := crt.Corrupt(e.cfg.seed, fault)
	if err != nil {
		return err
	}
	if err := c.Verify(e.ctx, g, bad); !errors.Is(err, certify.ErrVerifyFailed) {
		e.out.set("verify.detect_ratio", 0)
		return fmt.Errorf("corrupted certificate (%s) not rejected: %v", fault, err)
	}
	e.out.set("verify.detect_ratio", 1)
	return nil
}

// roundTrip is the traced check's wire round trip, an op of its own:
// unmarshal the blob, verify it, and replay both on the core layer. It
// gives the decode layers' numbers on workloads whose ops never decode.
func roundTrip(e *env, c *certify.Certifier, g *certify.Graph, spec graphSpec, blob []byte) error {
	sp := e.rec.root("check", "roundtrip")
	defer sp.end()
	var d certify.Certificate
	if err := call(sp, "certify.unmarshal", func() error { return d.UnmarshalBinary(blob) }); err != nil {
		return err
	}
	if err := call(sp, "certify.verify", func() error { return c.Verify(e.ctx, g, &d) }); err != nil {
		return err
	}
	cfg, err := spec.config()
	if err != nil {
		return err
	}
	rp := sp.sibling("replay")
	defer rp.end()
	return replayDecode(e.ctx, rp, cfg, blob)
}

// proveLarge is the offline prove-once path: prove one property on a large
// interval graph and marshal the certificate; nothing is decoded.
type proveLarge struct {
	spec  graphSpec
	g     *certify.Graph
	c     *certify.Certifier
	names []string
	first [32]byte // digest of the warm-up op's certificate
	blob  []byte   // the warm-up op's certificate
	crt   *certify.Certificate
}

func (w *proveLarge) setup(e *env, sp *span) error {
	w.names = []string{"3color"}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	w.spec = intervalGraph(rng, e.cfg.sizes.proveN, e.cfg.sizes.proveWidth)
	var err error
	if w.g, err = ingestSpec(sp, w.spec); err != nil {
		return err
	}
	props, err := certify.PropertiesByName(w.names...)
	if err != nil {
		return err
	}
	if w.c, err = certify.New(certify.WithProperties(props...)); err != nil {
		return err
	}
	// Warm-up: one op, whose certificate every measured op must reproduce.
	crt, bst, err := w.c.ProveBatch(e.ctx, w.g)
	if err != nil {
		return err
	}
	bits, classes, err := statsSummary(bst)
	if err != nil {
		return err
	}
	if w.blob, err = crt.MarshalBinary(); err != nil {
		return err
	}
	w.crt, w.first = crt, sha256.Sum256(w.blob)
	e.out.set("label_bits_max", float64(bits))
	e.out.set("algebra.registry_classes", float64(classes))
	e.out.set("cert_bytes", float64(len(w.blob)))
	return nil
}

func (w *proveLarge) op(e *env, sp *span) (func() error, error) {
	var crt *certify.Certificate
	var bst *certify.BatchStats
	var blob []byte
	err := call(sp, "certify.prove_batch", func() (err error) {
		crt, bst, err = w.c.ProveBatch(e.ctx, w.g)
		return err
	})
	if err == nil {
		err = call(sp, "certify.marshal", func() (err error) {
			blob, err = crt.MarshalBinary()
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if _, _, err := statsSummary(bst); err != nil {
		return nil, err
	}
	if sha256.Sum256(blob) != w.first {
		return nil, errors.New("certificate differs from the warm-up op's")
	}
	if sp == nil {
		return nil, nil
	}
	return func() error {
		rp := sp.sibling("replay")
		defer rp.end()
		r, err := newStructureReplay(e.ctx, rp, w.spec, w.names)
		if err != nil {
			return err
		}
		bits, _, err := r.proveAll(e.ctx, rp)
		if err == nil && bits != crt.MaxBits(w.names[0]) {
			err = fmt.Errorf("replay label bits %d, facade %d", bits, crt.MaxBits(w.names[0]))
		}
		return err
	}, nil
}

func (w *proveLarge) check(e *env) error {
	if err := w.c.Verify(e.ctx, w.g, w.crt); err != nil {
		return err
	}
	if err := detectCorrupt(e, w.c, w.g, w.crt); err != nil {
		return err
	}
	if e.rec == nil {
		return nil
	}
	return roundTrip(e, w.c, w.g, w.spec, w.blob)
}

// batchProps is the props-batch property set: five catalog algebras and
// the compiled bipartiteness formula.
var batchProps = []string{"bipartite", "3color", "matching", "hamiltonian", "maxdeg:3"}

// propsBatch proves six properties against a structure built in set-up:
// the algebra sweep is all an op does.
type propsBatch struct {
	spec   graphSpec
	g      *certify.Graph
	c      *certify.Certifier
	st     *certify.Structure
	names  []string
	bits   map[string]int // per-property label bits of the warm-up op
	first  [32]byte
	last   *certify.Certificate
	replay *structureReplay
}

func (w *propsBatch) setup(e *env, sp *span) error {
	w.spec = ladder(e.cfg.sizes.ladderRungs)
	var err error
	if w.g, err = ingestSpec(sp, w.spec); err != nil {
		return err
	}
	props, err := certify.PropertiesByName(batchProps...)
	if err != nil {
		return err
	}
	s := sp.child("msoc.compile")
	t0 := time.Now()
	formula, err := certify.FormulaProperty(mso.BipartiteFormula().String())
	e.out.set("msoc.compile_us", float64(time.Since(t0).Nanoseconds())/1000)
	s.end()
	if err != nil {
		return err
	}
	props = append(props, formula)
	for _, p := range props {
		w.names = append(w.names, p.Name())
	}
	if w.c, err = certify.New(certify.WithProperties(props...)); err != nil {
		return err
	}
	if err := call(sp, "certify.build_structure", func() (err error) {
		w.st, err = w.c.BuildStructure(e.ctx, w.g)
		return err
	}); err != nil {
		return err
	}
	crt, bst, err := w.c.ProveBatchOn(e.ctx, w.st)
	if err != nil {
		return err
	}
	bits, classes, err := statsSummary(bst)
	if err != nil {
		return err
	}
	w.bits = map[string]int{}
	for name, st := range bst.PerProperty {
		w.bits[name] = st.MaxLabelBits
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		return err
	}
	w.first, w.last = sha256.Sum256(blob), crt
	e.out.set("label_bits_max", float64(bits))
	e.out.set("algebra.registry_classes", float64(classes))
	e.out.set("cert_bytes", float64(len(blob)))
	if e.rec == nil {
		return nil
	}
	rp := sp.sibling("replay")
	defer rp.end()
	if w.replay, err = newStructureReplay(e.ctx, rp, w.spec, w.names); err != nil {
		return err
	}
	// Warm the replay's own compiled formula as the facade's was.
	_, _, err = w.replay.proveAll(e.ctx, nil)
	return err
}

func (w *propsBatch) op(e *env, sp *span) (func() error, error) {
	var crt *certify.Certificate
	var bst *certify.BatchStats
	err := call(sp, "certify.prove_batch_on", func() (err error) {
		crt, bst, err = w.c.ProveBatchOn(e.ctx, w.st)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := statsSummary(bst); err != nil {
		return nil, err
	}
	for name, st := range bst.PerProperty {
		if st.MaxLabelBits != w.bits[name] {
			return nil, fmt.Errorf("%s: label bits %d, warm-up op had %d", name, st.MaxLabelBits, w.bits[name])
		}
	}
	w.last = crt
	if sp == nil {
		return nil, nil
	}
	return func() error {
		rp := sp.sibling("replay")
		defer rp.end()
		_, _, err := w.replay.proveAll(e.ctx, rp)
		return err
	}, nil
}

func (w *propsBatch) check(e *env) error {
	var blob []byte
	sp := e.rec.root("check", "marshal")
	err := call(sp, "certify.marshal", func() (err error) {
		blob, err = w.last.MarshalBinary()
		return err
	})
	sp.end()
	if err != nil {
		return err
	}
	if sha256.Sum256(blob) != w.first {
		return errors.New("last op's certificate differs from the warm-up op's")
	}
	if err := w.c.Verify(e.ctx, w.g, w.last); err != nil {
		return err
	}
	if err := detectCorrupt(e, w.c, w.g, w.last); err != nil {
		return err
	}
	if e.rec == nil {
		return nil
	}
	return roundTrip(e, w.c, w.g, w.spec, blob)
}

// bipartiteFormula is the compiled property's certificate name.
var bipartiteFormula = "mso:" + mso.BipartiteFormula().String()

// propLabel turns a property name into a metric-name component.
func propLabel(name string) string {
	if name == bipartiteFormula {
		return "mso_bipartite"
	}
	return strings.Map(func(r rune) rune {
		if r == '_' || r == '-' || r == '.' || ('0' <= r && r <= '9') || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') {
			return r
		}
		return -1
	}, name)
}

// sweepsByProperty reports each property's median sweep time over the
// measured ops' replays, as core.prove_prop_ms.<property>.
func sweepsByProperty(spans []spanRec) map[string]float64 {
	per := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "core.sweep" && s.Phase == "measure" {
			per[s.Detail] = append(per[s.Detail], s.durMS())
		}
	}
	out := map[string]float64{}
	for prop, v := range per {
		out["core.prove_prop_ms."+propLabel(prop)] = median(v)
	}
	return out
}
