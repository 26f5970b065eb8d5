package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/certify"
	"repro/internal/cert"
)

// corruptEvery is the verify-wire op period of corrupted blobs: one op in
// eight verifies a blob with an injected fault, which must be rejected.
const corruptEvery = 8

// verifyWire is the verify-everywhere path: decode a certificate blob
// proved in set-up and verify it; the prover does no work.
type verifyWire struct {
	spec      graphSpec
	g         *certify.Graph
	c         *certify.Certifier
	cfg       *cert.Config
	blob      []byte
	faults    []string
	corrupted [][]byte // one blob per fault, in FaultNames order
	i         int      // ops so far, which picks honest or corrupted blobs

	injected, detected int
}

func (w *verifyWire) setup(e *env, sp *span) error {
	w.faults = certify.FaultNames()
	rng := rand.New(rand.NewSource(e.cfg.seed))
	w.spec = intervalGraph(rng, e.cfg.sizes.verifyN, e.cfg.sizes.verifyWidth)
	var err error
	if w.g, err = ingestSpec(sp, w.spec); err != nil {
		return err
	}
	names := []string{"3color", "maxdeg:" + strconv.Itoa(w.spec.maxDegree())}
	props, err := certify.PropertiesByName(names...)
	if err != nil {
		return err
	}
	if w.c, err = certify.New(certify.WithProperties(props...)); err != nil {
		return err
	}
	var crt *certify.Certificate
	var bst *certify.BatchStats
	if err := call(sp, "certify.prove_batch", func() (err error) {
		crt, bst, err = w.c.ProveBatch(e.ctx, w.g)
		return err
	}); err != nil {
		return err
	}
	bits, classes, err := statsSummary(bst)
	if err != nil {
		return err
	}
	if err := call(sp, "certify.marshal", func() (err error) {
		w.blob, err = crt.MarshalBinary()
		return err
	}); err != nil {
		return err
	}
	for _, f := range w.faults {
		bad, err := crt.Corrupt(e.cfg.seed, f)
		if err != nil {
			return err
		}
		blob, err := bad.MarshalBinary()
		if err != nil {
			return err
		}
		w.corrupted = append(w.corrupted, blob)
	}
	e.out.set("label_bits_max", float64(bits))
	e.out.set("algebra.registry_classes", float64(classes))
	e.out.set("cert_bytes", float64(len(w.blob)))
	if e.rec != nil {
		rp := sp.sibling("replay")
		r, err := newStructureReplay(e.ctx, rp, w.spec, names)
		if err == nil {
			_, _, err = r.proveAll(e.ctx, rp)
		}
		rp.end()
		if err != nil {
			return err
		}
		w.cfg = r.cfg
	}
	// Warm-up: one honest op.
	_, err = w.verify(e, nil, w.blob)
	return err
}

// verify decodes and verifies one blob.
func (w *verifyWire) verify(e *env, sp *span, blob []byte) (*certify.Certificate, error) {
	var d certify.Certificate
	if err := call(sp, "certify.unmarshal", func() error { return d.UnmarshalBinary(blob) }); err != nil {
		return nil, err
	}
	return &d, call(sp, "certify.verify", func() error { return w.c.Verify(e.ctx, w.g, &d) })
}

// verifyCorrupted runs one corrupted blob and counts its detection.
func (w *verifyWire) verifyCorrupted(e *env, k int) error {
	w.injected++
	_, err := w.verify(e, nil, w.corrupted[k])
	if errors.Is(err, certify.ErrBadCertificate) || errors.Is(err, certify.ErrVerifyFailed) {
		w.detected++
		return nil
	}
	return fmt.Errorf("corrupted certificate (%s) not rejected: %v", w.faults[k], err)
}

func (w *verifyWire) op(e *env, sp *span) (func() error, error) {
	i := w.i
	w.i++
	if i%corruptEvery == corruptEvery-1 {
		return nil, w.verifyCorrupted(e, (i/corruptEvery)%len(w.faults))
	}
	if _, err := w.verify(e, sp, w.blob); err != nil {
		return nil, err
	}
	if sp == nil {
		return nil, nil
	}
	return func() error {
		rp := sp.sibling("replay")
		defer rp.end()
		return replayDecode(e.ctx, rp, w.cfg, w.blob)
	}, nil
}

func (w *verifyWire) check(e *env) error {
	if w.injected == 0 {
		if err := w.verifyCorrupted(e, int(e.cfg.seed%int64(len(w.faults)))); err != nil {
			return err
		}
	}
	e.out.set("verify.detect_ratio", float64(w.detected)/float64(w.injected))
	// A decoded certificate re-marshals to the exact bytes it came from.
	d, err := w.verify(e, nil, w.blob)
	if err != nil {
		return err
	}
	back, err := d.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(back, w.blob) {
		return errors.New("decoded certificate does not re-marshal to its blob")
	}
	return nil
}
