package core

// Fuzz and corruption-stream tests for the label decode path: DecodeLabel
// must never panic on arbitrary bytes, and the verifier must reject (never
// panic on) truncated or bit-flipped label streams — the wire-level
// counterpart of the structured fault injection in internal/dist.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/gen"
)

// fuzzLabeling builds one small honest labeling whose encoded labels seed
// the fuzz corpus and back the deterministic corruption sweeps.
func fuzzLabeling(tb testing.TB) (*Scheme, *cert.Config, *Labeling) {
	tb.Helper()
	g := gen.Caterpillar(5, 1)
	s := NewScheme(algebra.Colorable{Q: 2}, 6)
	cfg := cert.NewConfig(g)
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s, cfg, labeling
}

// FuzzDecodeLabel throws arbitrary bit streams at DecodeLabel: it must
// never panic; successful decodes must re-encode without panicking, and the
// re-encoding must be a canonical fixpoint (decode∘encode = identity).
// Feeding the decoded label to the verifier must return a verdict, not
// panic. The entry grammar's skip pass must consume exactly the bits its
// build pass does, and a Decoder that has already interned every honest
// label must accept and reject exactly what a fresh one does.
func FuzzDecodeLabel(f *testing.F) {
	s, _, labeling := fuzzLabeling(f)
	type blob struct {
		data  []byte
		nbits int
	}
	var honest []blob
	for _, el := range labeling.Edges {
		data, nbits := EncodeLabel(el)
		honest = append(honest, blob{data, nbits})
		f.Add(data, nbits)
		if len(data) > 4 {
			f.Add(data[:len(data)/2], nbits/2)
		}
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 32)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 {
			nbits = 0
		}
		if nbits > len(data)*8 {
			nbits = len(data) * 8
		}
		// A label's first entry follows its row count and dictionaries.
		// With those loaded as a label's table would load them, the skip
		// and build passes are compared at that entry and the 15 offsets
		// after it, each pass from the same dictionary state.
		var d Decoder
		hdr := bits.NewReader(data, nbits)
		if _, err := hdr.ReadUvarint(); err == nil && d.dictionaries(hdr) == nil {
			for start := hdr.Pos(); start < nbits && start < hdr.Pos()+16; start++ {
				skip, build := bits.NewReader(data, nbits), bits.NewReader(data, nbits)
				skip.Seek(start)
				build.Seek(start)
				d.vUsed, d.cUsed, d.nUsed = 0, 0, 0
				skipErr := d.parseShape(skip, nil)
				d.vUsed, d.cUsed, d.nUsed = 0, 0, 0
				buildErr := d.parseShape(build, &Shape{NodeSummary: new(NodeSummary)})
				if (skipErr == nil) != (buildErr == nil) || skip.Pos() != build.Pos() {
					t.Fatalf("entry at bit %d: skip pass (%v) ends at %d, build pass (%v) at %d",
						start, skipErr, skip.Pos(), buildErr, build.Pos())
				}
			}
		}
		var warm Decoder
		for _, b := range honest {
			if _, err := warm.DecodeLabel(b.data, b.nbits); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := DecodeLabel(data, nbits)
		shared, sharedErr := warm.DecodeLabel(data, nbits)
		if (err == nil) != (sharedErr == nil) {
			t.Fatalf("fresh decoder: %v, decoder with interned honest labels: %v", err, sharedErr)
		}
		if err != nil {
			return
		}
		if shared.Key() != dec.Key() {
			t.Fatal("a decoder with interned honest labels decodes a different label")
		}
		enc, encBits := EncodeLabel(dec)
		dec2, err := DecodeLabel(enc, encBits)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2, enc2Bits := EncodeLabel(dec2)
		if enc2Bits != encBits || string(enc2) != string(enc) {
			t.Fatalf("encode∘decode is not a fixpoint: %d/%x vs %d/%x", encBits, enc, enc2Bits, enc2)
		}
		// The verifier must cope with any decodable label.
		view := &VertexView{ID: 1, Labels: []*EdgeLabel{dec}}
		_ = s.VerifyAt(view)
	})
}

// TestDecodeRejectsTruncatedStreams pins that every strict prefix of an
// honest label stream fails to decode (the parse is deterministic, so a
// prefix always runs out of bits) — a truncated label can therefore never
// reach the verifier as a parsed structure, and a missing label makes the
// incident vertices reject.
func TestDecodeRejectsTruncatedStreams(t *testing.T) {
	s, cfg, labeling := fuzzLabeling(t)
	for e, el := range labeling.Edges {
		data, nbits := EncodeLabel(el)
		for cut := 0; cut < nbits; cut++ {
			if _, err := DecodeLabel(data[:(cut+7)/8], cut); err == nil {
				t.Fatalf("edge %v: truncation to %d of %d bits decoded", e, cut, nbits)
			}
		}
	}
	// A label erased outright must be rejected at its endpoints.
	for e := range labeling.Edges {
		forged := labeling.Clone()
		delete(forged.Edges, e)
		if AllAccept(verify(t, s, cfg, forged)) {
			t.Fatalf("edge %v: erased label accepted", e)
		}
		break
	}
}

// TestVerifierRejectsBitFlippedStreams flips every bit of every encoded
// label and pins the wire-corruption invariant: each flip either fails to
// decode, is rejected by some vertex, or is provably harmless — the decoded
// label re-encodes byte-identically (the flip hit bits the decoder
// discards, e.g. a non-member's merged-class field), or it belongs to the
// tiny deterministic tail of bookkeeping-only mutations (≤0.5% of flips,
// e.g. a child summary's NodeID on a copy no binding vertex dereferences)
// whose algebraic content the verifier fully re-checks. The verifier must
// never panic along the way.
func TestVerifierRejectsBitFlippedStreams(t *testing.T) {
	s, cfg, labeling := fuzzLabeling(t)
	flips, rejected, decodeErrs, invisible, bookkeeping := 0, 0, 0, 0, 0
	for e, el := range labeling.Edges {
		data, nbits := EncodeLabel(el)
		for pos := 0; pos < nbits; pos++ {
			flips++
			mut := append([]byte(nil), data...)
			mut[pos/8] ^= 1 << uint(7-pos%8)
			dec, err := DecodeLabel(mut, nbits)
			if err != nil {
				decodeErrs++
				continue
			}
			forged := labeling.Clone()
			forged.Edges[e] = dec
			if !AllAccept(verify(t, s, cfg, forged)) {
				rejected++
				continue
			}
			reEnc, reBits := EncodeLabel(dec)
			if reBits == nbits && string(reEnc) == string(data) {
				invisible++
				continue
			}
			bookkeeping++
		}
	}
	if rejected+decodeErrs == 0 {
		t.Fatal("no corruption detected at all — sweep is vacuous")
	}
	if bookkeeping > flips/200 {
		t.Fatalf("%d of %d flips accepted with differing bytes — beyond the bookkeeping tail", bookkeeping, flips)
	}
	t.Logf("flips=%d decode-errors=%d rejected=%d invisible=%d bookkeeping=%d",
		flips, decodeErrs, rejected, invisible, bookkeeping)
}

// TestVerifierNeverPanicsOnRandomStreams hammers DecodeLabel+VerifyAt with
// deterministic pseudo-random byte streams as a regular-test complement to
// the fuzz target (CI runs it on every push).
func TestVerifierNeverPanicsOnRandomStreams(t *testing.T) {
	s, _, _ := fuzzLabeling(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		nbits := rng.Intn(len(data)*8 + 1)
		dec, err := DecodeLabel(data, nbits)
		if err != nil {
			continue
		}
		view := &VertexView{ID: uint64(rng.Intn(12)), Labels: []*EdgeLabel{dec}}
		if s.VerifyAt(view) {
			t.Fatalf("trial %d: random %d-bit stream verified", trial, nbits)
		}
	}
}

// TestDecodeRoundTripAllFamilies pins decode∘encode = identity (by
// re-encode) on every generator family, so the fuzz fixpoint property is
// anchored to honest labels too. It also decodes the whole labeling with
// one shared Decoder: each label must equal its one-shot decode, and the
// shared decode must hold exactly one pointer per distinct entry and
// certificate — interning happens, and never merges different components.
// certKey is a canonical key of a certificate's content: its owner
// position and its entries' keys.
func certKey(c *CEdgeLabel) string {
	k := strconv.Itoa(c.OwnerPos)
	for _, e := range c.Path {
		k += "|" + e.Key()
	}
	return k
}

func TestDecodeRoundTripAllFamilies(t *testing.T) {
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			labeling, _, err := prove(s, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var shared Decoder
			entries, entryKeys := map[*NodeEntry]bool{}, map[string]bool{}
			certs, certKeys := map[*CEdgeLabel]bool{}, map[string]bool{}
			for e, el := range labeling.Edges {
				data, nbits := EncodeLabel(el)
				dec, err := DecodeLabel(data, nbits)
				if err != nil {
					t.Fatalf("edge %v: %v", e, err)
				}
				reEnc, reBits := EncodeLabel(dec)
				if reBits != nbits || string(reEnc) != string(data) {
					t.Fatalf("edge %v: decode∘encode not identity", e)
				}
				if dec.Bits() != el.Bits() {
					t.Fatalf("edge %v: decoded Bits %d vs %d", e, dec.Bits(), el.Bits())
				}
				sh, err := shared.DecodeLabel(data, nbits)
				if err != nil {
					t.Fatalf("edge %v: shared decoder: %v", e, err)
				}
				if sh.Key() != dec.Key() {
					t.Fatalf("edge %v: shared and one-shot decoders disagree", e)
				}
				payloads := []*CEdgeLabel{sh.Own}
				for _, emb := range sh.Emb {
					payloads = append(payloads, emb.Payload)
				}
				for _, c := range payloads {
					if c == nil {
						continue
					}
					certs[c], certKeys[certKey(c)] = true, true
					for _, en := range c.Path {
						entries[en], entryKeys[en.Key()] = true, true
					}
				}
			}
			if len(entries) != len(entryKeys) || len(certs) != len(certKeys) {
				t.Fatalf("shared decode holds %d entry pointers for %d distinct entries, %d certificate pointers for %d distinct certificates",
					len(entries), len(entryKeys), len(certs), len(certKeys))
			}
		})
	}
}
