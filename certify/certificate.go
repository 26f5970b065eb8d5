package certify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"iter"
	"maps"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// Certificate is a proved labeling for one or more properties of one
// configuration — the artifact that crosses the wire in the prove-once /
// verify-everywhere deployment. It marshals to a self-describing versioned
// binary container:
//
//	magic "PLSC" | version (1 byte) | lane budget | n | m |
//	graph fingerprint (8 bytes) | property count |
//	per property: name, edge count, per edge (u, v, bit count, label bytes) |
//	CRC32-IEEE trailer (4 bytes)
//
// Integers are unsigned varints; edges are sorted by endpoints, and each
// label's bytes are its exact core.EncodeLabel bit stream. Version 6 is the
// label grammar with label-wide, sorted id dictionaries: a label opens with
// the row count of its entry table, then the distinct vertex ids, class ids
// and node ids it writes — vertex and node ids in ascending order, each
// dictionary in the shorter of one fixed width and varint gaps between
// consecutive ids, a flag bit naming which; class ids in first-use order,
// each as a 16-bit content hash plus a varint collision rank — then each
// distinct node entry once, its ids as dictionary indices, then every
// certificate as row indices into that table, then its embedding and
// pointing fields. Other versions, the retired 1–5 included, fail with the
// unsupported-version error.
// Decoding is strict — wrong magic, unknown version, truncation, trailing
// bytes, CRC mismatch, or non-canonical label bytes all fail with
// ErrBadCertificate — and a decoded certificate re-marshals
// byte-identically.
//
// A certificate keeps its labels in one form at rest. A proved certificate
// (and a Corrupt output) keeps each property's labels as their wire bytes:
// one buffer per property holding its edge entries exactly as the container
// lists them, so it costs about its marshaled size, and MarshalBinary,
// EncodedLabels and MaxBits only read those bytes. Verification needs the
// labels themselves, so every Verify or VerifyDistributed of such a
// certificate decodes them into a view it drops when it returns. A
// certificate decoded from the wire keeps the view its decode built
// instead, whose labels hold their own encodings, and assembles the wire
// bytes from them for each call that reads them. In a view, as in a
// prover's output, every copy of a node entry with the same bits, and every
// completion-edge certificate with the same entries and owner position, is
// one value in memory. Corrupt decodes only the labels its injection
// probes, and copies the one it corrupts before it mutates it.
type Certificate struct {
	maxLanes    int
	n, m        int
	fingerprint uint64
	props       []string // batch order

	// mu guards the labels at rest and schemes, the per-property
	// verification schemes, so concurrent calls on one certificate are
	// safe. Exactly one of labels and view is set: labels holds each
	// property's stored labels, view a decoded certificate's labels. A
	// proved certificate and its Corrupt outputs carry the prover's own
	// schemes (shared registries); a decoded one rebuilds them on first
	// verification, reconstructing each registry from its labels
	// (core.RebuildRegistry).
	mu      sync.Mutex
	labels  map[string]*storedLabels
	view    map[string]*core.Labeling
	schemes map[string]*core.Scheme
}

// storedLabels is one property's labeling as its wire bytes.
type storedLabels struct {
	// entries are its edge entries as the wire lists them: per edge, in
	// canonical order, the endpoints and the label's bit count as varints,
	// then the label's bytes.
	entries []byte
	// faults holds, per edge in the same order, the faults of the catalog
	// its label can host (dist.Hosted), so that Corrupt decodes only the
	// label it corrupts. Every prove pays for them (a walk of each label's
	// path entries), since a fault such as flip-real-bit fits few labels,
	// and finding one by decoding is about a whole decode.
	faults []dist.FaultSet
}

// MaxLaneBudget is the largest lane budget the certificate wire format can
// carry: WithMaxLanes rejects larger budgets so every issued certificate
// round-trips through MarshalBinary/UnmarshalBinary. (The paper's schemes
// target small constant k; 4096 is far beyond any practical pathwidth.)
const MaxLaneBudget = 1 << 12

// Wire-format constants.
const (
	certMagic   = "PLSC" // Proof Labeling Scheme Certificate
	certVersion = 6

	// Decode plausibility bounds; anything larger is rejected outright.
	// maxLabelBits is ~1,150,000× the worst version-6 label of a
	// 32768-vertex width-2 interval graph under 8 lanes (935 bits);
	// minEdgeBytes below counts only an edge entry's u, v and bit-count
	// varints, which the label grammar does not touch.
	maxCertProps    = 1 << 10
	maxCertNameLen  = 1 << 12 // compiled-formula names carry the formula text
	maxCertVertices = 1 << 30
	maxCertEdges    = 1 << 26
	maxLabelBits    = 1 << 30

	// Minimum wire cost of one property entry (name-length varint, one name
	// byte, edge-count varint) and one edge entry (u, v, bit-count varints) —
	// the divisors that bound declared counts by the remaining buffer.
	minPropBytes = 3
	minEdgeBytes = 3
)

// Properties returns the certified property names in batch order.
func (c *Certificate) Properties() []string {
	return append([]string(nil), c.props...)
}

// MaxLanes returns the lane budget the certificate was proved under (the
// certificate proves φ ∧ pathwidth ≤ MaxLanes−1).
func (c *Certificate) MaxLanes() int { return c.maxLanes }

// N returns the vertex count of the certified configuration.
func (c *Certificate) N() int { return c.n }

// M returns the edge count of the certified configuration.
func (c *Certificate) M() int { return c.m }

// Fingerprint returns the configuration fingerprint the certificate binds
// to — the same value Graph.Fingerprint reports for the graph it was issued
// for. Services key certificate storage and lookup by this value.
func (c *Certificate) Fingerprint() uint64 { return c.fingerprint }

// MaxBits returns the proof size of one property's labeling — the largest
// edge label in bits — or 0 for properties the certificate does not carry.
func (c *Certificate) MaxBits(property string) int {
	labels, view := c.atRest()
	if l, ok := view[property]; ok {
		return l.MaxBits()
	}
	s, ok := labels[property]
	if !ok {
		return 0
	}
	best := 0
	for _, x := range storedEntries(s.entries) {
		best = max(best, x.nbits)
	}
	return best
}

// fingerprint hashes the certified configuration: vertex count, identifier
// assignment, input labels, and the sorted edge set. A certificate binds to
// this value, so verification against any other configuration (different
// topology, identifiers, or marked set) fails with ErrWrongGraph.
func fingerprint(cfg *cert.Config) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	put(uint64(cfg.G.N()))
	for _, id := range cfg.IDs {
		put(id)
	}
	for v := 0; v < cfg.G.N(); v++ {
		put(uint64(cfg.Input(v)))
	}
	put(uint64(cfg.G.M()))
	for e := range cfg.G.EdgesSeq() {
		put(uint64(e.U))
		put(uint64(e.V))
	}
	return h.Sum64()
}

// MarshalBinary encodes the certificate into the versioned wire format:
// the header, then each property's edge entries copied in, in one exactly
// sized buffer.
func (c *Certificate) MarshalBinary() ([]byte, error) {
	if len(c.props) == 0 {
		return nil, fmt.Errorf("%w: cannot marshal an empty certificate", ErrBadConfig)
	}
	parts := make([][]byte, len(c.props))
	size := len(certMagic) + 1 + uvarintLen(uint64(c.maxLanes)) + uvarintLen(uint64(c.n)) +
		uvarintLen(uint64(c.m)) + 8 + uvarintLen(uint64(len(c.props))) + 4
	for i, name := range c.props {
		s, ok := c.stored(name)
		if !ok {
			return nil, fmt.Errorf("%w: certificate lists property %q without a labeling", ErrBadCertificate, name)
		}
		parts[i] = s.entries
		size += uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(c.m)) + len(s.entries)
	}
	out := make([]byte, 0, size)
	out = append(out, certMagic...)
	out = append(out, certVersion)
	out = binary.AppendUvarint(out, uint64(c.maxLanes))
	out = binary.AppendUvarint(out, uint64(c.n))
	out = binary.AppendUvarint(out, uint64(c.m))
	out = binary.BigEndian.AppendUint64(out, c.fingerprint)
	out = binary.AppendUvarint(out, uint64(len(c.props)))
	for i, name := range c.props {
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(c.m))
		out = append(out, parts[i]...)
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// uvarintLen returns the byte length of v's binary.AppendUvarint encoding.
func uvarintLen(v uint64) int { return (mathbits.Len64(v|1) + 6) / 7 }

// storeLabels returns a labeling as its wire bytes. edges yields its edges
// in canonical order, and each label's bytes are copied from its cached
// encoding (the prover materializes every label it hands out, and a
// decoded label holds the bits it was checked against).
func storeLabels(edges iter.Seq[graph.Edge], l *core.Labeling) *storedLabels {
	els := make([]*core.EdgeLabel, 0, len(l.Edges))
	s := &storedLabels{faults: make([]dist.FaultSet, 0, len(l.Edges))}
	size := 0
	for e := range edges {
		el := l.Edges[e]
		els = append(els, el)
		s.faults = append(s.faults, dist.Hosted(el))
		size += entrySize(e, el.Bits())
	}
	s.entries = make([]byte, 0, size)
	for e := range edges {
		s.entries = appendEntry(s.entries, e, els[0])
		els = els[1:]
	}
	return s
}

// entrySize is the wire size of an edge entry with an nbits-bit label.
func entrySize(e graph.Edge, nbits int) int {
	return uvarintLen(uint64(e.U)) + uvarintLen(uint64(e.V)) + uvarintLen(uint64(nbits)) + (nbits+7)/8
}

// appendEntry appends one edge entry — endpoints, bit count, label bytes —
// to dst.
func appendEntry(dst []byte, e graph.Edge, el *core.EdgeLabel) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.U))
	dst = binary.AppendUvarint(dst, uint64(e.V))
	dst = binary.AppendUvarint(dst, uint64(el.Bits()))
	dst, _ = core.AppendLabel(dst, el)
	return dst
}

// badCert returns a decoding failure, matching ErrBadCertificate.
func badCert(format string, args ...any) error {
	return wrapErr(ErrBadCertificate, fmt.Errorf(format, args...))
}

// takeUvarint reads the varint at the front of *r, advancing *r past it.
func takeUvarint(r *[]byte, field string) (uint64, error) {
	v, k := binary.Uvarint(*r)
	if k <= 0 {
		return 0, badCert("truncated %s", field)
	}
	*r = (*r)[k:]
	return v, nil
}

// edgeEntry is one edge entry of a property's labeling on the wire.
type edgeEntry struct {
	e     graph.Edge
	nbits int
	label []byte // the label's bytes
}

// noEdge precedes every edge in canonical order.
var noEdge = graph.Edge{U: -1, V: -1}

// readEntry parses the edge entry at the start of r and returns it with the
// rest of r. The edge must join two of n vertices and follow prev in
// canonical order, and the label's declared size must be plausible and
// present.
func readEntry(r []byte, n int, prev graph.Edge) (edgeEntry, []byte, error) {
	u, err := takeUvarint(&r, "edge endpoint")
	if err != nil {
		return edgeEntry{}, nil, err
	}
	v, err := takeUvarint(&r, "edge endpoint")
	if err != nil {
		return edgeEntry{}, nil, err
	}
	if u >= v || v >= uint64(n) {
		return edgeEntry{}, nil, badCert("invalid edge {%d,%d}", u, v)
	}
	e := graph.Edge{U: int(u), V: int(v)}
	if graph.CompareEdges(e, prev) <= 0 {
		return edgeEntry{}, nil, badCert("edge %v out of canonical order", e)
	}
	nbits, err := takeUvarint(&r, "label bit count")
	if err != nil {
		return edgeEntry{}, nil, err
	}
	if nbits > maxLabelBits {
		return edgeEntry{}, nil, badCert("implausible label size %d bits", nbits)
	}
	nbytes := (nbits + 7) / 8
	if uint64(len(r)) < nbytes {
		return edgeEntry{}, nil, badCert("truncated label payload")
	}
	return edgeEntry{e: e, nbits: int(nbits), label: r[:nbytes]}, r[nbytes:], nil
}

// atRest returns the certificate's labels in their form at rest: the
// stored edge entries of a proved certificate, or the view of a decoded
// one (the other is nil).
func (c *Certificate) atRest() (map[string]*storedLabels, map[string]*core.Labeling) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labels, c.view
}

// stored returns one property's labeling as its wire bytes, and whether
// the certificate carries the property. A proved certificate returns the
// labels it stores, which callers must not modify; a decoded one
// assembles them from its view, in canonical edge order, for this call
// alone, so it never holds its labels twice.
func (c *Certificate) stored(property string) (*storedLabels, bool) {
	labels, view := c.atRest()
	if view == nil {
		s, ok := labels[property]
		return s, ok
	}
	l, ok := view[property]
	if !ok {
		return nil, false
	}
	edges := slices.SortedFunc(maps.Keys(l.Edges), graph.CompareEdges)
	return storeLabels(slices.Values(edges), l), true
}

// storedEntries iterates stored edge entries with their offsets. They were
// written by storeLabels or checked by decodeLabels, so they parse (against
// any vertex count: the check that they fit the certificate's ran then).
func storedEntries(entries []byte) iter.Seq2[int, edgeEntry] {
	return func(yield func(int, edgeEntry) bool) {
		r, prev := entries, noEdge
		for len(r) > 0 {
			x, rest, err := readEntry(r, maxCertVertices, prev)
			if err != nil {
				panic("certify: stored labels do not parse: " + err.Error())
			}
			if !yield(len(entries)-len(r), x) {
				return
			}
			r, prev = rest, x.e
		}
	}
}

// decodeLabels decodes the m edge entries at the start of r with dec and
// returns their labeling and the rest of r. Each entry must name an edge of
// an n-vertex graph, in canonical order, and carry a label whose bytes are
// exactly its re-encoding. UnmarshalBinary decodes each property through
// it, and so does every verification of a certificate it did not decode.
func decodeLabels(dec *core.Decoder, r []byte, n, m int) (*core.Labeling, []byte, error) {
	l := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, m)}
	var back []byte // re-encoding scratch of the canonicality check
	prev := noEdge
	for range m {
		x, rest, err := readEntry(r, n, prev)
		if err != nil {
			return nil, nil, err
		}
		r, prev = rest, x.e
		el, err := dec.DecodeLabel(x.label, x.nbits)
		if err != nil {
			return nil, nil, badCert("label for edge %v: %v", x.e, err)
		}
		// Canonicality: the payload must be the exact re-encoding, so the
		// bytes a certificate stores, marshals and ships are its labels'
		// encodings, and labels cannot smuggle unread trailing bits, dirty
		// padding or a repeated entry-table row. The decoder interns
		// entries by raw bits, so this check alone decides canonicality.
		var backBits int
		back, backBits = core.AppendLabel(back[:0], el)
		if backBits != x.nbits || string(back) != string(x.label) {
			return nil, nil, badCert("label for edge %v is not canonically encoded", x.e)
		}
		l.Edges[x.e] = el
	}
	return l, r, nil
}

// UnmarshalBinary strictly decodes a certificate previously produced by
// MarshalBinary. Any deviation from the canonical encoding — wrong magic or
// version, truncation, bit flips (caught by the CRC trailer), non-canonical
// label payloads, duplicate edges or properties, or trailing bytes — fails
// with an error matching ErrBadCertificate. On success the receiver
// re-marshals byte-identically.
func (c *Certificate) UnmarshalBinary(data []byte) error {
	if len(data) < len(certMagic)+1+8+4 {
		return badCert("short blob (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return badCert("CRC mismatch")
	}
	if string(body[:len(certMagic)]) != certMagic {
		return badCert("bad magic %q", body[:len(certMagic)])
	}
	if v := body[len(certMagic)]; v != certVersion {
		return badCert("unsupported format version %d (want %d)", v, certVersion)
	}
	r := body[len(certMagic)+1:]
	take := func(field string) (uint64, error) { return takeUvarint(&r, field) }
	maxLanes, err := take("lane budget")
	if err != nil {
		return err
	}
	n, err := take("vertex count")
	if err != nil {
		return err
	}
	m, err := take("edge count")
	if err != nil {
		return err
	}
	if maxLanes == 0 || maxLanes > MaxLaneBudget || n == 0 || n > maxCertVertices || m > maxCertEdges {
		return badCert("implausible header (lanes=%d n=%d m=%d)", maxLanes, n, m)
	}
	if len(r) < 8 {
		return badCert("truncated fingerprint")
	}
	fp := binary.BigEndian.Uint64(r[:8])
	r = r[8:]
	nProps, err := take("property count")
	if err != nil {
		return err
	}
	if nProps == 0 || nProps > maxCertProps {
		return badCert("implausible property count %d", nProps)
	}
	// Every declared size field below is attacker-controlled: before any
	// size-hinted allocation, cap it against the bytes actually remaining in
	// the buffer (each property costs ≥ minPropBytes, each edge entry
	// ≥ minEdgeBytes on the wire), so a 100-byte blob declaring 2²⁶ edges is
	// rejected as truncated instead of reserving gigabytes.
	if nProps > uint64(len(r))/minPropBytes {
		return badCert("property count %d exceeds the %d remaining bytes", nProps, len(r))
	}
	// The receiver is written only once the whole blob has decoded.
	var props []string
	view := make(map[string]*core.Labeling, nProps)
	var dec core.Decoder // one per call: labels of every property share components
	dec.Grow(int(m), int(nProps), 8*len(r))
	for p := uint64(0); p < nProps; p++ {
		nameLen, err := take("property name length")
		if err != nil {
			return err
		}
		if nameLen == 0 || nameLen > maxCertNameLen {
			return badCert("implausible property name length %d", nameLen)
		}
		if uint64(len(r)) < nameLen {
			return badCert("truncated property name")
		}
		name := string(r[:nameLen])
		r = r[nameLen:]
		if !utf8.ValidString(name) {
			return badCert("property name is not valid UTF-8")
		}
		if _, dup := view[name]; dup {
			return badCert("duplicate property %q", name)
		}
		nEdges, err := take("edge count")
		if err != nil {
			return err
		}
		if nEdges > maxCertEdges || nEdges != m {
			return badCert("labeling for %q covers %d edges, configuration has %d", name, nEdges, m)
		}
		if nEdges > uint64(len(r))/minEdgeBytes {
			return badCert("labeling for %q declares %d edges, only %d bytes remain", name, nEdges, len(r))
		}
		l, rest, err := decodeLabels(&dec, r, int(n), int(nEdges))
		if err != nil {
			return err
		}
		props = append(props, name)
		view[name] = l
		r = rest
	}
	if len(r) != 0 {
		return badCert("%d trailing bytes", len(r))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxLanes = int(maxLanes)
	c.n = int(n)
	c.m = int(m)
	c.fingerprint = fp
	c.props = props
	c.labels = nil
	c.view = view
	c.schemes = nil
	return nil
}

// verifyState returns the certificate's decoded labels (labelView) and its
// per-property verification schemes, building the schemes under mu if they
// are missing. A decoded certificate's schemes are built here: each
// property resolves to the verifying certifier's configured instance of
// that name, whose memo the scheme then shares, or else through the
// catalog, and its class registry is reconstructed from the labels (proved
// certificates keep the prover's schemes and skip this). An unresolvable
// property name fails with ErrUnknownProperty; a labeling that does not
// determine a consistent registry fails verification (ErrVerifyFailed).
func (c *Certificate) verifyState(v *Certifier) (map[string]*core.Labeling, map[string]*core.Scheme, error) {
	view, err := c.labelView()
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schemes == nil {
		schemes := make(map[string]*core.Scheme, len(c.props))
		for _, name := range c.props {
			p, ok := v.property(name)
			if !ok {
				if p, err = PropertyByName(name); err != nil {
					return nil, nil, err
				}
			}
			s := core.NewSchemeMemo(p.p, c.maxLanes, p.algebraMemo())
			if err := s.RebuildRegistry(view[name]); err != nil {
				return nil, nil, newVerifyError(name, nil)
			}
			schemes[name] = s
		}
		c.schemes = schemes
	}
	return view, c.schemes, nil
}

// labelView returns the certificate's labels decoded: a decoded
// certificate's view, or a proved certificate's stored labels decoded
// through UnmarshalBinary's loop (decodeLabels, one Decoder for every
// property) into a view the certificate does not keep. Stored labels that
// do not decode fail with ErrBadCertificate.
func (c *Certificate) labelView() (map[string]*core.Labeling, error) {
	labels, view := c.atRest()
	if view != nil {
		return view, nil
	}
	size := 0
	for _, s := range labels {
		size += len(s.entries)
	}
	var dec core.Decoder
	dec.Grow(c.m, len(c.props), 8*size)
	view = make(map[string]*core.Labeling, len(c.props))
	for _, name := range c.props {
		l, _, err := decodeLabels(&dec, labels[name].entries, c.n, c.m)
		if err != nil {
			return nil, err
		}
		view[name] = l
	}
	return view, nil
}

// LabelBlob is the canonical encoding of one edge's label — the exact
// per-dart artifact that crosses the wire in the PLS model. Data holds the
// core bit stream and Bits its exact length (partial final bytes cannot
// alias).
type LabelBlob struct {
	U, V int
	Bits int
	Data []byte
}

// EncodedLabels returns one property's labeling as per-edge canonical label
// encodings, sorted by edge endpoints, or ok=false when the certificate does
// not carry the property. The blobs are cut from one copy of the
// property's edge entries, so they never alias the certificate. The
// distributed runtime (certify/distnet) partitions these blobs across
// processes as each processor's label memory and re-ships them between
// peers during verification rounds.
func (c *Certificate) EncodedLabels(property string) ([]LabelBlob, bool) {
	s, ok := c.stored(property)
	if !ok {
		return nil, false
	}
	entries := s.entries
	if labels, _ := c.atRest(); labels != nil {
		entries = bytes.Clone(entries) // the certificate's own bytes
	}
	out := make([]LabelBlob, 0, c.m)
	for _, x := range storedEntries(entries) {
		out = append(out, LabelBlob{U: x.e.U, V: x.e.V, Bits: x.nbits, Data: slices.Clip(x.label)})
	}
	return out, true
}

// FaultNames lists the transient-fault catalog of the self-stabilization
// model, in the order the corruption experiments document.
func FaultNames() []string {
	out := make([]string, len(dist.AllFaults))
	for i, f := range dist.AllFaults {
		out[i] = f.String()
	}
	return out
}

// Corrupt returns a copy of the certificate with the named transient fault
// injected into every property's labeling (seeded, so corruption is
// reproducible). The receiver is unchanged. Each label's fault set tells
// the injection which labels can host the fault, so it decodes only the
// label it corrupts, and that label's re-encoding is spliced into a copy
// of its property's edge entries, which the copy keeps at rest as a proved
// certificate does. Soundness of the scheme means one verification round
// rejects every corrupted certificate; Corrupt exists to demonstrate
// exactly that.
func (c *Certificate) Corrupt(seed int64, fault string) (*Certificate, error) {
	var f dist.Fault
	found := false
	for _, k := range dist.AllFaults {
		if k.String() == fault {
			f, found = k, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: unknown fault %q (have %v)", ErrBadConfig, fault, FaultNames())
	}
	rng := rand.New(rand.NewSource(seed))
	c.mu.Lock()
	schemes := c.schemes
	c.mu.Unlock()
	out := &Certificate{
		maxLanes:    c.maxLanes,
		n:           c.n,
		m:           c.m,
		fingerprint: c.fingerprint,
		props:       append([]string(nil), c.props...),
		labels:      make(map[string]*storedLabels, len(c.props)),
		schemes:     schemes,
	}
	var dec core.Decoder
	edges := make([]graph.Edge, 0, c.m)
	at := make([]int, 0, c.m+1) // each edge entry's offset, then the end
	for _, name := range c.props {
		s, _ := c.stored(name)
		edges, at = edges[:0], at[:0]
		for off, x := range storedEntries(s.entries) {
			edges, at = append(edges, x.e), append(at, off)
		}
		at = append(at, len(s.entries))
		var decodeErr error
		label := func(e graph.Edge) *core.EdgeLabel {
			i, _ := slices.BinarySearchFunc(edges, e, graph.CompareEdges)
			if !s.faults[i].Has(f) {
				return nil // cannot host the fault: nothing to decode
			}
			x, _, _ := readEntry(s.entries[at[i]:], c.n, noEdge)
			el, err := dec.DecodeLabel(x.label, x.nbits)
			if err != nil && decodeErr == nil {
				decodeErr = badCert("label for edge %v: %v", e, err)
			}
			return el
		}
		e, bad, ok := dist.Inject(rng, edges, label, f)
		if decodeErr != nil {
			return nil, decodeErr
		}
		if !ok {
			return nil, fmt.Errorf("%w: fault %s not injectable on the %s labeling", ErrBadConfig, fault, name)
		}
		i, _ := slices.BinarySearchFunc(edges, e, graph.CompareEdges)
		spliced := make([]byte, 0, at[i]+entrySize(e, bad.Bits())+len(s.entries)-at[i+1])
		spliced = appendEntry(append(spliced, s.entries[:at[i]]...), e, bad)
		corrupted := &storedLabels{
			entries: append(spliced, s.entries[at[i+1]:]...),
			faults:  slices.Clone(s.faults),
		}
		corrupted.faults[i] = dist.Hosted(bad)
		out.labels[name] = corrupted
	}
	return out, nil
}
