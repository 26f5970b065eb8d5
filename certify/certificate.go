package certify

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
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
// label's bytes are the exact core.EncodeLabel bit stream, which
// MarshalBinary writes straight into one exactly sized output buffer.
// Version 4 is the label grammar with per-entry vertex-id dictionaries: a
// label writes each distinct node entry once, in an entry table in
// first-use order, and each of its certificates as row indices into that
// table (as version 3 did); each entry writes its distinct vertex ids once,
// in first-use order, and every vertex-id occurrence as an index into
// them. Identifiers keep version 2's fixed widths: one varint width per
// identifier kind and then each identifier in exactly that many bits, and
// a class id is a 16-bit content hash plus a varint collision rank. There
// is no decoder for versions 1 to 3 (version 3 wrote every vertex-id
// occurrence in full); their blobs fail with the unsupported-version
// error.
// Decoding is strict — wrong magic, unknown version, truncation, trailing
// bytes, CRC mismatch, or non-canonical label bytes all fail with
// ErrBadCertificate — and a decoded certificate re-marshals
// byte-identically.
//
// A decoded certificate shares its repeated components by pointer, as a
// proved one does: every copy of a node entry with the same bits on the
// wire, and every completion-edge certificate with the same entries and
// owner position, is one value in memory. Its labels are therefore
// read-only; Corrupt copies before it mutates. Each component is held
// once, in the layout the wire uses — identifiers as slices aligned with
// the lanes, and one cached encoding per shared entry — while certificates
// and whole labels are encoded only when marshaled.
type Certificate struct {
	maxLanes    int
	n, m        int
	fingerprint uint64
	props       []string // batch order
	labelings   map[string]*core.Labeling

	// schemes are the per-property verification schemes. Proving fills them
	// with the prover's own schemes (shared registries); for decoded
	// certificates they are rebuilt under schemeMu on first verification,
	// reconstructing each registry from the labels (core.RebuildRegistry),
	// so concurrent Verify calls on one decoded certificate are safe.
	schemeMu sync.Mutex
	schemes  map[string]*core.Scheme
}

// MaxLaneBudget is the largest lane budget the certificate wire format can
// carry: WithMaxLanes rejects larger budgets so every issued certificate
// round-trips through MarshalBinary/UnmarshalBinary. (The paper's schemes
// target small constant k; 4096 is far beyond any practical pathwidth.)
const MaxLaneBudget = 1 << 12

// Wire-format constants.
const (
	certMagic   = "PLSC" // Proof Labeling Scheme Certificate
	certVersion = 5

	// Decode plausibility bounds; anything larger is rejected outright.
	// maxLabelBits is ~910,000× the worst version-5 label of a
	// 32768-vertex width-2 interval graph under 8 lanes (1181 bits);
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
	l, ok := c.labelings[property]
	if !ok {
		return 0
	}
	return l.MaxBits()
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

// MarshalBinary encodes the certificate into the versioned wire format. The
// output is sized exactly up front from the labels' memoized bit counts, and
// every label is encoded straight into it.
func (c *Certificate) MarshalBinary() ([]byte, error) {
	if len(c.props) == 0 {
		return nil, fmt.Errorf("%w: cannot marshal an empty certificate", ErrBadConfig)
	}
	size := len(certMagic) + 1 + uvarintLen(uint64(c.maxLanes)) + uvarintLen(uint64(c.n)) +
		uvarintLen(uint64(c.m)) + 8 + uvarintLen(uint64(len(c.props))) + 4
	for _, name := range c.props {
		l, ok := c.labelings[name]
		if !ok {
			return nil, fmt.Errorf("%w: certificate lists property %q without a labeling", ErrBadCertificate, name)
		}
		size += uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(len(l.Edges)))
		for e, el := range l.Edges {
			nbits := el.Bits()
			size += uvarintLen(uint64(e.U)) + uvarintLen(uint64(e.V)) + uvarintLen(uint64(nbits)) + (nbits+7)/8
		}
	}
	out := make([]byte, 0, size)
	out = append(out, certMagic...)
	out = append(out, certVersion)
	out = binary.AppendUvarint(out, uint64(c.maxLanes))
	out = binary.AppendUvarint(out, uint64(c.n))
	out = binary.AppendUvarint(out, uint64(c.m))
	out = binary.BigEndian.AppendUint64(out, c.fingerprint)
	out = binary.AppendUvarint(out, uint64(len(c.props)))
	for _, name := range c.props {
		l := c.labelings[name]
		edges := sortedEdges(l)
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(edges)))
		for _, e := range edges {
			el := l.Edges[e]
			out = binary.AppendUvarint(out, uint64(e.U))
			out = binary.AppendUvarint(out, uint64(e.V))
			out = binary.AppendUvarint(out, uint64(el.Bits()))
			out, _ = core.AppendLabel(out, el)
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// uvarintLen returns the byte length of v's binary.AppendUvarint encoding.
func uvarintLen(v uint64) int { return (mathbits.Len64(v|1) + 6) / 7 }

// sortedEdges returns a labeling's edges in wire order: by endpoints.
func sortedEdges(l *core.Labeling) []graph.Edge {
	edges := make([]graph.Edge, 0, len(l.Edges))
	for e := range l.Edges {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return edges
}

// UnmarshalBinary strictly decodes a certificate previously produced by
// MarshalBinary. Any deviation from the canonical encoding — wrong magic or
// version, truncation, bit flips (caught by the CRC trailer), non-canonical
// label payloads, duplicate edges or properties, or trailing bytes — fails
// with an error matching ErrBadCertificate. On success the receiver
// re-marshals byte-identically.
func (c *Certificate) UnmarshalBinary(data []byte) error {
	bad := func(format string, args ...any) error {
		return wrapErr(ErrBadCertificate, fmt.Errorf(format, args...))
	}
	if len(data) < len(certMagic)+1+8+4 {
		return bad("short blob (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return bad("CRC mismatch")
	}
	if string(body[:len(certMagic)]) != certMagic {
		return bad("bad magic %q", body[:len(certMagic)])
	}
	if v := body[len(certMagic)]; v != certVersion {
		return bad("unsupported format version %d (want %d)", v, certVersion)
	}
	r := body[len(certMagic)+1:]
	take := func(field string) (uint64, error) {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			return 0, bad("truncated %s", field)
		}
		r = r[n:]
		return v, nil
	}
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
		return bad("implausible header (lanes=%d n=%d m=%d)", maxLanes, n, m)
	}
	if len(r) < 8 {
		return bad("truncated fingerprint")
	}
	fp := binary.BigEndian.Uint64(r[:8])
	r = r[8:]
	nProps, err := take("property count")
	if err != nil {
		return err
	}
	if nProps == 0 || nProps > maxCertProps {
		return bad("implausible property count %d", nProps)
	}
	// Every declared size field below is attacker-controlled: before any
	// size-hinted allocation, cap it against the bytes actually remaining in
	// the buffer (each property costs ≥ minPropBytes, each edge entry
	// ≥ minEdgeBytes on the wire), so a 100-byte blob declaring 2²⁶ edges is
	// rejected as truncated instead of reserving gigabytes.
	if nProps > uint64(len(r))/minPropBytes {
		return bad("property count %d exceeds the %d remaining bytes", nProps, len(r))
	}
	var out decodedCertificate
	out.maxLanes = int(maxLanes)
	out.n = int(n)
	out.m = int(m)
	out.fingerprint = fp
	out.labelings = make(map[string]*core.Labeling, nProps)
	var dec core.Decoder // one per call: labels of every property share components
	var back []byte      // re-encoding scratch of the canonicality check
	dec.Grow(int(m), int(nProps), 8*len(r))
	for p := uint64(0); p < nProps; p++ {
		nameLen, err := take("property name length")
		if err != nil {
			return err
		}
		if nameLen == 0 || nameLen > maxCertNameLen {
			return bad("implausible property name length %d", nameLen)
		}
		if uint64(len(r)) < nameLen {
			return bad("truncated property name")
		}
		name := string(r[:nameLen])
		r = r[nameLen:]
		if !utf8.ValidString(name) {
			return bad("property name is not valid UTF-8")
		}
		if _, dup := out.labelings[name]; dup {
			return bad("duplicate property %q", name)
		}
		nEdges, err := take("edge count")
		if err != nil {
			return err
		}
		if nEdges > maxCertEdges || nEdges != m {
			return bad("labeling for %q covers %d edges, configuration has %d", name, nEdges, m)
		}
		if nEdges > uint64(len(r))/minEdgeBytes {
			return bad("labeling for %q declares %d edges, only %d bytes remain", name, nEdges, len(r))
		}
		l := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, nEdges)}
		prev := graph.Edge{U: -1, V: -1}
		for i := uint64(0); i < nEdges; i++ {
			u, err := take("edge endpoint")
			if err != nil {
				return err
			}
			v, err := take("edge endpoint")
			if err != nil {
				return err
			}
			if u >= v || v >= n {
				return bad("invalid edge {%d,%d}", u, v)
			}
			e := graph.Edge{U: int(u), V: int(v)}
			if e.U < prev.U || (e.U == prev.U && e.V <= prev.V) {
				return bad("edge %v out of canonical order", e)
			}
			prev = e
			nbits, err := take("label bit count")
			if err != nil {
				return err
			}
			if nbits > maxLabelBits {
				return bad("implausible label size %d bits", nbits)
			}
			nbytes := (nbits + 7) / 8
			if uint64(len(r)) < nbytes {
				return bad("truncated label payload")
			}
			payload := r[:nbytes]
			r = r[nbytes:]
			el, derr := dec.DecodeLabel(payload, int(nbits))
			if derr != nil {
				return bad("label for edge %v: %v", e, derr)
			}
			// Canonicality: the payload must be the exact re-encoding, so a
			// decoded certificate re-marshals byte-identically and labels
			// cannot smuggle unread trailing bits, dirty padding or a
			// repeated entry-table row. The decoder interns entries by raw
			// bits, so this check alone decides canonicality; it splices
			// the shared entries' cached encodings.
			var backBits int
			back, backBits = core.AppendLabel(back[:0], el)
			if backBits != int(nbits) || string(back) != string(payload) {
				return bad("label for edge %v is not canonically encoded", e)
			}
			l.Edges[e] = el
		}
		out.props = append(out.props, name)
		out.labelings[name] = l
	}
	if len(r) != 0 {
		return bad("%d trailing bytes", len(r))
	}
	c.schemeMu.Lock()
	defer c.schemeMu.Unlock()
	c.maxLanes = out.maxLanes
	c.n = out.n
	c.m = out.m
	c.fingerprint = out.fingerprint
	c.props = out.props
	c.labelings = out.labelings
	c.schemes = nil
	return nil
}

// decodedCertificate carries UnmarshalBinary's in-flight fields (the
// receiver is only written after full validation, and without copying its
// mutex).
type decodedCertificate struct {
	maxLanes    int
	n, m        int
	fingerprint uint64
	props       []string
	labelings   map[string]*core.Labeling
}

// ensureSchemes builds the per-property verification schemes of a decoded
// certificate: each property resolves to the verifying certifier's
// configured instance of that name, whose memo the scheme then shares, or
// else through the catalog, and its class registry is reconstructed from
// the labeling (fresh certificates keep the prover's schemes and skip
// this). An unresolvable property name fails with ErrUnknownProperty; a
// labeling that does not determine a consistent registry fails
// verification (ErrVerifyFailed).
func (c *Certificate) ensureSchemes(v *Certifier) error {
	c.schemeMu.Lock()
	defer c.schemeMu.Unlock()
	if c.schemes != nil {
		return nil
	}
	schemes := make(map[string]*core.Scheme, len(c.props))
	for _, name := range c.props {
		p, ok := v.property(name)
		if !ok {
			var err error
			if p, err = PropertyByName(name); err != nil {
				return err
			}
		}
		s := core.NewSchemeMemo(p.p, c.maxLanes, p.algebraMemo())
		if err := s.RebuildRegistry(c.labelings[name]); err != nil {
			return newVerifyError(name, nil)
		}
		schemes[name] = s
	}
	c.schemes = schemes
	return nil
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
// not carry the property. The distributed runtime (certify/distnet)
// partitions these blobs across processes as each processor's label memory
// and re-ships them between peers during verification rounds.
func (c *Certificate) EncodedLabels(property string) ([]LabelBlob, bool) {
	l, ok := c.labelings[property]
	if !ok {
		return nil, false
	}
	edges := sortedEdges(l)
	out := make([]LabelBlob, len(edges))
	for i, e := range edges {
		data, nbits := core.EncodeLabel(l.Edges[e])
		out[i] = LabelBlob{U: e.U, V: e.V, Bits: nbits, Data: data}
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
// reproducible). The receiver is unchanged. Soundness of the scheme means
// one verification round rejects every corrupted certificate; Corrupt
// exists to demonstrate exactly that.
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
	c.schemeMu.Lock()
	schemes := c.schemes
	c.schemeMu.Unlock()
	out := &Certificate{
		maxLanes:    c.maxLanes,
		n:           c.n,
		m:           c.m,
		fingerprint: c.fingerprint,
		props:       append([]string(nil), c.props...),
		labelings:   make(map[string]*core.Labeling, len(c.labelings)),
		schemes:     schemes,
	}
	for _, name := range c.props {
		mutated, ok := dist.Inject(rng, c.labelings[name], f)
		if !ok {
			return nil, fmt.Errorf("%w: fault %s not injectable on the %s labeling", ErrBadConfig, fault, name)
		}
		out.labelings[name] = mutated
	}
	return out, nil
}
