package distnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The framed wire protocol. Every message is one frame:
//
//	magic "PW" (2) | version (1) | type (1) | payload length (4, big endian) |
//	payload
//
// Payload integers are unsigned varints unless noted. Decoding is strict:
// wrong magic or version, an unknown type, a declared length above the frame
// cap, a payload that does not consume exactly its declared bytes, or any
// entry count above its plausibility cap all fail with ErrProtocol — the
// hostile-input discipline of the certificate wire format, applied to the
// transport. A peer that violates the protocol is disconnected; the round it
// was part of is abandoned and re-run, never silently mis-scored.

// ErrProtocol marks a frame that violates the wire protocol.
var ErrProtocol = errors.New("distnet: protocol violation")

const (
	wireMagic0  = 'P'
	wireMagic1  = 'W'
	wireVersion = 1
	headerLen   = 8

	// maxFramePayload caps any frame's declared payload: large enough for a
	// full cut-label batch of the biggest supported partitions, small enough
	// that a hostile peer cannot make a node reserve unbounded memory. With
	// sorted, gap-coded id dictionaries (PLSC v6) the worst label of a
	// 32768-vertex width-2 interval graph under 8 lanes is 935 bits (~117
	// bytes), so one frame holds ~35,000 such labels.
	maxFramePayload = 4 << 20

	// maxLabelBits caps one shipped label encoding: 1<<22 bits is ~4,500×
	// that 935-bit v6 label, which grows by a few dozen bits per doubling
	// of n, so the cap sits far above any honest O(log n)-bit label.
	maxLabelBits = 1 << 22
	// maxWireRejected caps the rejected-vertex list one verdict frame
	// carries; RejectedTotal still reports the full count.
	maxWireRejected = 64
	// maxWireDetail caps a fault acknowledgment's detail string.
	maxWireDetail = 256
	// maxWireParts caps the partition count a hello may claim.
	maxWireParts = 1 << 10
)

// Frame types.
type frameType byte

const (
	frameHello frameType = iota + 1
	frameRoundStart
	frameLabels
	frameVerdict
	framePing
	framePong
	frameFault
	frameFaultAck
)

// Hello roles.
const (
	roleVertex  = 1 // a peer partition announcing its outgoing label link
	roleControl = 2 // a coordinator (rounds, faults, liveness)
)

// Fault kinds carried by frameFault.
const (
	faultKindMemory    = 1 // corrupt one label in the node's memory
	faultKindTransport = 2 // arm a one-shot transport fault on outgoing links
	faultKindHeal      = 3 // restore pristine label memory, disarm transport faults
)

// appendFrame appends a complete frame (header + payload) to dst.
func appendFrame(dst []byte, t frameType, payload []byte) []byte {
	dst = append(dst, wireMagic0, wireMagic1, wireVersion, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrame reads one frame, enforcing the header invariants and the payload
// cap. io errors pass through; malformed headers fail with ErrProtocol.
func readFrame(r *bufio.Reader) (frameType, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrProtocol, hdr[:2])
	}
	if hdr[2] != wireVersion {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrProtocol, hdr[2])
	}
	t := frameType(hdr[3])
	if t < frameHello || t > frameFaultAck {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds cap %d", ErrProtocol, n, maxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// wireReader is a strict cursor over one frame's payload.
type wireReader struct {
	buf []byte
}

func (r *wireReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated %s", ErrProtocol, field)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *wireReader) byteVal(field string) (byte, error) {
	if len(r.buf) < 1 {
		return 0, fmt.Errorf("%w: truncated %s", ErrProtocol, field)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *wireReader) uint64be(field string) (uint64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("%w: truncated %s", ErrProtocol, field)
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *wireReader) bytes(n uint64, field string) ([]byte, error) {
	if uint64(len(r.buf)) < n {
		return nil, fmt.Errorf("%w: truncated %s", ErrProtocol, field)
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, nil
}

func (r *wireReader) done() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrProtocol, len(r.buf))
	}
	return nil
}

// ---- hello ----

type helloMsg struct {
	role    byte
	part    int
	cluster uint64
}

func encodeHello(m helloMsg) []byte {
	out := []byte{m.role}
	out = binary.AppendUvarint(out, uint64(m.part))
	return binary.BigEndian.AppendUint64(out, m.cluster)
}

func decodeHello(payload []byte) (helloMsg, error) {
	r := wireReader{payload}
	var m helloMsg
	var err error
	if m.role, err = r.byteVal("hello role"); err != nil {
		return m, err
	}
	if m.role != roleVertex && m.role != roleControl {
		return m, fmt.Errorf("%w: unknown hello role %d", ErrProtocol, m.role)
	}
	part, err := r.uvarint("hello partition")
	if err != nil {
		return m, err
	}
	if part >= maxWireParts {
		return m, fmt.Errorf("%w: implausible partition %d", ErrProtocol, part)
	}
	m.part = int(part)
	if m.cluster, err = r.uint64be("hello cluster fingerprint"); err != nil {
		return m, err
	}
	return m, r.done()
}

// ---- roundStart ----

func encodeRoundStart(round uint64) []byte {
	return binary.AppendUvarint(nil, round)
}

func decodeRoundStart(payload []byte) (uint64, error) {
	r := wireReader{payload}
	round, err := r.uvarint("round number")
	if err != nil {
		return 0, err
	}
	return round, r.done()
}

// ---- labels ----

// labelEntry ships one dart's label copy: the sender-side endpoint u, the
// receiver-side endpoint v, and the label's canonical encoding. bits == 0
// means the sender holds no label for the edge.
type labelEntry struct {
	u, v int
	bits int
	data []byte
}

type labelsMsg struct {
	round   uint64
	from    int
	entries []labelEntry
}

func encodeLabels(m labelsMsg) []byte {
	out := binary.AppendUvarint(nil, m.round)
	out = binary.AppendUvarint(out, uint64(m.from))
	out = binary.AppendUvarint(out, uint64(len(m.entries)))
	for _, e := range m.entries {
		out = binary.AppendUvarint(out, uint64(e.u))
		out = binary.AppendUvarint(out, uint64(e.v))
		out = binary.AppendUvarint(out, uint64(e.bits))
		out = append(out, e.data...)
	}
	return out
}

// decodeLabels strictly decodes a labels frame. maxEntries is the number of
// cut darts the receiver actually shares with the sender — a cheap exact
// bound no honest frame exceeds.
func decodeLabels(payload []byte, maxEntries int) (labelsMsg, error) {
	r := wireReader{payload}
	var m labelsMsg
	var err error
	if m.round, err = r.uvarint("labels round"); err != nil {
		return m, err
	}
	from, err := r.uvarint("labels sender")
	if err != nil {
		return m, err
	}
	if from >= maxWireParts {
		return m, fmt.Errorf("%w: implausible sender partition %d", ErrProtocol, from)
	}
	m.from = int(from)
	count, err := r.uvarint("labels entry count")
	if err != nil {
		return m, err
	}
	if count > uint64(maxEntries) {
		return m, fmt.Errorf("%w: %d label entries, at most %d cut darts shared", ErrProtocol, count, maxEntries)
	}
	m.entries = make([]labelEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e labelEntry
		u, err := r.uvarint("label endpoint")
		if err != nil {
			return m, err
		}
		v, err := r.uvarint("label endpoint")
		if err != nil {
			return m, err
		}
		bits, err := r.uvarint("label bit count")
		if err != nil {
			return m, err
		}
		if bits > maxLabelBits {
			return m, fmt.Errorf("%w: implausible label size %d bits", ErrProtocol, bits)
		}
		data, err := r.bytes((bits+7)/8, "label payload")
		if err != nil {
			return m, err
		}
		e.u, e.v, e.bits = int(u), int(v), int(bits)
		e.data = data
		m.entries = append(m.entries, e)
	}
	return m, r.done()
}

// ---- verdict ----

type verdictMsg struct {
	round         uint64
	accepted      bool
	incomplete    bool // some peer's labels never arrived — round abandoned
	rejectedTotal int
	rejected      []int // first maxWireRejected rejecting vertices
}

func encodeVerdict(m verdictMsg) []byte {
	out := binary.AppendUvarint(nil, m.round)
	var flags byte
	if m.accepted {
		flags |= 1
	}
	if m.incomplete {
		flags |= 2
	}
	out = append(out, flags)
	out = binary.AppendUvarint(out, uint64(m.rejectedTotal))
	rej := m.rejected
	if len(rej) > maxWireRejected {
		rej = rej[:maxWireRejected]
	}
	out = binary.AppendUvarint(out, uint64(len(rej)))
	for _, v := range rej {
		out = binary.AppendUvarint(out, uint64(v))
	}
	return out
}

func decodeVerdict(payload []byte) (verdictMsg, error) {
	r := wireReader{payload}
	var m verdictMsg
	var err error
	if m.round, err = r.uvarint("verdict round"); err != nil {
		return m, err
	}
	flags, err := r.byteVal("verdict flags")
	if err != nil {
		return m, err
	}
	if flags > 3 {
		return m, fmt.Errorf("%w: unknown verdict flags %#x", ErrProtocol, flags)
	}
	m.accepted = flags&1 != 0
	m.incomplete = flags&2 != 0
	total, err := r.uvarint("verdict rejected total")
	if err != nil {
		return m, err
	}
	m.rejectedTotal = int(total)
	count, err := r.uvarint("verdict rejected count")
	if err != nil {
		return m, err
	}
	if count > maxWireRejected {
		return m, fmt.Errorf("%w: %d rejected vertices exceed the wire cap %d", ErrProtocol, count, maxWireRejected)
	}
	for i := uint64(0); i < count; i++ {
		v, err := r.uvarint("rejected vertex")
		if err != nil {
			return m, err
		}
		m.rejected = append(m.rejected, int(v))
	}
	return m, r.done()
}

// ---- ping / pong ----

func encodeNonce(nonce uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, nonce)
}

func decodeNonce(payload []byte) (uint64, error) {
	r := wireReader{payload}
	nonce, err := r.uint64be("nonce")
	if err != nil {
		return 0, err
	}
	return nonce, r.done()
}

// ---- fault / faultAck ----

type faultMsg struct {
	kind byte
	name string
	seed int64
}

func encodeFault(m faultMsg) []byte {
	out := []byte{m.kind}
	out = binary.AppendUvarint(out, uint64(len(m.name)))
	out = append(out, m.name...)
	return binary.BigEndian.AppendUint64(out, uint64(m.seed))
}

func decodeFault(payload []byte) (faultMsg, error) {
	r := wireReader{payload}
	var m faultMsg
	var err error
	if m.kind, err = r.byteVal("fault kind"); err != nil {
		return m, err
	}
	if m.kind < faultKindMemory || m.kind > faultKindHeal {
		return m, fmt.Errorf("%w: unknown fault kind %d", ErrProtocol, m.kind)
	}
	nameLen, err := r.uvarint("fault name length")
	if err != nil {
		return m, err
	}
	if nameLen > maxWireDetail {
		return m, fmt.Errorf("%w: implausible fault name length %d", ErrProtocol, nameLen)
	}
	name, err := r.bytes(nameLen, "fault name")
	if err != nil {
		return m, err
	}
	m.name = string(name)
	seed, err := r.uint64be("fault seed")
	if err != nil {
		return m, err
	}
	m.seed = int64(seed)
	return m, r.done()
}

type faultAckMsg struct {
	applied bool
	detail  string
}

func encodeFaultAck(m faultAckMsg) []byte {
	var out []byte
	if m.applied {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	detail := m.detail
	if len(detail) > maxWireDetail {
		detail = detail[:maxWireDetail]
	}
	out = binary.AppendUvarint(out, uint64(len(detail)))
	return append(out, detail...)
}

func decodeFaultAck(payload []byte) (faultAckMsg, error) {
	r := wireReader{payload}
	var m faultAckMsg
	b, err := r.byteVal("fault ack flag")
	if err != nil {
		return m, err
	}
	if b > 1 {
		return m, fmt.Errorf("%w: bad fault ack flag %d", ErrProtocol, b)
	}
	m.applied = b == 1
	detailLen, err := r.uvarint("fault ack detail length")
	if err != nil {
		return m, err
	}
	if detailLen > maxWireDetail {
		return m, fmt.Errorf("%w: implausible detail length %d", ErrProtocol, detailLen)
	}
	detail, err := r.bytes(detailLen, "fault ack detail")
	if err != nil {
		return m, err
	}
	m.detail = string(detail)
	return m, r.done()
}
