// Package bits provides bit-exact serialization for proof labels, so that
// the label sizes reported by experiments are honest bit counts (the paper's
// complexity measure) rather than in-memory struct sizes.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"slices"
)

// Writer accumulates bits most-significant-first. The zero value writes
// into a fresh buffer; NewWriter appends to an existing one.
type Writer struct {
	buf   []byte
	nbits int
}

// NewWriter returns a Writer that appends to buf, starting at the byte
// boundary after its last byte. Bits counts buf's own bits too.
func NewWriter(buf []byte) Writer { return Writer{buf: buf, nbits: 8 * len(buf)} }

// WriteBit appends one bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbits%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbits/8] |= 1 << uint(7-w.nbits%8)
	}
	w.nbits++
}

// writeBits appends the n low bits of v, most significant first, in one
// 64-bit merge: the bits are aligned under the partial last byte, its free
// bits take the first of them, and the rest are appended as whole bytes.
// It upholds the Writer's zero-padding invariant (bits past nbits are
// zero).
func (w *Writer) writeBits(v uint64, n int) {
	if n > 56 {
		// At most 7 bits of the last byte are taken, so one merge holds
		// 56 bits: write the high n−32 bits first, then the low 32.
		w.writeBits(v>>32, n-32)
		n = 32
	}
	if n <= 0 {
		return
	}
	used := w.nbits % 8
	word := (v & (1<<uint(n) - 1)) << uint(64-used-n)
	if used > 0 {
		w.buf[len(w.buf)-1] |= byte(word >> 56)
		word <<= 8
	}
	w.nbits += n
	w.buf = binary.BigEndian.AppendUint64(w.buf, word)[:(w.nbits+7)/8]
}

// WriteUint appends v in exactly width bits (big-endian). It panics if v
// does not fit, as that is a programming error in the label encoder.
// Widths beyond 64 pad with leading zero bits.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, width))
	}
	if width > 64 {
		w.writeBits(0, width-64)
		width = 64
	}
	w.writeBits(v, width)
}

// WriteUvarint appends v using a self-delimiting Elias-gamma-style code:
// a unary length prefix followed by the value bits. Cost: 2⌊log₂(v+1)⌋+1.
func (w *Writer) WriteUvarint(v uint64) {
	v++ // encode v+1 ≥ 1
	width := mathbits.Len64(v) - 1
	if width < 0 {
		// v+1 wrapped to zero (v was MaxUint64): a single stop bit, as the
		// bit-at-a-time encoder emitted.
		w.writeBits(0, 1)
		return
	}
	if width <= 31 {
		// Single merged emission: width ones, a zero, then the width value
		// bits (2·width+1 ≤ 63 bits).
		prefix := uint64(1)<<uint(width) - 1
		w.writeBits(prefix<<uint(width+1)|v&(1<<uint(width)-1), 2*width+1)
		return
	}
	w.writeBits(1<<uint(width+1)-2, width+1) // width ones, then a zero
	w.writeBits(v, width)                    // value bits below the leading 1
}

// WriteChunk appends the bits [from, to) of a pre-encoded bit sequence
// (buf, packed as a Writer packs it), bit-for-bit identical to replaying
// the writes that produced those bits. buf is a string so that a cached
// encoding held as a string key can be spliced without a byte copy of its
// own. The bits are moved 56 at a time, so a chunk costs O(bytes) at any
// pair of bit offsets; bits of buf outside the range are never written.
func (w *Writer) WriteChunk(buf string, from, to int) {
	if from >= to {
		return
	}
	// Room for the chunk plus one 8-byte store past its end.
	w.buf = slices.Grow(w.buf, (to-from+7)/8+8)
	b := w.buf[:cap(w.buf)]
	pos := w.nbits
	for from < to {
		n := min(56, to-from)
		// A load at byte from/8 shifted by from%8 ≤ 7 holds at least 57
		// bits starting at from; they go under the used bits of byte pos/8
		// (bits past nbits are zero, bytes past len are free).
		v := load64(buf, from/8) << uint(from%8) >> uint(64-n)
		i, used := pos/8, uint(pos%8)
		word := v << (64 - used - uint(n))
		if used > 0 {
			word |= uint64(b[i]) << 56
		}
		binary.BigEndian.PutUint64(b[i:], word)
		from, pos = from+n, pos+n
	}
	w.nbits = pos
	w.buf = b[:(pos+7)/8]
}

// load64 returns the eight bytes of s starting at byte i, most significant
// first; bytes past the end read as zero.
func load64(s string, i int) uint64 {
	if i+8 <= len(s) {
		s = s[i : i+8]
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	return loadTail(s, i)
}

// loadTail is load64 near the end of s.
func loadTail(s string, i int) uint64 {
	var v uint64
	for k := i; k < i+8; k++ {
		v <<= 8
		if k < len(s) {
			v |= uint64(s[k])
		}
	}
	return v
}

// UvarintLen returns the exact bit length WriteUvarint(v) produces
// (2⌊log₂(v+1)⌋+1), letting label-size accounting run without
// materializing an encoding.
func UvarintLen(v uint64) int {
	width := mathbits.Len64(v+1) - 1
	if width < 0 {
		return 1 // v+1 wrapped to zero
	}
	return 2*width + 1
}

// Grow reserves room for n more bits, so that writing them does not
// reallocate.
func (w *Writer) Grow(n int) {
	w.buf = slices.Grow(w.buf, (w.nbits+n+7)/8-len(w.buf))
}

// Bits returns the number of bits written.
func (w *Writer) Bits() int { return w.nbits }

// Bytes returns a copy of the encoded bytes (the final byte zero-padded).
func (w *Writer) Bytes() []byte { return append([]byte(nil), w.buf...) }

// Buffer returns the encoded bytes, including any NewWriter started from,
// without copying them: later writes may change them.
func (w *Writer) Buffer() []byte { return w.buf }

// ErrOutOfBits is returned when a Reader runs past the end of input.
var ErrOutOfBits = errors.New("bits: out of input")

// Reader consumes bits written by Writer. Multi-bit reads take a 64-bit
// window at a time; a read that runs past the end falls back to the
// bit-at-a-time definition, so errors surface at the same positions.
type Reader struct {
	buf  []byte
	pos  int
	size int
}

// NewReader wraps encoded bytes with an explicit bit length.
func NewReader(buf []byte, nbits int) *Reader {
	return &Reader{buf: buf, size: nbits}
}

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of bits not yet consumed.
func (r *Reader) Remaining() int { return r.size - r.pos }

// Seek moves the read position to pos, a value previously returned by Pos.
func (r *Reader) Seek(pos int) { r.pos = pos }

// windowAt returns the 64 bits starting at bit p, most significant first;
// bits past the end of buf read as zero. Callers use only bits below size.
func (r *Reader) windowAt(p int) uint64 {
	i, shift := p/8, uint(p%8)
	if i+9 <= len(r.buf) {
		b := r.buf[i : i+9]
		return binary.BigEndian.Uint64(b)<<shift | uint64(b[8])>>(8-shift)
	}
	var w, next uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < len(r.buf) {
			w |= uint64(r.buf[k])
		}
	}
	if i+8 < len(r.buf) {
		next = uint64(r.buf[i+8])
	}
	return w<<shift | next>>(8-shift)
}

// AppendBits appends the bits [from, to) of the input to dst, packed
// most-significant-first from a byte boundary with the final byte
// zero-padded — the layout Writer produces. It does not move the read
// position.
func (r *Reader) AppendBits(dst []byte, from, to int) []byte {
	p := from
	for ; to-p >= 64; p += 64 {
		dst = binary.BigEndian.AppendUint64(dst, r.windowAt(p))
	}
	if n := to - p; n > 0 {
		w := r.windowAt(p) &^ (^uint64(0) >> uint(n)) // clear the bits past to
		for k := 0; k < (n+7)/8; k++ {
			dst = append(dst, byte(w>>uint(56-8*k)))
		}
	}
	return dst
}

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.size {
		return false, ErrOutOfBits
	}
	b := r.buf[r.pos/8]&(1<<uint(7-r.pos%8)) != 0
	r.pos++
	return b, nil
}

// ReadUint consumes width bits.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width > 0 && width <= 64 && r.size-r.pos >= width {
		v := r.windowAt(r.pos) >> uint(64-width)
		r.pos += width
		return v, nil
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// ReadUvarint consumes one WriteUvarint value.
func (r *Reader) ReadUvarint() (uint64, error) {
	if avail := r.size - r.pos; avail > 0 {
		win := r.windowAt(r.pos)
		width := mathbits.LeadingZeros64(^win) // the unary length prefix
		// Fast path for every width a window can hold: the whole code word
		// (width ones, a zero, width value bits) lies below size, so no bit
		// past the end is used. Longer prefixes, including the 64-bit wrap,
		// and truncated code words take the bit-at-a-time loop below.
		if width < 64 && 2*width+1 <= avail {
			var v uint64
			if width <= 31 {
				v = win << uint(width+1) >> uint(64-width)
			} else {
				v = r.windowAt(r.pos+width+1) >> uint(64-width)
			}
			r.pos += 2*width + 1
			return (1<<uint(width) | v) - 1, nil
		}
	}
	width := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if !b {
			break
		}
		width++
	}
	v := uint64(1)
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v - 1, nil
}
