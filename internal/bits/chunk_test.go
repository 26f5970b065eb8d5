package bits

import (
	"math/rand"
	"testing"
)

// randomWrites appends count random bit/uint/uvarint writes to w and replays
// the identical sequence into mirror.
func randomWrites(rng *rand.Rand, w, mirror *Writer, count int) {
	for i := 0; i < count; i++ {
		switch rng.Intn(3) {
		case 0:
			b := rng.Intn(2) == 1
			w.WriteBit(b)
			mirror.WriteBit(b)
		case 1:
			width := 1 + rng.Intn(30)
			v := rng.Uint64() & (1<<uint(width) - 1)
			w.WriteUint(v, width)
			mirror.WriteUint(v, width)
		default:
			v := uint64(rng.Intn(1 << 16))
			w.WriteUvarint(v)
			mirror.WriteUvarint(v)
		}
	}
}

// TestWriteChunkBitIdentical checks that appending a pre-encoded chunk at an
// arbitrary (usually unaligned) bit offset, taken from an arbitrary bit
// offset of a longer encoding, produces exactly the stream that replaying
// the chunk's original writes would, and that the writer stays usable
// afterwards.
func TestWriteChunkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var chunk Writer
		var direct Writer // ground truth: every write replayed natively
		var chunked Writer

		randomWrites(rng, &chunked, &direct, rng.Intn(8)) // random prefix offset

		// The same random writes land in the standalone chunk writer and,
		// natively at the current offset, in the ground-truth writer; the
		// chunked writer then appends the pre-encoded chunk in one call.
		var before, discard Writer
		randomWrites(rng, &chunk, &before, rng.Intn(6)) // bits before the chunk in its source
		from := chunk.Bits()
		randomWrites(rng, &chunk, &direct, rng.Intn(12))
		to := chunk.Bits()
		randomWrites(rng, &chunk, &discard, rng.Intn(6)) // bits after it
		chunked.WriteChunk(string(chunk.Bytes()), from, to)

		randomWrites(rng, &chunked, &direct, rng.Intn(8)) // writes after the chunk

		if chunked.Bits() != direct.Bits() {
			t.Fatalf("trial %d: %d bits vs %d", trial, chunked.Bits(), direct.Bits())
		}
		a, b := chunked.Bytes(), direct.Bytes()
		if string(a) != string(b) {
			t.Fatalf("trial %d: byte streams differ:\n%x\n%x", trial, a, b)
		}
	}
}

// TestWriteChunkReplaysWrites pins WriteChunk against a bit-by-bit replay of
// the chunk (the definitionally correct append), for every kind of range:
// a whole encoding or any sub-range of it.
func TestWriteChunkReplaysWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		var chunk Writer
		var scratch Writer
		randomWrites(rng, &chunk, &scratch, 1+rng.Intn(10))
		from, to := 0, chunk.Bits()
		if trial%2 == 1 {
			from = rng.Intn(to + 1)
			to = from + rng.Intn(to-from+1)
		}

		var prefixA, prefixB Writer
		randomWrites(rng, &prefixA, &prefixB, rng.Intn(10))

		prefixA.WriteChunk(string(chunk.Bytes()), from, to)
		r := NewReader(chunk.Bytes(), to)
		r.Seek(from)
		for {
			b, err := r.ReadBit()
			if err != nil {
				break
			}
			prefixB.WriteBit(b)
		}
		if prefixA.Bits() != prefixB.Bits() || string(prefixA.Bytes()) != string(prefixB.Bytes()) {
			t.Fatalf("trial %d: chunk [%d, %d) append diverges from bit replay", trial, from, to)
		}
	}
}

// TestNewWriterAppends checks that a Writer started on existing bytes
// leaves them alone and appends exactly what a fresh Writer would write,
// from the next byte boundary.
func TestNewWriterAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		prefix := make([]byte, rng.Intn(4))
		rng.Read(prefix)
		appended := NewWriter(append([]byte(nil), prefix...))
		var fresh Writer
		randomWrites(rng, &appended, &fresh, rng.Intn(12))
		if appended.Bits() != 8*len(prefix)+fresh.Bits() ||
			string(appended.Buffer()) != string(prefix)+string(fresh.Bytes()) {
			t.Fatalf("trial %d: appending writer diverges from prefix + fresh writer", trial)
		}
	}
}
