package certify

import (
	"context"
	"runtime"
	"testing"
)

// retainedBytes returns the live heap one value from build holds: HeapAlloc
// after a collection with four values held, minus HeapAlloc after they are
// dropped and collected, divided by four (the method of the root package's
// retainedMBPerCert, in bytes).
func retainedBytes(build func() any) float64 {
	const held = 4
	var ms runtime.MemStats
	values := make([]any, held)
	for i := range values {
		values[i] = build()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	runtime.KeepAlive(values)
	clear(values)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return (float64(with) - float64(ms.HeapAlloc)) / held
}

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// provedInterval proves 3-colourability on Interval(1, 8192, 2) and
// returns the certifier, the graph and the certificate.
func provedInterval(t *testing.T) (*Certifier, *Graph, *Certificate) {
	t.Helper()
	ps, err := PropertiesByName("3color")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(ps...))
	if err != nil {
		t.Fatal(err)
	}
	g := Interval(1, 8192, 2)
	crt, _, err := c.ProveBatch(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, crt
}

// TestRetainedCertificateCostsItsWireSize pins that a certificate keeps its
// labels as their wire bytes: a proved certificate, one that has also been
// verified, and a Corrupt output of one each hold at most 1.5 times their
// MarshalBinary length of live heap. Each proved certificate comes from its
// own ProveBatch, whose structure is garbage once the certificate is
// returned, so everything the certificate keeps reachable counts. A
// certificate that kept the prover's labeling held 13.8 times its blob on
// Interval(1, 32768, 2), and one that kept the view its first Verify
// decoded held 18.7 times its blob here.
func TestRetainedCertificateCostsItsWireSize(t *testing.T) {
	const limit = 1.5
	c, g, crt := provedInterval(t) // the warm-up fills the property's memo
	check := func(what string, size int, build func() any) {
		t.Helper()
		held := retainedBytes(build)
		t.Logf("%s: %.0f bytes held for a %d-byte blob (%.2f×)", what, held, size, held/float64(size))
		if held > limit*float64(size) {
			t.Errorf("%s holds %.0f bytes, over %.1f× its %d-byte blob", what, held, limit, size)
		}
	}
	check("proved certificate", len(mustMarshal(t, crt)), func() any {
		crt, _, err := c.ProveBatch(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return crt
	})
	check("proved and verified certificate", len(mustMarshal(t, crt)), func() any {
		crt, _, err := c.ProveBatch(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Verify(context.Background(), g, crt); err != nil {
			t.Fatal(err)
		}
		return crt
	})
	for _, f := range FaultNames() {
		bad, err := crt.Corrupt(1, f)
		if err != nil {
			t.Fatal(err)
		}
		check(f+" output", len(mustMarshal(t, bad)), func() any {
			bad, err := crt.Corrupt(1, f)
			if err != nil {
				t.Fatal(err)
			}
			return bad
		})
	}
}

// TestCorruptDecodesOnlyWhatItProbes pins that Corrupt decodes only the
// labels its injection probes: on a proved certificate, every fault
// allocates less than twice the certificate's label bytes (the corrupted
// copy of the stored labels is one of them), while decoding the whole
// labeling allocates several times them.
func TestCorruptDecodesOnlyWhatItProbes(t *testing.T) {
	_, _, crt := provedInterval(t)
	blobs, _ := crt.EncodedLabels("3color")
	size := 0
	for _, b := range blobs {
		size += len(b.Data)
	}
	limit := uint64(2 * size)
	for _, f := range FaultNames() {
		got := allocatedBytes(func() {
			if _, err := crt.Corrupt(1, f); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes allocated for %d label bytes", f, got, size)
		if got >= limit {
			t.Errorf("%s: Corrupt allocates %d bytes, want under %d (twice the label bytes)", f, got, limit)
		}
	}
	blob := mustMarshal(t, crt)
	whole := allocatedBytes(func() {
		var d Certificate
		if err := d.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding the whole certificate: %d bytes allocated", whole)
	if whole < limit {
		t.Fatalf("a whole decode allocates %d bytes, under the %d-byte bound: the bound cannot tell", whole, limit)
	}
}

// TestMarshaledDecodedCertificateKeepsOneCopy pins that a certificate
// decoded from the wire keeps only its decoded labels: marshaling it,
// reading its encoded labels or corrupting it assembles the wire bytes for
// that call, so it then holds less than a quarter of its blob more than a
// decoded certificate that was never marshaled (keeping the bytes would add
// the whole blob).
func TestMarshaledDecodedCertificateKeepsOneCopy(t *testing.T) {
	_, _, crt := provedInterval(t)
	blob := mustMarshal(t, crt)
	decode := func() *Certificate {
		var d Certificate
		if err := d.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	plain := retainedBytes(func() any { return decode() })
	used := retainedBytes(func() any {
		d := decode()
		mustMarshal(t, d)
		d.EncodedLabels("3color")
		if _, err := d.Corrupt(1, "flip-class"); err != nil {
			t.Fatal(err)
		}
		return d
	})
	t.Logf("decoded: %.0f bytes held; marshaled too: %.0f (blob %d bytes)", plain, used, len(blob))
	if used-plain > float64(len(blob))/4 {
		t.Errorf("marshaling a decoded certificate keeps %.0f more bytes, over a quarter of its %d-byte blob", used-plain, len(blob))
	}
}
