package distnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/certify"
)

// fuzzMaxEntries is the cut-dart bound the fuzz target decodes labels
// frames under: above every honest seed's entry count.
const fuzzMaxEntries = 64

// honestFrames returns one honest frame of every type, and a labels frame
// carrying real label encodings of a small certificate. They seed
// FuzzFrameDecode (the committed corpus in testdata/fuzz holds the same
// frames).
func honestFrames(tb testing.TB) [][]byte {
	tb.Helper()
	ps, err := certify.PropertiesByName("bipartite")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := certify.New(certify.WithProperties(ps...))
	if err != nil {
		tb.Fatal(err)
	}
	crt, _, err := c.ProveBatch(context.Background(), certify.Ladder(4))
	if err != nil {
		tb.Fatal(err)
	}
	blobs, ok := crt.EncodedLabels("bipartite")
	if !ok {
		tb.Fatal("no bipartite labeling")
	}
	labels := labelsMsg{round: 3, from: 1}
	for _, b := range blobs[:4] {
		labels.entries = append(labels.entries, labelEntry{u: b.U, v: b.V, bits: b.Bits, data: b.Data})
	}
	labels.entries = append(labels.entries, labelEntry{u: 6, v: 7}) // no label held
	return [][]byte{
		appendFrame(nil, frameHello, encodeHello(helloMsg{role: roleVertex, part: 2, cluster: 0xfeedface})),
		appendFrame(nil, frameHello, encodeHello(helloMsg{role: roleControl, cluster: 1})),
		appendFrame(nil, frameRoundStart, encodeRoundStart(41)),
		appendFrame(nil, frameLabels, encodeLabels(labels)),
		appendFrame(nil, frameVerdict, encodeVerdict(verdictMsg{round: 41, accepted: true})),
		appendFrame(nil, frameVerdict, encodeVerdict(verdictMsg{round: 42, rejectedTotal: 3, rejected: []int{4, 9, 11}})),
		appendFrame(nil, framePing, encodeNonce(7)),
		appendFrame(nil, framePong, encodeNonce(7)),
		appendFrame(nil, frameFault, encodeFault(faultMsg{kind: faultKindMemory, name: "flip-class", seed: -5})),
		appendFrame(nil, frameFaultAck, encodeFaultAck(faultAckMsg{applied: true, detail: "edge {2,3}"})),
	}
}

// FuzzFrameDecode reads arbitrary bytes as a stream of frames and hands
// every frame readFrame accepts to the decoder of its type. Nothing may
// panic, every rejection must be a protocol violation or the end of the
// stream, an accepted frame must re-frame to its own bytes, and every
// accepted payload must be a decode∘encode fixpoint: its message
// re-encodes to a payload that decodes to the same message and re-encodes
// to the same bytes.
func FuzzFrameDecode(f *testing.F) {
	frames := honestFrames(f)
	for _, frame := range frames {
		f.Add(frame)
	}
	f.Add(bytes.Join(frames, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		for {
			ft, payload, err := readFrame(br)
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("frame rejected with %v, not a protocol violation", err)
				}
				return
			}
			frame := appendFrame(nil, ft, payload)
			if !bytes.Equal(frame, data[consumed:consumed+len(frame)]) {
				t.Fatal("an accepted frame does not re-frame to its own bytes")
			}
			consumed += len(frame)
			switch ft {
			case frameHello:
				checkFixpoint(t, payload, decodeHello, encodeHello)
			case frameRoundStart:
				checkFixpoint(t, payload, decodeRoundStart, encodeRoundStart)
			case frameLabels:
				checkFixpoint(t, payload, func(p []byte) (labelsMsg, error) {
					return decodeLabels(p, fuzzMaxEntries)
				}, encodeLabels)
			case frameVerdict:
				checkFixpoint(t, payload, decodeVerdict, encodeVerdict)
			case framePing, framePong:
				checkFixpoint(t, payload, decodeNonce, encodeNonce)
			case frameFault:
				checkFixpoint(t, payload, decodeFault, encodeFault)
			case frameFaultAck:
				checkFixpoint(t, payload, decodeFaultAck, encodeFaultAck)
			default:
				t.Fatalf("readFrame accepted unknown frame type %d", ft)
			}
		}
	})
}

// checkFixpoint decodes one payload and, when it is accepted, checks that
// decode∘encode is the identity on the message.
func checkFixpoint[M any](t *testing.T, payload []byte, decode func([]byte) (M, error), encode func(M) []byte) {
	t.Helper()
	m, err := decode(payload)
	if err != nil {
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%T payload rejected with %v, not a protocol violation", m, err)
		}
		return
	}
	enc := encode(m)
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", m, err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("decode∘encode is not the identity: %+v became %+v", m, again)
	}
	if !bytes.Equal(encode(again), enc) {
		t.Fatalf("re-encoding %T is not stable", m)
	}
}
