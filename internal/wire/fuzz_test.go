package wire

import (
	"bytes"
	"testing"

	"privrange/internal/sampling"
)

// FuzzDecode drives the codec with arbitrary inputs: it must never
// panic, must bound its memory (hostile length prefixes), must agree
// with the plain varint reference decoder, and anything it accepts
// must re-encode to a decodable message.
func FuzzDecode(f *testing.F) {
	// Seed corpus: one valid encoding of each message type plus known
	// tricky prefixes.
	seeds := []Message{
		&SampleReport{NodeID: 3, N: 100, Samples: []sampling.Sample{{Value: 1.5, Rank: 2}, {Value: 9, Rank: 77}}},
		&SampleReport{NodeID: 0, N: 0},
		&Heartbeat{NodeID: 1, N: 10, Piggyback: []sampling.Sample{{Value: 4, Rank: 4}}},
		&Resample{NodeID: 2, Rate: 0.5},
		&Ack{NodeID: 9},
	}
	for _, m := range seeds {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{TagSampleReport, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00})
	// A sample cut after its float, at byte 8, and rank deltas of two
	// and ten bytes: the inputs on either side of the one-byte fast path.
	f.Add(append(rawReport(rawSamples(1)), make([]byte, 8)...))
	f.Add(rawReport(rawSamples(3, delta2, delta10, delta1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, "fuzz input", data)
		m, consumed, err := Decode(data)
		if err != nil {
			return
		}
		if m == nil || consumed <= 0 || consumed > len(data) {
			t.Fatalf("accepting decode returned m=%v consumed=%d len=%d", m, consumed, len(data))
		}
		// Round-trip stability: re-encoding an accepted message must
		// produce bytes that decode to the same message.
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		back, reConsumed, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if reConsumed != len(re) {
			t.Fatalf("re-decode consumed %d of %d", reConsumed, len(re))
		}
		re2, err := Encode(back)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical: % x vs % x", re, re2)
		}
	})
}
