package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"privrange/internal/sampling"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, consumed, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	return back
}

func TestRoundTripAllTypes(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		m    Message
	}{
		{
			name: "sample report",
			m: &SampleReport{NodeID: 7, N: 1000, Samples: []sampling.Sample{
				{Value: 12.5, Rank: 3}, {Value: 77, Rank: 40}, {Value: 77, Rank: 41},
			}},
		},
		{name: "empty sample report", m: &SampleReport{NodeID: 1, N: 50}},
		{
			name: "replace report",
			m: &SampleReport{NodeID: 7, N: 80, Replace: true, Samples: []sampling.Sample{
				{Value: 4, Rank: 2},
			}},
		},
		{
			name: "heartbeat with piggyback",
			m: &Heartbeat{NodeID: 3, N: 200, Piggyback: []sampling.Sample{
				{Value: -1.5, Rank: 10},
			}},
		},
		{name: "bare heartbeat", m: &Heartbeat{NodeID: 3, N: 200}},
		{name: "resample", m: &Resample{NodeID: 9, Rate: 0.375}},
		{name: "ack", m: &Ack{NodeID: 4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			back := roundTrip(t, tc.m)
			if !reflect.DeepEqual(tc.m, back) {
				t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", tc.m, back)
			}
		})
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	t.Parallel()
	m := &SampleReport{NodeID: 2, N: 500, Samples: []sampling.Sample{
		{Value: 1, Rank: 1}, {Value: 2, Rank: 100}, {Value: 3, Rank: 10000},
	}}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	size, err := EncodedSize(m)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(data) {
		t.Errorf("EncodedSize = %d, len = %d", size, len(data))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "unknown tag", data: []byte{0xff, 0x01}},
		{name: "truncated report", data: []byte{TagSampleReport, 0x01}},
		{name: "truncated heartbeat", data: []byte{TagHeartbeat}},
		{name: "truncated resample", data: []byte{TagResample, 0x01, 0x00}},
		{name: "truncated ack", data: []byte{TagAck}},
		// Sample count huge but no bytes follow.
		{name: "hostile count", data: []byte{TagSampleReport, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if _, _, err := Decode(tc.data); err == nil {
				t.Error("want decode error")
			}
		})
	}
}

// TestDecodeHostileCountAllocatesLittle sends a report that claims the
// largest sample count the codec accepts, 2^24, with no samples after
// it. Decode must fail without first reserving room for them (16 B per
// sample, 256 MiB in all).
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	data := []byte{TagSampleReport, 0x01, 0x01, 0x00, 0x80, 0x80, 0x80, 0x08}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count with no samples after it should fail")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("decoding a hostile count allocated %d bytes", grown)
	}
}

func TestDecodeRejectsNonIncreasingRanks(t *testing.T) {
	t.Parallel()
	// Hand-build a report whose second rank delta is zero.
	m := &SampleReport{NodeID: 1, N: 10, Samples: []sampling.Sample{{Value: 1, Rank: 2}}}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Append one more sample with delta 0: 8 value bytes + varint 0.
	data[len(data)-9-1] = 2 // bump count to 2 (count byte precedes first sample: tag,id,n,count)
	data = append(data, make([]byte, 8)...)
	data = append(data, 0x00)
	if _, _, err := Decode(data); err == nil {
		t.Error("zero rank delta should fail")
	}
}

func TestResampleRateValidation(t *testing.T) {
	t.Parallel()
	bad := &Resample{NodeID: 1, Rate: 1.5}
	data, err := Encode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err == nil {
		t.Error("rate > 1 should fail on decode")
	}
}

func TestEncodeNil(t *testing.T) {
	t.Parallel()
	if _, err := Encode(nil); err == nil {
		t.Error("nil message should fail")
	}
}

func TestSampleReportRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(id uint16, n uint16, values []float64) bool {
		report := &SampleReport{NodeID: int(id), N: int(n)}
		rank := 0
		for _, v := range values {
			if math.IsNaN(v) {
				continue // NaN != NaN breaks DeepEqual; values are sensor readings, never NaN
			}
			rank += 1 + int(math.Abs(math.Mod(v, 7)))
			report.Samples = append(report.Samples, sampling.Sample{Value: v, Rank: rank})
		}
		data, err := Encode(report)
		if err != nil {
			return false
		}
		back, consumed, err := Decode(data)
		if err != nil {
			return false
		}
		return consumed == len(data) && reflect.DeepEqual(report, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamOfMessages(t *testing.T) {
	t.Parallel()
	msgs := []Message{
		&Heartbeat{NodeID: 1, N: 10},
		&SampleReport{NodeID: 1, N: 10, Samples: []sampling.Sample{{Value: 5, Rank: 2}}},
		&Ack{NodeID: 1},
	}
	var stream []byte
	for _, m := range msgs {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, data...)
	}
	// Messages are self-delimiting: decode them back-to-back.
	var got []Message
	for len(stream) > 0 {
		m, consumed, err := Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		stream = stream[consumed:]
	}
	if !reflect.DeepEqual(msgs, got) {
		t.Errorf("stream mismatch:\n in: %#v\nout: %#v", msgs, got)
	}
}

func TestDeltaEncodingIsCompact(t *testing.T) {
	t.Parallel()
	// 1000 consecutive ranks: deltas are all 1, so the report should cost
	// ~9 bytes per sample (8 value + 1 delta), not 8+varint(rank).
	report := &SampleReport{NodeID: 1, N: 100000}
	for i := 0; i < 1000; i++ {
		report.Samples = append(report.Samples, sampling.Sample{Value: float64(i), Rank: 90000 + i})
	}
	size, err := EncodedSize(report)
	if err != nil {
		t.Fatal(err)
	}
	// First delta is large (~3 bytes); the rest are 1 byte each.
	if size > 1000*9+32 {
		t.Errorf("encoded size %d larger than expected for delta encoding", size)
	}
}

// TestDecodeNeverPanicsOnGarbage feeds random byte soup to Decode; the
// codec must fail cleanly (error) or parse, never panic, and a reported
// consumed length must stay within the input.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	t.Parallel()
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		m, consumed, err := Decode(data)
		if err != nil {
			return true
		}
		return m != nil && consumed > 0 && consumed <= len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnTruncatedValid truncates valid encodings at
// every length; all prefixes must decode cleanly or error, never panic.
func TestDecodeNeverPanicsOnTruncatedValid(t *testing.T) {
	t.Parallel()
	msgs := []Message{
		&SampleReport{NodeID: 3, N: 1000, Samples: []sampling.Sample{
			{Value: 1.5, Rank: 2}, {Value: 7, Rank: 88}, {Value: 9.25, Rank: 901},
		}},
		&Heartbeat{NodeID: 9, N: 44, Piggyback: []sampling.Sample{{Value: 3, Rank: 4}}},
		&Resample{NodeID: 2, Rate: 0.75},
		&Ack{NodeID: 1},
	}
	for _, m := range msgs {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %T truncated at %d: %v", m, cut, r)
					}
				}()
				_, _, _ = Decode(data[:cut])
			}()
		}
	}
}

// TestGoldenBytes pins the wire format byte for byte: a replace report,
// a top-up report and a heartbeat with piggybacked samples must encode
// to exactly these bytes and decode back from them. Any codec rewrite
// has to keep every byte.
func TestGoldenBytes(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		m    Message
		hex  string
	}{
		{
			name: "replace report",
			m: &SampleReport{NodeID: 5, N: 300, Replace: true, Samples: []sampling.Sample{
				{Value: 12.5, Rank: 1}, {Value: 40, Rank: 130}, {Value: 40, Rank: 131}, {Value: -3.25e7, Rank: 300},
			}},
			hex: "01" + "05" + "ac02" + "01" + "04" + // tag, node 5, n 300, replace, 4 samples
				"0000000000002940" + "01" + // 12.5, rank 1
				"0000000000004440" + "8101" + // 40, delta 129
				"0000000000004440" + "01" + // 40, delta 1
				"0000000092fe7ec1" + "a901", // -3.25e7, delta 169
		},
		{
			name: "top-up report",
			m: &SampleReport{NodeID: 5, N: 300, Samples: []sampling.Sample{
				{Value: 7, Rank: 2}, {Value: 99.125, Rank: 299},
			}},
			hex: "01" + "05" + "ac02" + "00" + "02" +
				"0000000000001c40" + "02" + // 7, rank 2
				"0000000000c85840" + "a902", // 99.125, delta 297
		},
		{
			name: "heartbeat with piggyback",
			m: &Heartbeat{NodeID: 200, N: 70000, Piggyback: []sampling.Sample{
				{Value: 0.1, Rank: 17}, {Value: 1e300, Rank: 69999},
			}},
			hex: "02" + "c801" + "f0a204" + "02" + // tag, node 200, n 70000, 2 samples
				"9a9999999999b93f" + "11" + // 0.1, rank 17
				"9c7500883ce4377e" + "dea204", // 1e300, delta 69982
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Encode(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode = %x\n          want %x", got, want)
			}
			back, consumed, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if consumed != len(want) || !reflect.DeepEqual(back, tc.m) {
				t.Fatalf("Decode = %#v (consumed %d of %d), want %#v", back, consumed, len(want), tc.m)
			}
		})
	}
}
