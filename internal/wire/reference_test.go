package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"privrange/internal/sampling"
)

// refDecodeSamples is decodeSamples without its one-byte-delta fast
// path: every sample goes through readFloat and readUvarint. It is the
// oracle the fast path must match result for result.
func refDecodeSamples(b []byte) ([]sampling.Sample, []byte, error) {
	count, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > maxSamplesPerMessage {
		return nil, nil, fmt.Errorf("sample count %d exceeds limit", count)
	}
	if count == 0 {
		return nil, b, nil
	}
	samples := make([]sampling.Sample, 0, min(count, uint64(len(b)/minSampleBytes)))
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		var v float64
		if v, b, err = readFloat(b); err != nil {
			return nil, nil, err
		}
		var delta uint64
		if delta, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		if delta == 0 {
			return nil, nil, fmt.Errorf("sample %d: zero rank delta (ranks must increase)", i)
		}
		prev += delta
		if prev > math.MaxInt32 {
			return nil, nil, fmt.Errorf("sample %d: rank %d implausibly large", i, prev)
		}
		samples = append(samples, sampling.Sample{Value: v, Rank: int(prev)})
	}
	return samples, b, nil
}

// refDecode is Decode with refDecodeSamples in place of decodeSamples.
// Messages that carry no samples decode through Decode itself.
func refDecode(data []byte) (Message, int, error) {
	if len(data) == 0 || (data[0] != TagSampleReport && data[0] != TagHeartbeat) {
		return Decode(data)
	}
	tag := data[0]
	fail := func(err error) (Message, int, error) {
		return nil, 0, fmt.Errorf("wire: decode tag 0x%02x: %w", tag, err)
	}
	id, b, err := readUvarint(data[1:])
	if err != nil {
		return fail(err)
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return fail(err)
	}
	if tag == TagHeartbeat {
		samples, b, err := refDecodeSamples(b)
		if err != nil {
			return fail(err)
		}
		return &Heartbeat{NodeID: int(id), N: int(n), Piggyback: samples}, len(data) - len(b), nil
	}
	if len(b) == 0 {
		return fail(io.EOF)
	}
	flag := b[0]
	if flag > 1 {
		return fail(fmt.Errorf("invalid replace flag 0x%02x", flag))
	}
	samples, b, err := refDecodeSamples(b[1:])
	if err != nil {
		return fail(err)
	}
	return &SampleReport{NodeID: int(id), N: int(n), Replace: flag == 1, Samples: samples}, len(data) - len(b), nil
}

// checkMatchesReference decodes data with Decode and refDecode and
// fails unless both return the same message, consumed count and error.
// Messages are compared by type, sample-slice nilness and canonical
// encoding, which keeps every float bit (NaN included).
func checkMatchesReference(t *testing.T, what string, data []byte) {
	t.Helper()
	got, gotN, gotErr := Decode(data)
	want, wantN, wantErr := refDecode(data)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
		errors.Is(gotErr, io.EOF) != errors.Is(wantErr, io.EOF) ||
		errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
		t.Fatalf("%s (% x): error %v, reference %v", what, data, gotErr, wantErr)
	}
	if gotN != wantN {
		t.Fatalf("%s (% x): consumed %d, reference %d", what, data, gotN, wantN)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s (% x): message %#v, reference %#v", what, data, got, want)
	}
	if got == nil {
		return
	}
	gotBytes, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) || !bytes.Equal(gotBytes, wantBytes) ||
		(samplesOf(got) == nil) != (samplesOf(want) == nil) {
		t.Fatalf("%s (% x): message %#v, reference %#v", what, data, got, want)
	}
}

func samplesOf(m Message) []sampling.Sample {
	switch m := m.(type) {
	case *SampleReport:
		return m.Samples
	case *Heartbeat:
		return m.Piggyback
	}
	return nil
}

// rawSamples hand-encodes a sample section (count, then each float and
// the rank delta spelled exactly as given), so a test can choose how
// many bytes each delta takes, including padded varints the encoder
// never writes.
func rawSamples(count uint64, deltas ...[]byte) []byte {
	b := binary.AppendUvarint(nil, count)
	for i, d := range deltas {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(i)+0.25))
		b = append(b, d...)
	}
	return b
}

// rawReport frames a sample section as a replace report from node 7
// holding 2^20 readings.
func rawReport(section []byte) []byte {
	return append([]byte{TagSampleReport, 0x07, 0x80, 0x80, 0x40, 0x01}, section...)
}

// rawHeartbeat frames a sample section as node 7's heartbeat piggyback.
func rawHeartbeat(section []byte) []byte {
	return append([]byte{TagHeartbeat, 0x07, 0x80, 0x80, 0x40}, section...)
}

// Rank deltas of every width the decoder distinguishes.
var (
	delta1       = []byte{0x05}
	delta127     = []byte{0x7f}
	delta2       = binary.AppendUvarint(nil, 300)
	delta128     = binary.AppendUvarint(nil, 128)
	delta10      = []byte{0x83, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00} // 3, padded to 10 bytes
	deltaHuge    = binary.AppendUvarint(nil, 1<<63)                                   // 10 bytes, rank too large
	deltaOverrun = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	deltaZero    = []byte{0x00}
)

// refCase is one named input to the differential test.
type refCase struct {
	name string
	data []byte
}

// validReports are accepted encodings whose rank deltas take one, two
// and ten bytes, alone and mixed.
var validReports = []refCase{
	{"1-byte deltas", rawReport(rawSamples(4, delta1, delta1, delta127, delta1))},
	{"2-byte deltas", rawReport(rawSamples(3, delta2, delta128, delta2))},
	{"10-byte deltas", rawReport(rawSamples(3, delta10, delta10, delta10))},
	{"mixed deltas", rawReport(rawSamples(5, delta1, delta2, delta10, delta127, delta128))},
	{"piggyback mixed", rawHeartbeat(rawSamples(3, delta10, delta1, delta2))},
}

// edgeReports are boundary and refused encodings.
var edgeReports = []refCase{
	{"empty report", rawReport(rawSamples(0))},
	{"empty piggyback", rawHeartbeat(rawSamples(0))},
	{"exact fit, one sample", rawReport(rawSamples(1, delta1))},
	{"ends at a sample boundary", rawReport(rawSamples(3, delta1, delta2))},
	{"float with no delta", append(rawReport(rawSamples(1)), make([]byte, 8)...)},
	{"continuation byte with nothing after it", append(rawReport(rawSamples(1)), append(make([]byte, 8), 0x80)...)},
	{"zero delta", rawReport(rawSamples(2, delta1, deltaZero))},
	{"zero delta first", rawReport(rawSamples(1, deltaZero))},
	{"rank overflows int32", rawReport(rawSamples(2, delta1, deltaHuge))},
	{"varint overruns 64 bits", rawReport(rawSamples(1, deltaOverrun))},
	{"hostile count at limit", rawReport(rawSamples(maxSamplesPerMessage, delta1, delta1))},
	{"hostile count over limit", rawReport(rawSamples(maxSamplesPerMessage+1, delta1))},
	{"hostile count 2^63", rawReport(rawSamples(1<<63, delta1))},
	{"hostile count, no samples", rawReport(rawSamples(1 << 40))},
	{"hostile piggyback count", rawHeartbeat(rawSamples(maxSamplesPerMessage, delta2))},
}

// TestDecodeMatchesReference pins the one-byte-delta fast path to the
// plain varint loop: on every input below, Decode and refDecode return
// the same message, consumed count and error.
func TestDecodeMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range validReports {
		if _, _, err := Decode(tc.data); err != nil {
			t.Fatalf("%s: valid report refused: %v", tc.name, err)
		}
		for cut := 0; cut <= len(tc.data); cut++ {
			checkMatchesReference(t, fmt.Sprintf("%s cut at %d", tc.name, cut), tc.data[:cut])
		}
		checkMatchesReference(t, tc.name+" with a trailing byte", append(append([]byte(nil), tc.data...), 0x01))
	}
	for _, tc := range edgeReports {
		checkMatchesReference(t, tc.name, tc.data)
	}
	// Seeded bit flips, one to three per input, over both lists.
	corpus := append(append([]refCase(nil), validReports...), edgeReports...)
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 1000; i++ {
		data := append([]byte(nil), corpus[i%len(corpus)].data...)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		}
		checkMatchesReference(t, fmt.Sprintf("bit flip %d of %s", i, corpus[i%len(corpus)].name), data)
	}
}
