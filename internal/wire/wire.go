// Package wire defines the compact binary message format spoken between
// IoT nodes and the base station, plus exact size accounting. The paper's
// communication-cost claims are counted in samples shipped; this codec
// turns them into concrete bytes so the iot simulator can report both.
//
// Framing: every message starts with a one-byte type tag followed by a
// type-specific body. Integers use unsigned varints (most ranks and sizes
// are small); sample values use raw IEEE-754 float64 (sensor readings have
// no exploitable integer structure in general). Messages are
// self-delimiting, so streams of messages need no extra framing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"privrange/internal/sampling"
)

// Message type tags.
const (
	TagSampleReport byte = 0x01
	TagHeartbeat    byte = 0x02
	TagResample     byte = 0x03
	TagAck          byte = 0x04
	TagTraceContext byte = 0x05
)

// maxSamplesPerMessage bounds decode-side allocation against corrupt or
// hostile length prefixes.
const maxSamplesPerMessage = 1 << 24

// Message is any node/base-station message.
type Message interface {
	// Tag returns the message's wire type tag.
	Tag() byte
	// appendBody appends the body (everything after the tag) to b.
	appendBody(b []byte) []byte
	// decodeBody parses the body from the front of b and returns the
	// bytes that follow it.
	decodeBody(b []byte) ([]byte, error)
}

// SampleReport carries a batch of rank-annotated samples from a node,
// together with the node's current dataset size (needed by the estimator
// and virtually free to include).
type SampleReport struct {
	NodeID int
	N      int
	// Replace indicates the receiver must discard the node's previously
	// stored samples: the node redrew from scratch (its data changed)
	// rather than topping an existing sample up. When false the samples
	// are incremental and merge with what the base station already holds.
	Replace bool
	Samples []sampling.Sample
}

// Tag implements Message.
func (*SampleReport) Tag() byte { return TagSampleReport }

// Heartbeat is a node's periodic liveness message. The paper observes
// that up to a handful of samples can ride along in an ordinary heartbeat
// for free; Piggyback carries them.
type Heartbeat struct {
	NodeID    int
	N         int
	Piggyback []sampling.Sample
}

// Tag implements Message.
func (*Heartbeat) Tag() byte { return TagHeartbeat }

// Resample commands a node to raise its sampling rate to Rate and ship
// the new samples — the paper's "collect more samples" control path.
type Resample struct {
	NodeID int
	// Rate is the requested Bernoulli sampling probability.
	Rate float64
}

// Tag implements Message.
func (*Resample) Tag() byte { return TagResample }

// Ack acknowledges a command.
type Ack struct {
	NodeID int
}

// Tag implements Message.
func (*Ack) Tag() byte { return TagAck }

// TraceContext carries a distributed-trace context alongside a command
// on the node protocol, so a sampled collection round triggered by a
// traced sale can be followed down to the nodes. The body is fixed
// width (8+8+1 bytes, little-endian ids + a flags octet, bit 0 =
// sampled) — constant cost, and a peer that predates the tag rejects
// it cleanly at Decode (unknown tag) instead of desyncing the stream,
// so senders must only emit it to peers that advertise understanding.
// Carrying only ids and a flag, it can never leak sample values.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Tag implements Message.
func (*TraceContext) Tag() byte { return TagTraceContext }

// Append appends the wire form of m to dst and returns the extended
// slice. A caller that encodes many messages passes the same buffer
// back each time (buf, err = Append(buf[:0], m)), so encoding costs no
// allocation once the buffer has grown to the largest message.
func Append(dst []byte, m Message) ([]byte, error) {
	if m == nil {
		return dst, fmt.Errorf("wire: nil message")
	}
	return m.appendBody(append(dst, m.Tag())), nil
}

// Encode serializes a message to its wire form in a new slice.
func Encode(m Message) ([]byte, error) { return Append(nil, m) }

// Decode parses one message from data and returns it along with the
// number of bytes consumed. The message copies every field out of data
// and never aliases it, so data may be reused as soon as Decode returns.
func Decode(data []byte) (Message, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("wire: empty input")
	}
	tag := data[0]
	var m Message
	switch tag {
	case TagSampleReport:
		m = &SampleReport{}
	case TagHeartbeat:
		m = &Heartbeat{}
	case TagResample:
		m = &Resample{}
	case TagAck:
		m = &Ack{}
	case TagTraceContext:
		m = &TraceContext{}
	default:
		return nil, 0, fmt.Errorf("wire: unknown message tag 0x%02x", tag)
	}
	rest, err := m.decodeBody(data[1:])
	if err != nil {
		return nil, 0, fmt.Errorf("wire: decode tag 0x%02x: %w", tag, err)
	}
	return m, len(data) - len(rest), nil
}

// EncodedSize returns the exact wire size of the message in bytes.
func EncodedSize(m Message) (int, error) {
	b, err := Encode(m)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// --- body codecs -----------------------------------------------------------
//
// Bodies are appended to and parsed from byte slices directly. The
// readers fail exactly as their io.Reader counterparts would: io.EOF
// when the body ends before a field starts, io.ErrUnexpectedEOF when
// it ends inside one, and an overflow error for a varint longer than
// 64 bits.

// errVarintOverflow is binary.ReadUvarint's overflow error.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// truncated is the error for a field of which b holds only a prefix.
func truncated(b []byte) error {
	if len(b) == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n > 0:
		return v, b[n:], nil
	case n < 0 || len(b) >= binary.MaxVarintLen64:
		return 0, nil, errVarintOverflow
	default:
		return 0, nil, truncated(b)
	}
}

func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, truncated(b)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendSamples(b []byte, samples []sampling.Sample) []byte {
	b = binary.AppendUvarint(b, uint64(len(samples)))
	// Ranks are strictly increasing; delta-encode them so long reports
	// stay compact.
	prev := uint64(0)
	for _, s := range samples {
		b = appendFloat(b, s.Value)
		rank := uint64(s.Rank)
		b = binary.AppendUvarint(b, rank-prev)
		prev = rank
	}
	return b
}

// minSampleBytes is the smallest encoding of one sample: the float and
// a one-byte rank delta.
const minSampleBytes = 8 + 1

func decodeSamples(b []byte) ([]sampling.Sample, []byte, error) {
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
	// A count the remaining bytes cannot hold fails below, at the first
	// missing field; size the slice by what the bytes can hold so a
	// hostile count allocates nothing it could not fill.
	samples := make([]sampling.Sample, 0, min(count, uint64(len(b)/minSampleBytes)))
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		var v float64
		var delta uint64
		if len(b) >= minSampleBytes && b[8] < 0x80 {
			// The common sample: the float and a one-byte rank delta.
			v = math.Float64frombits(binary.LittleEndian.Uint64(b))
			delta = uint64(b[8])
			b = b[minSampleBytes:]
		} else {
			if v, b, err = readFloat(b); err != nil {
				return nil, nil, err
			}
			if delta, b, err = readUvarint(b); err != nil {
				return nil, nil, err
			}
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

func (m *SampleReport) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.NodeID))
	b = binary.AppendUvarint(b, uint64(m.N))
	flag := byte(0)
	if m.Replace {
		flag = 1
	}
	return appendSamples(append(b, flag), m.Samples)
}

func (m *SampleReport) decodeBody(b []byte) ([]byte, error) {
	id, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, io.EOF
	}
	flag := b[0]
	if flag > 1 {
		return nil, fmt.Errorf("invalid replace flag 0x%02x", flag)
	}
	samples, b, err := decodeSamples(b[1:])
	if err != nil {
		return nil, err
	}
	m.NodeID, m.N, m.Replace, m.Samples = int(id), int(n), flag == 1, samples
	return b, nil
}

func (m *Heartbeat) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.NodeID))
	b = binary.AppendUvarint(b, uint64(m.N))
	return appendSamples(b, m.Piggyback)
}

func (m *Heartbeat) decodeBody(b []byte) ([]byte, error) {
	id, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	samples, b, err := decodeSamples(b)
	if err != nil {
		return nil, err
	}
	m.NodeID, m.N, m.Piggyback = int(id), int(n), samples
	return b, nil
}

func (m *Resample) appendBody(b []byte) []byte {
	return appendFloat(binary.AppendUvarint(b, uint64(m.NodeID)), m.Rate)
}

func (m *Resample) decodeBody(b []byte) ([]byte, error) {
	id, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	rate, b, err := readFloat(b)
	if err != nil {
		return nil, err
	}
	if rate < 0 || rate > 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("resample rate %v outside [0, 1]", rate)
	}
	m.NodeID, m.Rate = int(id), rate
	return b, nil
}

func (m *Ack) appendBody(b []byte) []byte {
	return binary.AppendUvarint(b, uint64(m.NodeID))
}

func (m *Ack) decodeBody(b []byte) ([]byte, error) {
	id, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	m.NodeID = int(id)
	return b, nil
}

// traceContextBytes is TraceContext's fixed body width.
const traceContextBytes = 8 + 8 + 1

func (m *TraceContext) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, m.TraceID)
	b = binary.LittleEndian.AppendUint64(b, m.SpanID)
	flags := byte(0)
	if m.Sampled {
		flags = 1
	}
	return append(b, flags)
}

func (m *TraceContext) decodeBody(b []byte) ([]byte, error) {
	if len(b) < traceContextBytes {
		return nil, truncated(b)
	}
	// Unknown flag bits are tolerated (forward compatibility); only bit
	// 0 is defined today.
	m.TraceID = binary.LittleEndian.Uint64(b[0:8])
	m.SpanID = binary.LittleEndian.Uint64(b[8:16])
	m.Sampled = b[16]&1 == 1
	return b[traceContextBytes:], nil
}

// Interface compliance.
var (
	_ Message = (*SampleReport)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*Resample)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*TraceContext)(nil)
)
