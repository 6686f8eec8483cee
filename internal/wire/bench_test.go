package wire

import (
	"testing"

	"privrange/internal/sampling"
)

// benchReport builds an n-sample report whose ranks step by gap, so
// gap < 128 gives one-byte rank deltas and 128 ≤ gap < 16384 two-byte
// ones.
func benchReport(n, gap int) *SampleReport {
	report := &SampleReport{NodeID: 3, N: n * gap}
	for i := 0; i < n; i++ {
		report.Samples = append(report.Samples, sampling.Sample{
			Value: float64(i % 256),
			Rank:  i*gap + 1,
		})
	}
	return report
}

// BenchmarkEncodeReport measures serializing a 1 000-sample report — the
// dominant message on the wire — into one reused buffer, as the
// network's transmit does.
func BenchmarkEncodeReport(b *testing.B) {
	report := benchReport(1000, 7)
	var buf []byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Append(buf[:0], report); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeReport measures the matching parse, with the one-byte
// rank deltas of a dense sample (the decoder's fast path) and with
// two-byte deltas (the varint path).
func BenchmarkDecodeReport(b *testing.B) {
	for _, bc := range []struct {
		name string
		gap  int
	}{
		{"delta=1B", 7},
		{"delta=2B", 300},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data, err := Encode(benchReport(1000, bc.gap))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
