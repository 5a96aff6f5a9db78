package traceio

import (
	"bytes"
	"io"
	"testing"
	"time"

	"enduratrace/internal/trace"
)

// benchTrace is n events, every fourth carrying a 32-byte payload:
// roughly the mediasim mix.
func benchTrace(n int) []trace.Event {
	evs := make([]trace.Event, n)
	payload := make([]byte, 32)
	ts := time.Duration(0)
	for i := range evs {
		ts += 40 * time.Microsecond
		evs[i] = trace.Event{TS: ts, Type: trace.EventType(i % 25), Arg: uint64(i)}
		if i%4 == 0 {
			evs[i].Payload = payload
		}
	}
	return evs
}

// benchStream encodes benchTrace(n) into one framed stream.
func benchStream(b *testing.B, n int) []byte {
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range benchTrace(n) {
		if err := fw.Write(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchEvents is the length of the benchmark stream.
const benchEvents = 10_000

// reportPerEvent adds the ns/event metric: one op decodes benchEvents.
func reportPerEvent(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}

// BenchmarkFrameReaderReadBatch measures the batched ingest decode path
// over the same stream, draining 512 events per ReadBatch straight into
// the caller's slice.
func BenchmarkFrameReaderReadBatch(b *testing.B) {
	data := benchStream(b, benchEvents)
	dst := make([]trace.Event, 512)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := fr.ReadBatch(dst); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
		fr.Release()
	}
	reportPerEvent(b)
}

// BenchmarkBinaryReaderReadBatch measures the .etrc file reader over the
// same events, 512 per ReadBatch.
func BenchmarkBinaryReaderReadBatch(b *testing.B) {
	data, err := AppendBinary(nil, benchTrace(benchEvents))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]trace.Event, 512)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := br.ReadBatch(dst); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
	reportPerEvent(b)
}
