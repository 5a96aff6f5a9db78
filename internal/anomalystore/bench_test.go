package anomalystore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enduratrace/internal/trace"
)

// BenchmarkStoreAppendParallel measures the synchronous Append — one
// record, returned only when durable — from 1, 2 and 8 concurrent
// appenders on real files. It is bound by the disk's flush, which costs
// about the same for one record or eight, so what it shows is the group
// commit: ns/op falls and records/fsync rises with the appender count.
func BenchmarkStoreAppendParallel(b *testing.B) {
	for _, appenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			inc := testIncident(1)
			// Plain goroutines rather than RunParallel, whose goroutine count
			// is a multiple of GOMAXPROCS and so cannot be 1 on a 2-core box.
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := s.Append(inc); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.SyncedRecords)/float64(st.Syncs), "records/fsync")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

var encodeSink []byte

// BenchmarkAppendIncidentEncode measures building one incident's record
// payload — three context windows, 24 events — into a reused buffer: the
// work done under the store lock on every gate trip. 0 allocs/op.
func BenchmarkAppendIncidentEncode(b *testing.B) {
	inc := testIncident(1)
	inc.Seq = 1
	buf, err := appendIncident(nil, &inc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendIncident(buf[:0], &inc); err != nil {
			b.Fatal(err)
		}
	}
	encodeSink = buf
}

// wideRecord is the record payload of an incident of three 42-event
// windows, the event count of a busy 40 ms window of the simulated
// pipeline.
func wideRecord(tb testing.TB) []byte {
	inc := testIncident(1)
	inc.Seq = 1
	for w := range inc.Windows {
		evs := make([]trace.Event, 42)
		for j := range evs {
			evs[j] = trace.Event{
				TS:   inc.Windows[w].Start + time.Duration(j)*time.Millisecond,
				Type: trace.EventType(j % 17),
				Arg:  uint64(j * 37),
			}
			if j%6 == 0 {
				evs[j].Payload = bytes.Repeat([]byte{byte(j)}, 8)
			}
		}
		inc.Windows[w].Events = evs
	}
	payload, err := appendIncident(nil, &inc)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

var decodeSink *Incident

// BenchmarkDecodeIncident measures decoding one stored record of three
// 42-event windows: the work Open, Walk and replay do per record.
func BenchmarkDecodeIncident(b *testing.B) {
	payload := wideRecord(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := DecodeIncident(payload)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = inc
	}
}
