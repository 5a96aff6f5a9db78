package obs

import (
	"sync"
	"testing"
)

// benchEvents is the work of one benchmark op: `make microbench` runs a
// fixed 20 ops, so an op has to be long enough to time. ns/op divided by
// benchEvents (reported as ns/event) is the instrument's cost per event.
const benchEvents = 1 << 20

// benchDurations cycles through every octave the serve path produces (a
// few hundred ns of decode share up to tens of ms of queue wait), so the
// bucket lookup is not measured on one perfectly predicted branch.
var benchDurations = func() [64]int64 {
	var d [64]int64
	ns := int64(300)
	for i := range d {
		d[i] = ns
		ns += ns/3 + 1
	}
	return d
}()

func reportPerEvent(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEvents, "ns/event")
}

// BenchmarkHistogramObserve observes every event on its own: one bucket
// lookup and two atomic adds each, uncontended.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < benchEvents; i++ {
			h.ObserveNs(benchDurations[i&63])
		}
	}
	reportPerEvent(b)
}

// BenchmarkHistogramObserveN observes the same events in runs of 256 —
// what the serve path pays per decoded batch.
func BenchmarkHistogramObserveN(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < benchEvents/256; i++ {
			h.ObserveN(benchDurations[i&63], 256)
		}
	}
	reportPerEvent(b)
}

// BenchmarkHistogramObserveContended splits the events over two goroutines
// observing into one Pipeline's Decode, QueueWait and E2E histograms, as
// the goroutines of two streams sharing a model do: the atomics' cache
// lines bounce between cores.
func BenchmarkHistogramObserveContended(b *testing.B) {
	var p Pipeline
	b.ReportAllocs()
	for b.Loop() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < benchEvents/2; i++ {
					ns := benchDurations[i&63]
					p.Decode.ObserveNs(ns)
					p.QueueWait.ObserveNs(ns)
					p.E2E.ObserveNs(ns)
				}
			}()
		}
		wg.Wait()
	}
	reportPerEvent(b)
}
