// Package obs is the serving layer's latency-and-introspection toolkit:
// fixed-bucket log-scaled latency histograms cheap enough to live on the
// event hot path, a sampled per-event flight recorder, a monotonic clock
// helper shared by both, the float type the admin JSON bodies render
// non-finite values with, and the one window verdict they all report.
//
// The histogram is the load-bearing piece. Requirements, in order:
//
//   - Observe must be safe from any goroutine with no lock (the ingest and
//     scoring goroutines of every stream write concurrently);
//   - Observe must allocate nothing (it runs on a path that is otherwise
//     allocation-free);
//   - a run of equal durations must cost what one does (ObserveN): the
//     events of one decoded batch share a decode share, an arrival time
//     and a pop time, so the serve path observes runs, not events;
//   - snapshots must be mergeable and expressible as a Prometheus
//     `histogram` family (cumulative buckets, _sum, _count).
//
// The design is the standard one: a fixed array of atomic bins over
// log-spaced bucket bounds. Bounds run from 1µs upward with four buckets
// per octave (each bound 2^(1/4) ≈ 1.19× the previous), 96 bounds total,
// covering 1µs to ~16.8s at ~19% relative resolution; everything above the
// last bound lands in an explicit overflow (+Inf) bin, so tail latencies
// are never invisible. _count is derived from the bins (never tracked
// separately), which makes `+Inf bucket == _count` hold by construction
// even while writers race the snapshot.
package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// bucketsPerOctave is the log2 subdivision: 4 → bounds grow by
	// 2^(1/4) ≈ 1.19×, i.e. ~19% relative latency resolution.
	bucketsPerOctave = 4
	// NumBounds is the number of finite bucket bounds; one overflow bin
	// sits beyond the last bound.
	NumBounds = 96
	// loNs is the first bucket bound in nanoseconds (1µs): sub-microsecond
	// latencies are below anything the pipeline can act on.
	loNs = 1000
)

// boundsS holds the finite bucket upper bounds in seconds:
// boundsS[i] = 1µs · 2^((i+1)/4).
var boundsS [NumBounds]float64

// boundsNs holds the same bounds as whole nanoseconds, rounded down: for an
// integer ns, ns <= 1µs·2^((i+1)/4) exactly when ns <= boundsNs[i].
var boundsNs [NumBounds]int64

// octaveStart[bits.Len64(ns)] is the bin of the smallest ns with that bit
// length. Four bounds span a factor of two, so the bin of any ns with the
// same bit length lies at most four bins further on.
var octaveStart [65]uint8

func init() {
	for i := range boundsS {
		p := math.Pow(2, float64(i+1)/bucketsPerOctave)
		boundsS[i] = (loNs / 1e9) * p
		boundsNs[i] = int64(math.Floor(loNs * p))
	}
	i := 0
	for l := 1; l < len(octaveStart); l++ {
		for i < NumBounds && boundsNs[i] < int64(1)<<(l-1) {
			i++
		}
		octaveStart[l] = uint8(i)
	}
}

// Bounds returns the finite bucket upper bounds in seconds, ascending.
// The returned slice is shared; do not modify.
func Bounds() []float64 { return boundsS[:] }

// bucketIdx maps a duration in nanoseconds to its bin: the smallest i with
// ns <= bound[i], or NumBounds (the overflow bin) beyond the last bound.
// Integer only: the bit length picks the octave, then at most four
// compares against boundsNs find the bin.
func bucketIdx(ns int64) int {
	if ns <= loNs {
		return 0
	}
	if ns > boundsNs[NumBounds-1] {
		return NumBounds
	}
	i := int(octaveStart[bits.Len64(uint64(ns))])
	for ns > boundsNs[i] {
		i++
	}
	return i
}

// Histogram is a lock-free fixed-bucket log-scaled latency histogram. The
// zero value is ready to use. Observe is safe from any number of
// goroutines concurrently with Snapshot and allocates nothing.
type Histogram struct {
	bins  [NumBounds + 1]atomic.Uint64 // bins[NumBounds] is the overflow (+Inf) bin
	sumNs atomic.Int64
}

// Observe records one duration.
//
//enduratrace:zeroalloc
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(int64(d), 1) }

// ObserveNs records one duration given in nanoseconds.
//
//enduratrace:zeroalloc
func (h *Histogram) ObserveNs(ns int64) { h.ObserveN(ns, 1) }

// ObserveN records n equal durations of ns nanoseconds each, at the cost
// of one: one bucket lookup and two atomic adds. Non-positive durations
// (clock went backwards between the two reads) count as 1ns so the
// observations are never lost; n <= 0 records nothing.
//
//enduratrace:zeroalloc
func (h *Histogram) ObserveN(ns int64, n int) {
	if n <= 0 {
		return
	}
	if ns < 1 {
		ns = 1
	}
	h.sumNs.Add(ns * int64(n))
	h.bins[bucketIdx(ns)].Add(uint64(n))
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// Observes may straddle the copy — an observation can appear in the sum
// but not yet in a bin, or vice versa — but every bin is internally exact
// and Count is always the sum of the bins.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Counts: make([]uint64, NumBounds+1)}
	for i := range h.bins {
		s.Counts[i] = h.bins[i].Load()
	}
	s.SumNs = h.sumNs.Load()
	return s
}

// Snapshot is one observation of a Histogram: per-bucket (non-cumulative)
// counts — Counts[NumBounds] is the overflow bin — plus the duration sum.
type Snapshot struct {
	Counts []uint64
	SumNs  int64
}

// Count returns the total number of observations (including overflow).
func (s Snapshot) Count() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// SumSeconds returns the sum of all observed durations in seconds.
func (s Snapshot) SumSeconds() float64 { return float64(s.SumNs) / 1e9 }

// Merge folds another snapshot into this one (for cross-model or
// cross-shard aggregation). Merging an empty snapshot is a no-op.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, NumBounds+1)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.SumNs += o.SumNs
}

// Quantile estimates the q-quantile (0 <= q <= 1) in seconds by linear
// interpolation inside the bucket holding the target rank. Observations in
// the overflow bin are attributed to the last finite bound (the estimate
// is a lower bound there). Returns 0 for an empty snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= NumBounds {
				return boundsS[NumBounds-1]
			}
			lo := 0.0
			if i > 0 {
				lo = boundsS[i-1]
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			return lo + (boundsS[i]-lo)*frac
		}
		cum = next
	}
	return boundsS[NumBounds-1]
}

// Pipeline bundles the four per-stage histograms of the serve path for one
// model: socket ingest (frame read + decode), queue wait, window scoring
// (ProcessWindow), and end-to-end event→decision latency.
type Pipeline struct {
	Decode    Histogram
	QueueWait Histogram
	Score     Histogram
	E2E       Histogram
}

// PipelineSnapshot is a point-in-time copy of all four stage histograms.
type PipelineSnapshot struct {
	Decode, QueueWait, Score, E2E Snapshot
}

// Snapshot copies all four stages at once.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	return PipelineSnapshot{
		Decode:    p.Decode.Snapshot(),
		QueueWait: p.QueueWait.Snapshot(),
		Score:     p.Score.Snapshot(),
		E2E:       p.E2E.Snapshot(),
	}
}

// epoch anchors the package's monotonic clock; all Now values are
// comparable within one process.
//
//lint:ignore monotime the epoch is the one wall-clock read obs.Now itself is built on
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start: the timestamp
// currency of the pipeline instrumentation. Subtraction of two Now values
// is immune to wall-clock steps, and the int64 form keeps the per-event
// metadata flat (no time.Time in the queue ring).
func Now() int64 { return int64(time.Since(epoch)) }

// JSONFloat marshals like float64 but renders NaN and ±Inf as null: JSON
// has neither, and one such value must not turn a whole admin body or
// alert payload into a marshal error.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}
