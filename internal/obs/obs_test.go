package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketIdx pins the bucket mapping: every observation must land in
// the smallest bucket whose bound is >= the value, out-of-range values in
// the clamp bins, so no latency is ever invisible.
func TestBucketIdx(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want int
	}{
		{0, 0},               // clock glitch → first bin
		{1, 0},               // 1ns → first bin
		{1000, 0},            // exactly 1µs = bound[0]
		{1200, 1},            // above bound[0] (1.19µs), under bound[1] (1.41µs)
		{2000, 4},            // 2µs = bound[3]·2^(1/4)... exactly one octave up: bound[3]=2µs
		{1 << 62, NumBounds}, // far beyond the last bound → overflow bin
	} {
		got := bucketIdx(tc.ns)
		if tc.ns == 2000 {
			// 2µs is exactly bound[3] = 1µs·2^(4/4); allow for the float
			// log landing on either side of the exact power.
			if got != 3 && got != 4 {
				t.Errorf("bucketIdx(%d) = %d, want 3 or 4", tc.ns, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}

	// Invariant over a sweep: the chosen bucket's bound covers the value
	// and the previous bound does not (modulo float slack at exact powers).
	for ns := int64(1); ns < int64(40*time.Second); ns = ns*3/2 + 1 {
		i := bucketIdx(ns)
		v := float64(ns) / 1e9
		if i < NumBounds && v > boundsS[i]*(1+1e-9) {
			t.Fatalf("ns=%d: bucket %d bound %g does not cover value", ns, i, boundsS[i])
		}
		if i > 0 && i <= NumBounds && v < boundsS[i-1]*(1-1e-9) {
			t.Fatalf("ns=%d: previous bound %g already covers value, bucket %d too high", ns, boundsS[i-1], i)
		}
	}
}

// refBucketIdx is the float formula bucketIdx replaced, kept as the
// reference the integer lookup must agree with for every ns.
func refBucketIdx(ns int64) int {
	if ns <= loNs {
		return 0
	}
	i := int(math.Ceil(math.Log2(float64(ns)/loNs)*bucketsPerOctave)) - 1
	if i >= NumBounds {
		return NumBounds
	}
	return i
}

// TestBucketIdxMatchesReference: the integer lookup returns the float
// formula's bin on every small duration, on both sides of every bound, on
// a geometric sweep past the last bound, and on non-positive input.
func TestBucketIdxMatchesReference(t *testing.T) {
	check := func(ns int64) {
		t.Helper()
		if got, want := bucketIdx(ns), refBucketIdx(ns); got != want {
			t.Fatalf("bucketIdx(%d) = %d, reference %d", ns, got, want)
		}
	}
	for ns := int64(-3); ns <= 5_000_000; ns++ {
		check(ns)
	}
	for i := 0; i < NumBounds; i++ {
		b := int64(math.Round(boundsS[i] * 1e9))
		for d := int64(-3); d <= 3; d++ {
			check(b + d)
		}
	}
	for ns := int64(1); ns < 1<<40; ns += ns/64 + 1 {
		check(ns)
	}
	for _, ns := range []int64{math.MinInt64, -1, 0, 1 << 40, 1 << 62, math.MaxInt64} {
		check(ns)
	}
}

func TestBoundsAscending(t *testing.T) {
	bs := Bounds()
	if len(bs) != NumBounds {
		t.Fatalf("len(Bounds()) = %d, want %d", len(bs), NumBounds)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, bs[i], bs[i-1])
		}
	}
	if bs[0] != 0.001/1e6*math.Pow(2, 0.25) {
		// First bound is 1µs·2^(1/4) ≈ 1.19µs.
		want := 1e-6 * math.Pow(2, 0.25)
		if math.Abs(bs[0]-want) > 1e-15 {
			t.Fatalf("bounds[0] = %g, want %g", bs[0], want)
		}
	}
}

func TestHistogramCountSumQuantile(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1ms..100ms.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*99*time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count())
	}
	p50 := s.Quantile(0.5)
	if p50 < 0.035 || p50 > 0.075 {
		t.Fatalf("p50 = %g, want ~0.05 (±bucket resolution)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 0.08 || p99 > 0.13 {
		t.Fatalf("p99 = %g, want ~0.1", p99)
	}
	if got, want := s.SumSeconds(), 1000*0.001+99e-6*999*1000/2; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("SumSeconds = %g, want %g", got, want)
	}
}

func TestHistogramOverflowVisible(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Second) // beyond the last bound (~16.8s)
	s := h.Snapshot()
	if s.Counts[NumBounds] != 1 {
		t.Fatalf("overflow bin = %d, want 1", s.Counts[NumBounds])
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (overflow must be counted)", s.Count())
	}
}

// TestObserveNEqualsNObserves: a run of n equal durations leaves every bin
// and the sum exactly where n single observations would, and a
// non-positive n records nothing.
func TestObserveNEqualsNObserves(t *testing.T) {
	var run, single Histogram
	for _, tc := range []struct {
		ns int64
		n  int
	}{
		{-5, 3}, {0, 1}, {1, 7}, {999, 2}, {1000, 1}, {1190, 256}, {137_000, 512},
		{int64(3 * time.Second), 4}, {int64(100 * time.Second), 2},
		{5000, 0}, {5000, -4},
	} {
		run.ObserveN(tc.ns, tc.n)
		for i := 0; i < tc.n; i++ {
			single.ObserveNs(tc.ns)
		}
	}
	a, b := run.Snapshot(), single.Snapshot()
	if a.SumNs != b.SumNs {
		t.Fatalf("SumNs: runs %d, singles %d", a.SumNs, b.SumNs)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("bin %d: runs %d, singles %d", i, a.Counts[i], b.Counts[i])
		}
	}
	if got, want := a.Count(), uint64(3+1+7+2+1+256+512+4+2); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	a.Observe(2 * time.Millisecond)
	b.Observe(time.Second)
	sa, sb := a.Snapshot(), b.Snapshot()
	var m Snapshot
	m.Merge(sa)
	m.Merge(sb)
	if m.Count() != 3 {
		t.Fatalf("merged Count = %d, want 3", m.Count())
	}
	if m.SumNs != sa.SumNs+sb.SumNs {
		t.Fatalf("merged SumNs = %d, want %d", m.SumNs, sa.SumNs+sb.SumNs)
	}
}

// TestHistogramConcurrentObserveSnapshot is the race gate: many writers
// hammering ObserveNs and ObserveN while readers take snapshots must be
// race-clean (run under -race) and lose no observations, and in every
// snapshot the cumulative +Inf bucket is the count.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perW    = 10000 // observations per writer; odd writers record them in runs of runLen
		runLen  = 16
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two concurrent snapshot readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if c := s.Count(); c > writers*perW {
					t.Errorf("snapshot Count %d exceeds writes", c)
					return
				}
				var cum uint64 // what the scrape writes as le="+Inf"
				for _, c := range s.Counts {
					cum += c
				}
				if cum != s.Count() {
					t.Errorf("+Inf bucket %d != _count %d", cum, s.Count())
					return
				}
				_ = s.Quantile(0.99)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 1 {
				for i := 0; i < perW; i += runLen {
					h.ObserveN(int64(w*1000+i+1), runLen)
				}
				return
			}
			for i := 0; i < perW; i++ {
				h.ObserveNs(int64(w*1000 + i + 1))
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s := h.Snapshot()
		if s.Count() == writers*perW {
			break
		}
		select {
		case <-done:
		case <-time.After(time.Millisecond):
		}
		if s := h.Snapshot(); s.Count() == writers*perW {
			break
		}
	}
	close(stop)
	<-done
	if c := h.Snapshot().Count(); c != writers*perW {
		t.Fatalf("final Count = %d, want %d", c, writers*perW)
	}
}

// TestObserveZeroAlloc is half of the satellite allocation gate: recording
// a latency sample must not allocate (the other half lives in core and
// serve, over the real ProcessWindow and queue paths).
func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(137 * time.Microsecond)
		h.ObserveN(137_000, 256)
	}); allocs != 0 {
		t.Fatalf("Observe + ObserveN allocate %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = Now()
	}); allocs != 0 {
		t.Fatalf("Now allocates %v times per call, want 0", allocs)
	}
}

func TestFlightRing(t *testing.T) {
	f := NewFlight(4, 3)
	if f.EveryN() != 4 {
		t.Fatalf("EveryN = %d", f.EveryN())
	}
	for i := 1; i <= 5; i++ {
		f.Add(Record{Seq: uint64(i)})
	}
	recs := f.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Oldest first after wrap: 3, 4, 5.
	for i, want := range []uint64{3, 4, 5} {
		if recs[i].Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, recs[i].Seq, want)
		}
	}
	st := f.Stats()
	if st.Sampled != 5 || st.Capacity != 3 || st.Every != 4 {
		t.Fatalf("stats = %+v", st)
	}
	f.NoteSkipped()
	if f.Stats().Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", f.Stats().Skipped)
	}
}

func TestQuantileEmptyAndClamp(t *testing.T) {
	var s Snapshot
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	var h Histogram
	h.Observe(time.Millisecond)
	snap := h.Snapshot()
	if q := snap.Quantile(-1); q < 0 {
		t.Fatalf("clamped quantile negative: %g", q)
	}
	if q := snap.Quantile(2); q <= 0 {
		t.Fatalf("clamped quantile = %g", q)
	}
}
