package alert

import (
	"testing"
	"time"
)

// BenchmarkAlertObserveQuiet is the cost alerting adds to every clear
// window on a healthy stream — the fast path the serve loop pays per
// decision. Must stay allocation-free.
func BenchmarkAlertObserveQuiet(b *testing.B) {
	clk := newFakeClock(selftestEpoch)
	p := NewPipeline(Options{MinTrips: 3, Clock: clk.now})
	defer p.Close()
	s := p.Register("bench-0", "bench")
	obs := Observation{GateDist: 0.2, LOF: 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(obs)
	}
}

// BenchmarkAlertObserveFlapping alternates trip and clear so the state
// machine churns pending/disarm without ever firing — the worst case
// that emits nothing.
func BenchmarkAlertObserveFlapping(b *testing.B) {
	clk := newFakeClock(selftestEpoch)
	p := NewPipeline(Options{MinTrips: 3, Clock: clk.now})
	defer p.Close()
	s := p.Register("bench-0", "bench")
	trip := Observation{Anomalous: true, GateDist: 2.0, LOF: 2.0}
	clear := Observation{GateDist: 0.2, LOF: 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			s.Observe(trip)
		} else {
			s.Observe(clear)
		}
	}
}

// BenchmarkAlertFireResolve measures a full incident round trip —
// transition emission, bucket, enqueue — with a discard sink draining
// concurrently.
func BenchmarkAlertFireResolve(b *testing.B) {
	clk := newFakeClock(selftestEpoch)
	p := NewPipeline(Options{
		MinTrips:   1,
		ClearAfter: time.Second,
		QueueLen:   4096,
		Sinks:      []Sink{&funcSink{name: "discard"}},
		Clock:      clk.now,
	})
	defer p.Close()
	s := p.Register("bench-0", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.advance(time.Second)
		s.Observe(Observation{Anomalous: true, GateDist: float64(i & 1023), LOF: 2, WindowIndex: i})
		clk.advance(time.Second)
		s.Observe(Observation{})
	}
	b.StopTimer()
	p.Drain(30 * time.Second)
}
