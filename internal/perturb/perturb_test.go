package perturb

import (
	"math"
	"testing"
	"time"
)

func TestNoneIsIdentity(t *testing.T) {
	var l None
	if l.FactorAt(time.Second) != 1 {
		t.Fatal("None has a factor != 1")
	}
	if l.NextChange(0) != Horizon {
		t.Fatal("None changes")
	}
}

func TestIntervalsFactorAndNextChange(t *testing.T) {
	l, err := NewIntervals(3, []Interval{
		{10 * time.Second, 20 * time.Second},
		{40 * time.Second, 50 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at     time.Duration
		factor float64
		next   time.Duration
	}{
		{0, 1, 10 * time.Second},
		{10 * time.Second, 3, 20 * time.Second},
		{15 * time.Second, 3, 20 * time.Second},
		{20 * time.Second, 1, 40 * time.Second}, // End is exclusive
		{45 * time.Second, 3, 50 * time.Second},
		{50 * time.Second, 1, Horizon},
	}
	for _, c := range cases {
		if f := l.FactorAt(c.at); f != c.factor {
			t.Fatalf("FactorAt(%v) = %g, want %g", c.at, f, c.factor)
		}
		if n := l.NextChange(c.at); n != c.next {
			t.Fatalf("NextChange(%v) = %v, want %v", c.at, n, c.next)
		}
	}
}

func TestNewIntervalsRejectsBadSpans(t *testing.T) {
	for _, f := range []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewIntervals(f, nil); err == nil {
			t.Fatalf("factor %g accepted", f)
		}
	}
	if _, err := NewIntervals(2, []Interval{{10, 5}}); err == nil {
		t.Fatal("inverted span accepted")
	}
	if _, err := NewIntervals(2, []Interval{{0, 10}, {5, 15}}); err == nil {
		t.Fatal("overlapping spans accepted")
	}
}

func TestPeriodicSchedule(t *testing.T) {
	l, err := Periodic(2, 60*time.Second, 180*time.Second, 20*time.Second, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Starts at 60, 240, 420 — 600 is past the horizon.
	if len(l.Spans) != 3 {
		t.Fatalf("got %d spans: %v", len(l.Spans), l.Spans)
	}
	for i, want := range []time.Duration{60 * time.Second, 240 * time.Second, 420 * time.Second} {
		if l.Spans[i].Start != want || l.Spans[i].Duration() != 20*time.Second {
			t.Fatalf("span %d = %v", i, l.Spans[i])
		}
	}
	if _, err := Periodic(2, 0, 0, 10, 100); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := Periodic(2, 0, 10, 20, 100); err == nil {
		t.Fatal("duration >= period accepted")
	}
}

func TestPaperSchedule(t *testing.T) {
	l, err := Paper(4, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Spans) == 0 {
		t.Fatal("no spans")
	}
	if l.Spans[0].Start != 480*time.Second {
		t.Fatalf("first perturbation at %v, want 480s (300s reference + 180s)", l.Spans[0].Start)
	}
	for i := 1; i < len(l.Spans); i++ {
		if l.Spans[i].Start-l.Spans[i-1].Start != 180*time.Second {
			t.Fatalf("period %v, want 180s", l.Spans[i].Start-l.Spans[i-1].Start)
		}
	}
}

func TestWorkFinishHandComputed(t *testing.T) {
	l, err := NewIntervals(2, []Interval{{10 * time.Second, 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// Start at 5 s with 10 s of CPU demand: 5 s run at factor 1 until the
	// span opens, the remaining 5 s take 10 s at factor 2 → finish at 20 s.
	if got := WorkFinish(l, 5*time.Second, 10*time.Second); got != 20*time.Second {
		t.Fatalf("WorkFinish = %v, want 20s", got)
	}
	// Entirely outside any span: factor 1.
	if got := WorkFinish(l, 30*time.Second, 2*time.Second); got != 32*time.Second {
		t.Fatalf("WorkFinish = %v, want 32s", got)
	}
	// Work spanning the end of a perturbation: 2 s of demand starting at
	// 19 s runs 1 wall-second at factor 2 (0.5 s of work done), then the
	// remaining 1.5 s at factor 1 → finish at 21.5 s.
	if got := WorkFinish(l, 19*time.Second, 2*time.Second); got != 21500*time.Millisecond {
		t.Fatalf("WorkFinish = %v, want 21.5s", got)
	}
}
