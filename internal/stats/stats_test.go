package stats

import (
	"math"
	"testing"
)

// meanStd is the two-pass reference for Running: the arithmetic mean and
// the unbiased sample standard deviation of xs (len(xs) >= 2).
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func TestRunningMatchesDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d", r.N())
	}
	mean, std := meanStd(xs)
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Fatalf("mean %g != %g", r.Mean(), mean)
	}
	if math.Abs(r.Std()-std) > 1e-12 {
		t.Fatalf("std %g != %g", r.Std(), std)
	}
	if r.Min() != 1 || r.Max() != 9 {
		t.Fatalf("min/max = %g/%g", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(7)
	if r.Mean() != 7 || r.Var() != 0 || r.Min() != 7 || r.Max() != 7 {
		t.Fatalf("single sample: %s", r.String())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	if got := Quantile([]float64{5}, 0.9); got != 5 {
		t.Fatalf("singleton quantile = %g", got)
	}
}

func TestInvNormKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.001, -3.090232},
	}
	for _, c := range cases {
		if got := InvNorm(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("InvNorm(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	// Standard two-sided 95% and 99% t-table values.
	cases := []struct {
		df   int
		conf float64
		want float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{3, 0.95, 3.182},
		{4, 0.95, 2.776},
		{9, 0.95, 2.262},
		{10, 0.95, 2.228},
		{29, 0.95, 2.045},
		{100, 0.95, 1.984},
		{4, 0.99, 4.604},
		{10, 0.99, 3.169},
		{1000, 0.95, 1.962},
	}
	for _, c := range cases {
		got := TCritical(c.df, c.conf)
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("TCritical(%d, %g) = %g, want %g", c.df, c.conf, got, c.want)
		}
	}
	// Large df must converge to the normal quantile from above.
	if z := InvNorm(0.975); TCritical(10000, 0.95) < z {
		t.Errorf("TCritical(10000) = %g below z = %g", TCritical(10000, 0.95), z)
	}
}

func TestConfidenceInterval(t *testing.T) {
	// n=5 samples with known mean/std: CI95 half-width = t(4) * s / sqrt(5).
	xs := []float64{2, 4, 4, 4, 6}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	_, std := meanStd(xs)
	want := 2.776 * std / math.Sqrt(5)
	if got := r.ConfidenceInterval(0.95); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("CI95 = %g, want %g", got, want)
	}
	var one Running
	one.Add(3)
	if one.ConfidenceInterval(0.95) != 0 {
		t.Fatal("CI of a single sample must be 0")
	}
}
