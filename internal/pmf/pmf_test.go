package pmf

import (
	"math"
	"testing"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

func win(types ...trace.EventType) window.Window {
	w := window.Window{Start: 0, End: 40 * time.Millisecond}
	for i, t := range types {
		w.Events = append(w.Events, trace.Event{TS: time.Duration(i) * time.Millisecond, Type: t})
	}
	return w
}

func TestNormalizeSumsToOneWithSmoothing(t *testing.T) {
	for _, eps := range []float64{0, 0.1, 0.5, 2} {
		c := Counts{3, 0, 7, 1}
		v := c.Normalize(eps)
		if err := v.Validate(); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		if eps > 0 {
			for i, x := range v {
				if x <= 0 {
					t.Fatalf("eps=%g: component %d not strictly positive: %g", eps, i, x)
				}
			}
		}
	}
}

func TestNormalizeEmptyWindowIsUniform(t *testing.T) {
	v := Counts{0, 0, 0, 0}.Normalize(0)
	for _, x := range v {
		if math.Abs(x-0.25) > 1e-12 {
			t.Fatalf("empty counts normalise to %v, want uniform", v)
		}
	}
}

func TestFromWindowFoldsOverflowTypes(t *testing.T) {
	w := win(0, 1, 9, 200) // types 9 and 200 exceed dim 4
	c := make(Counts, 4)
	FromWindowInto(w, c)
	if c[0] != 1 || c[1] != 1 || c[3] != 2 {
		t.Fatalf("fold-over counts wrong: %v", c)
	}
	if c.Total() != 4 {
		t.Fatalf("total %g, want 4", c.Total())
	}
}

func TestMergeIsConvexCombination(t *testing.T) {
	v := Vector{0.5, 0.5}
	n := Vector{0.9, 0.1}
	v.Merge(n, 0.25)
	want := Vector{0.75*0.5 + 0.25*0.9, 0.75*0.5 + 0.25*0.1}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("merged = %v, want %v", v, want)
		}
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("merge broke distribution: %v", err)
	}
}

func TestMergePanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for lambda 0")
		}
	}()
	v := Vector{1}
	v.Merge(Vector{1}, 0)
}

func TestFeaturizerRateFeature(t *testing.T) {
	f := Featurizer{Dim: 4, Smoothing: 0.5, IncludeRate: true, RateScale: 10}
	if f.FeatureDim() != 5 {
		t.Fatalf("FeatureDim = %d, want 5", f.FeatureDim())
	}
	// 5 events against a scale of 10 → rate 0.5.
	v := f.Features(win(0, 1, 2, 3, 0))
	if math.Abs(v[4]-0.5) > 1e-12 {
		t.Fatalf("rate feature = %g, want 0.5", v[4])
	}
	// 20 events saturate at 1: only rate drops matter.
	types := make([]trace.EventType, 20)
	v = f.Features(win(types...))
	if v[4] != 1 {
		t.Fatalf("saturated rate = %g, want 1", v[4])
	}
	// The pmf prefix remains a distribution.
	if err := f.PMFOnly(v).Validate(); err != nil {
		t.Fatalf("pmf prefix invalid: %v", err)
	}
}

func TestFeaturizerWithoutRateIsPlainPMF(t *testing.T) {
	f := Featurizer{Dim: 4, Smoothing: 0}
	v := f.Features(win(0, 0, 1, 3))
	if len(v) != 4 {
		t.Fatalf("dim %d, want 4", len(v))
	}
	want := Vector{0.5, 0.25, 0, 0.25}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("pmf = %v, want %v", v, want)
		}
	}
}

func TestMeanCount(t *testing.T) {
	ws := []window.Window{win(0, 1), win(0, 1, 2, 3)}
	if m := MeanCount(ws); m != 3 {
		t.Fatalf("MeanCount = %g, want 3", m)
	}
	if m := MeanCount(nil); m != 0 {
		t.Fatalf("MeanCount(nil) = %g, want 0", m)
	}
}

// TestIntoVariantsMatchAllocating: the buffer-reuse forms must reproduce
// the allocating forms (for counts, the hand count) bit-for-bit, even
// into dirty buffers.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	w := win(0, 0, 1, 3, 2, 2, 7)

	c := make(Counts, 4)
	for i := range c {
		c[i] = 99 // dirty
	}
	FromWindowInto(w, c)
	want := Counts{2, 1, 2, 2} // type 7 folds into the last bucket
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("FromWindowInto = %v, want %v", c, want)
		}
	}

	dst := make(Vector, 4)
	for i := range dst {
		dst[i] = -1 // dirty
	}
	c.NormalizeInto(dst, 0.5)
	wantV := c.Normalize(0.5)
	for i := range dst {
		if dst[i] != wantV[i] {
			t.Fatalf("NormalizeInto = %v, want %v", dst, wantV)
		}
	}

	for _, f := range []Featurizer{
		{Dim: 4, Smoothing: 0.5},
		{Dim: 4, Smoothing: 0.5, IncludeRate: true, RateScale: 10},
	} {
		buf := make(Vector, f.FeatureDim())
		cnt := make(Counts, f.Dim)
		got := f.FeaturesInto(buf, cnt, w)
		wantF := f.Features(w)
		for i := range got {
			if got[i] != wantF[i] {
				t.Fatalf("FeaturesInto (rate=%v) = %v, want %v", f.IncludeRate, got, wantF)
			}
		}
	}
}

// TestFeaturesIntoZeroAlloc: the steady-state featurization path of the
// monitor must not allocate.
func TestFeaturesIntoZeroAlloc(t *testing.T) {
	f := Featurizer{Dim: 4, Smoothing: 0.5, IncludeRate: true, RateScale: 10}
	w := win(0, 0, 1, 3, 2)
	buf := make(Vector, f.FeatureDim())
	cnt := make(Counts, f.Dim)
	if allocs := testing.AllocsPerRun(100, func() { f.FeaturesInto(buf, cnt, w) }); allocs != 0 {
		t.Fatalf("FeaturesInto allocates %v/op, want 0", allocs)
	}
}

// TestIntoVariantsRejectBadBuffers: length mismatches must fail loudly.
func TestIntoVariantsRejectBadBuffers(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a bad buffer", name)
			}
		}()
		fn()
	}
	c := Counts{1, 2, 3}
	mustPanic("NormalizeInto", func() { c.NormalizeInto(make(Vector, 2), 0) })
	f := Featurizer{Dim: 3, IncludeRate: true}
	mustPanic("FeaturesInto short dst", func() { f.FeaturesInto(make(Vector, 3), make(Counts, 3), win(0)) })
	mustPanic("FeaturesInto short cnt", func() { f.FeaturesInto(make(Vector, 4), make(Counts, 2), win(0)) })
}
