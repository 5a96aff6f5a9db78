// Package pmf implements the probability-mass-function window abstraction
// of §II: each trace window is summarised as a vector giving, for each
// event type, the occurrence frequency of that type in the window. These
// vectors are the points LOF operates on and the operands of the
// Kullback–Leibler gate.
package pmf

import (
	"fmt"
	"math"

	"enduratrace/internal/window"
)

// Vector is a discrete distribution over event types: Vector[i] is the
// probability of event type i. A valid Vector is non-negative and sums to 1
// (within floating-point tolerance); the zero-length Vector is invalid.
type Vector []float64

// Counts is a raw per-type occurrence count for one window, before
// normalisation. Keeping counts separate lets the monitor also use the
// total event rate, which pure pmfs normalise away.
type Counts []float64

// FromWindowInto zeroes dst and accumulates w's per-type counts into it.
// Event types >= len(dst) are folded into the last bucket so that an
// unregistered type cannot index out of range (this mirrors real trace
// decoders, which map unknown records to an "other" channel). The
// monitor's steady state calls this once per window, so it must not
// allocate.
func FromWindowInto(w window.Window, dst Counts) {
	dim := len(dst)
	for i := range dst {
		dst[i] = 0
	}
	for _, ev := range w.Events {
		i := int(ev.Type)
		if i >= dim {
			i = dim - 1
		}
		dst[i]++
	}
}

// Total returns the sum of counts (the window's event count).
func (c Counts) Total() float64 {
	var s float64
	for _, v := range c {
		s += v
	}
	return s
}

// Normalize converts counts to a pmf using additive (Laplace) smoothing with
// parameter eps >= 0. Smoothing keeps every component strictly positive so
// that Kullback–Leibler divergence is finite; eps = 0 gives the plain
// maximum-likelihood pmf (components may be zero). An all-zero count vector
// normalises to the uniform distribution: an empty window carries no type
// information.
func (c Counts) Normalize(eps float64) Vector {
	v := make(Vector, len(c))
	c.NormalizeInto(v, eps)
	return v
}

// NormalizeInto is the buffer-reuse form of Normalize: it writes the
// smoothed pmf of c into dst, which must have the same length as c.
func (c Counts) NormalizeInto(dst Vector, eps float64) {
	n := len(c)
	if len(dst) != n {
		panic(fmt.Sprintf("pmf: NormalizeInto dst length %d != counts length %d", len(dst), n))
	}
	total := c.Total() + eps*float64(n)
	if total == 0 {
		u := 1.0 / float64(n)
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i, x := range c {
		dst[i] = (x + eps) / total
	}
}

// Validate returns an error unless v is a proper distribution.
func (v Vector) Validate() error {
	if len(v) == 0 {
		return fmt.Errorf("pmf: empty vector")
	}
	var s float64
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("pmf: component %d is %v", i, x)
		}
		if x < 0 {
			return fmt.Errorf("pmf: negative component %d = %g", i, x)
		}
		s += x
	}
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("pmf: components sum to %g, want 1", s)
	}
	return nil
}

// Merge updates v in place as an exponentially-weighted average with n:
//
//	v = (1-lambda)*v + lambda*n
//
// This is the paper's Ppmf update: when the new window is similar to the
// past, it is merged into the past pmf so the model tracks slow behaviour
// drift (§II, "Online anomaly detection"). lambda must be in (0, 1].
func (v Vector) Merge(n Vector, lambda float64) {
	if len(v) != len(n) {
		panic(fmt.Sprintf("pmf: merging vectors of different dimension %d != %d", len(v), len(n)))
	}
	if lambda <= 0 || lambda > 1 {
		panic(fmt.Sprintf("pmf: merge weight %g outside (0,1]", lambda))
	}
	for i := range v {
		v[i] = (1-lambda)*v[i] + lambda*n[i]
	}
}

// Uniform returns the uniform distribution of dimension dim.
func Uniform(dim int) Vector {
	v := make(Vector, dim)
	u := 1.0 / float64(dim)
	for i := range v {
		v[i] = u
	}
	return v
}

// Featurizer converts windows into the feature vectors consumed by the
// detector. The paper uses the plain pmf; IncludeRate optionally appends a
// normalised event-rate component so that pure rate collapses (a stalled
// decoder emitting the same mix, only slower) remain visible. RateScale is
// the event count mapped to rate feature 1.0 (typically the reference
// windows' mean count).
type Featurizer struct {
	Dim         int     // number of event types (vector dimensionality)
	Smoothing   float64 // additive smoothing epsilon
	IncludeRate bool    // append event-rate feature
	RateScale   float64 // count mapped to 1.0 when IncludeRate
}

// FeatureDim reports the dimensionality of produced feature vectors.
func (f Featurizer) FeatureDim() int {
	if f.IncludeRate {
		return f.Dim + 1
	}
	return f.Dim
}

// Features converts one window into a feature vector.
//
// Note: with IncludeRate the result is no longer a distribution (it does not
// sum to 1); it remains a valid LOF point but must not be fed to KL-style
// divergences. The monitor keeps the KL gate on the pmf prefix.
func (f Featurizer) Features(w window.Window) Vector {
	return f.FeaturesInto(make(Vector, f.FeatureDim()), make(Counts, f.Dim), w)
}

// FeaturesInto is the buffer-reuse form of Features: dst (length
// FeatureDim) receives the feature vector, cnt (length Dim) is the count
// scratch. Both are overwritten; dst is returned. Steady-state window
// featurization reuses the same two buffers and allocates nothing.
func (f Featurizer) FeaturesInto(dst Vector, cnt Counts, w window.Window) Vector {
	if len(dst) != f.FeatureDim() || len(cnt) != f.Dim {
		panic(fmt.Sprintf("pmf: FeaturesInto buffers %d/%d, want %d/%d",
			len(dst), len(cnt), f.FeatureDim(), f.Dim))
	}
	FromWindowInto(w, cnt)
	cnt.NormalizeInto(dst[:f.Dim], f.Smoothing)
	if !f.IncludeRate {
		return dst
	}
	scale := f.RateScale
	if scale <= 0 {
		scale = 1
	}
	r := cnt.Total() / scale
	if r > 1 {
		r = 1 // saturate: only rate *drops* matter for stalls
	}
	dst[f.Dim] = r
	return dst
}

// PMFOnly returns the pmf prefix of a feature vector produced by Features.
func (f Featurizer) PMFOnly(v Vector) Vector {
	return v[:f.Dim]
}

// MeanCount returns the mean event count per window over ws; it is the
// recommended RateScale for a reference trace.
func MeanCount(ws []window.Window) float64 {
	if len(ws) == 0 {
		return 0
	}
	var s float64
	for _, w := range ws {
		s += float64(len(w.Events))
	}
	return s / float64(len(ws))
}
