// Package stats supplies the small statistical helpers the harness needs:
// streaming moments (Welford), quantiles and Student-t confidence
// intervals (the sweep subsystem's multi-seed error bars).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance in one pass using Welford's
// algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// String summarises the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", r.n, r.Mean(), r.Std(), r.min, r.max)
}

// ConfidenceInterval returns the half-width of the two-sided confidence
// interval for the mean at the given confidence level (e.g. 0.95), using
// the Student-t critical value for n-1 degrees of freedom. It returns 0
// with fewer than two samples, where the interval is undefined.
func (r *Running) ConfidenceInterval(conf float64) float64 {
	if r.n < 2 {
		return 0
	}
	return TCritical(r.n-1, conf) * r.Std() / math.Sqrt(float64(r.n))
}

// InvNorm returns the standard normal quantile Φ⁻¹(p) for p in (0,1) using
// Acklam's rational approximation (relative error below 1.2e-9).
func InvNorm(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: InvNorm p=%g outside (0,1)", p))
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}

// TCritical returns the two-sided Student-t critical value t* such that
// P(|T_df| <= t*) = conf. Degrees of freedom 1 and 2 use the closed-form
// quantiles (Cauchy and the df=2 formula); larger df use the
// Cornish–Fisher-style expansion of the t quantile around the normal
// quantile (Abramowitz & Stegun 26.7.5), accurate to ~0.3% at df=3 and
// rapidly better with increasing df.
func TCritical(df int, conf float64) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: TCritical df=%d must be positive", df))
	}
	if conf <= 0 || conf >= 1 {
		panic(fmt.Sprintf("stats: TCritical conf=%g outside (0,1)", conf))
	}
	p := 0.5 + conf/2 // upper quantile point of the two-sided interval
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		u := 2*p - 1
		return u * math.Sqrt(2/(1-u*u))
	}
	z := InvNorm(p)
	z2 := z * z
	d := float64(df)
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/d + g2/(d*d) + g3/(d*d*d) + g4/(d*d*d*d)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g outside [0,1]", q))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
