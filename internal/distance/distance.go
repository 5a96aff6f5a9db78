// Package distance provides the dissimilarity measures used by the monitor.
//
// The paper compares pmf vectors with the Kullback–Leibler distance (§II,
// citing Kullback & Leibler 1951) for the cheap change gate, and feeds pmfs
// to LOF, which only requires a dissimilarity. KL is neither symmetric nor
// a metric, so this package also supplies symmetrised and metric
// alternatives (Jensen–Shannon, Hellinger, L1, L2, χ²), all of which back
// the distance ablation bench (experiment A-distance in DESIGN.md). Each
// distance has one exact implementation, its Func; rows.go derives the
// one-query-against-many-rows form from it.
package distance

import (
	"fmt"
	"math"
)

// Func computes the dissimilarity between two equal-length vectors.
// Implementations must be non-negative and zero for identical inputs.
type Func func(p, q []float64) float64

// Distance couples a Func with its catalogue name.
type Distance struct {
	Name string
	F    Func
}

// eps guards logarithms and divisions against zero components when callers
// pass unsmoothed pmfs. Smoothed pmfs (pmf.Counts.Normalize with eps > 0)
// never hit this floor.
const eps = 1e-12

// KL returns the Kullback–Leibler divergence D(p‖q) in nats. It is the
// paper's choice for comparing the new-window pmf against the past pmf.
func KL(p, q []float64) float64 {
	assertSameLen(p, q)
	var d float64
	for i := range p {
		pi := p[i]
		if pi <= 0 {
			continue
		}
		qi := q[i]
		if qi < eps {
			qi = eps
		}
		d += pi * math.Log(pi/qi)
	}
	if d < 0 { // numerical noise for near-identical inputs
		d = 0
	}
	return d
}

// SymmetricKL returns D(p‖q) + D(q‖p), the symmetrised ("Jeffreys")
// Kullback–Leibler distance. This is the usual reading of the paper's
// "Kullback-Leibler distance".
//
// It is KL(p, q) + KL(q, p) bit for bit: one pass over the components
// carries both sums, each in index order with KL's guards and floors, and
// takes a component's two logs side by side (logPair).
func SymmetricKL(p, q []float64) float64 {
	assertSameLen(p, q)
	var fwd, rev float64
	for i := range p {
		pi, qi := p[i], q[i]
		pd, qd := pi, qi // the denominators, floored as KL floors them
		if pd < eps {
			pd = eps
		}
		if qd < eps {
			qd = eps
		}
		lf, lr := logPair(pi/qd, qi/pd)
		if !(pi <= 0) {
			fwd += pi * lf
		}
		if !(qi <= 0) {
			rev += qi * lr
		}
	}
	if fwd < 0 {
		fwd = 0
	}
	if rev < 0 {
		rev = 0
	}
	return fwd + rev
}

// JensenShannon returns the Jensen–Shannon divergence, the
// entropy-smoothed, bounded (by ln 2) symmetrisation of KL.
func JensenShannon(p, q []float64) float64 {
	assertSameLen(p, q)
	var d float64
	for i := range p {
		pi, qi := p[i], q[i]
		mi := 0.5 * (pi + qi)
		if pi > 0 && mi > 0 {
			d += 0.5 * pi * math.Log(pi/mi)
		}
		if qi > 0 && mi > 0 {
			d += 0.5 * qi * math.Log(qi/mi)
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// JensenShannonDist returns sqrt(JSD), which is a true metric.
func JensenShannonDist(p, q []float64) float64 {
	return math.Sqrt(JensenShannon(p, q))
}

// Hellinger returns the Hellinger distance, a metric on distributions
// bounded by 1.
func Hellinger(p, q []float64) float64 {
	assertSameLen(p, q)
	var s float64
	for i := range p {
		d := math.Sqrt(p[i]) - math.Sqrt(q[i])
		s += d * d
	}
	return math.Sqrt(0.5 * s)
}

// L1 returns the Manhattan distance (twice the total-variation distance for
// distributions).
func L1(p, q []float64) float64 {
	assertSameLen(p, q)
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s
}

// L2 returns the Euclidean distance.
func L2(p, q []float64) float64 {
	assertSameLen(p, q)
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ChiSquare returns the (symmetrised) χ² distance
// Σ (p_i - q_i)² / (p_i + q_i).
func ChiSquare(p, q []float64) float64 {
	assertSameLen(p, q)
	var s float64
	for i := range p {
		sum := p[i] + q[i]
		if sum <= 0 {
			continue
		}
		d := p[i] - q[i]
		s += d * d / sum
	}
	return s
}

func assertSameLen(p, q []float64) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("distance: dimension mismatch %d != %d", len(p), len(q)))
	}
}

// Catalog of named distances, used by command-line flags and ablations.
var catalog = map[string]Distance{
	"kl":        {Name: "kl", F: KL},
	"symkl":     {Name: "symkl", F: SymmetricKL},
	"jsd":       {Name: "jsd", F: JensenShannon},
	"jsdist":    {Name: "jsdist", F: JensenShannonDist},
	"hellinger": {Name: "hellinger", F: Hellinger},
	"l1":        {Name: "l1", F: L1},
	"l2":        {Name: "l2", F: L2},
	"chi2":      {Name: "chi2", F: ChiSquare},
}

// ByName looks a distance up by its catalogue name.
func ByName(name string) (Distance, error) {
	d, ok := catalog[name]
	if !ok {
		return Distance{}, fmt.Errorf("distance: unknown distance %q (have %v)", name, Names())
	}
	return d, nil
}

// Must returns the catalogue entry for name, panicking on an unknown name.
// It is intended for static defaults (e.g. core.NewConfig), where a miss is
// a programming error.
func Must(name string) Distance {
	d, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Names lists the catalogue in a fixed order.
func Names() []string {
	return []string{"kl", "symkl", "jsd", "jsdist", "hellinger", "l1", "l2", "chi2"}
}
