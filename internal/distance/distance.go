// Package distance provides the dissimilarity measures used by the monitor.
//
// The paper compares pmf vectors with the Kullback–Leibler distance (§II,
// citing Kullback & Leibler 1951) for the cheap change gate, and feeds pmfs
// to LOF, which only requires a dissimilarity. The catalogue holds the KL
// family only: kl, the paper's literal gate, and symkl, its symmetrisation,
// which the shipped configuration uses for both. The matched-recall
// ablation behind that choice is experiment A-distance in DESIGN.md. Each
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
	// Upper, when set, returns a value no smaller than F's float result on
	// the same operands, or +Inf where it cannot bound it. It exists to
	// be cheaper than F: the monitor's gate declares a window quiet when
	// Upper is at or under the threshold and computes F only otherwise.
	// Nil for kl.
	Upper func(p, q []float64) float64
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

// upperSlack scales SymmetricKLUpper's rounding allowance; the bound
// behind it, about 1e-14, is derived in DESIGN.md ("The certified gate").
const upperSlack = 1e-12

// SymmetricKLUpper returns a log-free upper bound on SymmetricKL(p, q),
// the gate's certificate: the value is at least SymmetricKL's float result
// whenever it is finite, and +Inf when a component of p or q is NaN,
// below eps or above 1 (a pmf's components lie in [eps, 1] once smoothed;
// the range keeps SymmetricKL's floors inactive and every product below
// in range).
//
// For a, b > 0, (a−b)(ln a − ln b) ≤ (a−b)²/√(ab), because the
// logarithmic mean (a−b)/(ln a − ln b) is at least the geometric mean
// √(ab). Summed over the components, U = Σ (p_i−q_i)²/√(p_i·q_i) bounds
// the exact symmetrised divergence at one square root and one division a
// component. Two terms cover what the float kernel adds to the exact
// value: |Σp − Σq|, for its clamps of each direction's sum at zero (each
// direction is at least Σ its weights − Σ the other's), and
// upperSlack·(A + Σp + Σq) with A = Σ (p_i+q_i)·|p_i−q_i|/√(p_i·q_i), for
// the rounding of both kernels: A bounds Σ (p_i+q_i)·|ln p_i − ln q_i|,
// which scales the kernel's log and summation error, and bounds U.
func SymmetricKLUpper(p, q []float64) float64 {
	assertSameLen(p, q)
	var u, a, sp, sq float64
	for i := range p {
		pi, qi := p[i], q[i]
		if !(pi >= eps && pi <= 1 && qi >= eps && qi <= 1) {
			return math.Inf(1)
		}
		d := math.Abs(pi - qi)
		t := d / math.Sqrt(pi*qi)
		u += d * t
		a += (pi + qi) * t
		sp += pi
		sq += qi
	}
	return u + math.Abs(sp-sq) + upperSlack*(a+sp+sq)
}

func assertSameLen(p, q []float64) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("distance: dimension mismatch %d != %d", len(p), len(q)))
	}
}

// catalog is the distance catalogue, in the order Names lists it: the
// paper's literal gate (kl) and its symmetrisation, which ships (symkl).
var catalog = []Distance{
	{Name: "kl", F: KL},
	{Name: "symkl", F: SymmetricKL, Upper: SymmetricKLUpper},
}

// ByName looks a distance up by its catalogue name.
func ByName(name string) (Distance, error) {
	for _, d := range catalog {
		if d.Name == name {
			return d, nil
		}
	}
	return Distance{}, fmt.Errorf("distance: unknown distance %q (have %v)", name, Names())
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
	names := make([]string, len(catalog))
	for i, d := range catalog {
		names[i] = d.Name
	}
	return names
}
