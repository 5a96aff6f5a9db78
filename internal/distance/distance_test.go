package distance

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// randomPMF draws a smoothed random distribution of dimension d.
func randomPMF(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	var sum float64
	for i := range p {
		p[i] = rng.Float64() + 0.01
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestPropertiesAcrossCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for trial := 0; trial < 200; trial++ {
			dim := 2 + rng.Intn(30)
			p := randomPMF(rng, dim)
			q := randomPMF(rng, dim)
			v := d.F(p, q)
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s: negative or NaN distance %g", name, v)
			}
			if z := d.F(p, p); z > 1e-9 {
				t.Fatalf("%s: d(p,p) = %g, want ~0", name, z)
			}
		}
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := randomPMF(rng, 8)
		q := randomPMF(rng, 8)
		a, b := SymmetricKL(p, q), SymmetricKL(q, p)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("symkl: asymmetric, d(p,q)=%g d(q,p)=%g", a, b)
		}
	}
	// Sanity: plain KL really is asymmetric, otherwise the symmetric test
	// proves nothing.
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	if math.Abs(KL(p, q)-KL(q, p)) < 1e-6 {
		t.Fatal("KL unexpectedly symmetric on a test pair")
	}
}

func TestKLHandComputed(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	// D(p‖q) = 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.5 ln(4/3)
	want := 0.5 * math.Log(4.0/3.0)
	if got := KL(p, q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("KL(p,q) = %g, want %g", got, want)
	}
	// D(q‖p) = 0.25 ln(0.5) + 0.75 ln(1.5)
	want2 := 0.25*math.Log(0.5) + 0.75*math.Log(1.5)
	if got := KL(q, p); math.Abs(got-want2) > 1e-12 {
		t.Fatalf("KL(q,p) = %g, want %g", got, want2)
	}
	if got := SymmetricKL(p, q); math.Abs(got-(want+want2)) > 1e-12 {
		t.Fatalf("SymmetricKL = %g, want %g", got, want+want2)
	}
}

// JensenShannon returns the Jensen–Shannon divergence, the
// entropy-smoothed, bounded (by ln 2) symmetrisation of KL: the exact
// reference the bench-only LogRows.JSDRows is checked against.
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

func TestJensenShannonBound(t *testing.T) {
	// JSD is bounded by ln 2, reached for disjoint supports.
	p := []float64{1, 0}
	q := []float64{0, 1}
	if got := JensenShannon(p, q); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("JSD of disjoint supports = %g, want ln2 = %g", got, math.Log(2))
	}
}

// TestByNameUnknown: a name outside the catalogue, including each
// distance it once held, is an error that names it, and the catalogue is
// the KL family in Names' order.
func TestByNameUnknown(t *testing.T) {
	for _, name := range []string{"nope", "jsd", "jsdist", "hellinger", "l1", "l2", "chi2"} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Fatalf("ByName(%q): %v, want an error naming it", name, err)
		}
	}
	if names := Names(); !slices.Equal(names, []string{"kl", "symkl"}) {
		t.Fatalf("Names() = %v, want [kl symkl]", names)
	}
	for _, name := range Names() {
		d, err := ByName(name)
		if err != nil || d.Name != name || d.F == nil {
			t.Fatalf("catalogue entry %q broken: %+v err=%v", name, d, err)
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	KL([]float64{1}, []float64{0.5, 0.5})
}
