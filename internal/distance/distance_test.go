package distance

import (
	"math"
	"math/rand"
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
	symmetric := []string{"symkl", "jsd", "jsdist", "hellinger", "l1", "l2", "chi2"}
	rng := rand.New(rand.NewSource(2))
	for _, name := range symmetric {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			p := randomPMF(rng, 8)
			q := randomPMF(rng, 8)
			a, b := d.F(p, q), d.F(q, p)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("%s: asymmetric, d(p,q)=%g d(q,p)=%g", name, a, b)
			}
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

func TestTriangleInequalityForMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"jsdist", "hellinger", "l1", "l2"} {
		d := Must(name)
		for trial := 0; trial < 500; trial++ {
			dim := 2 + rng.Intn(12)
			a := randomPMF(rng, dim)
			b := randomPMF(rng, dim)
			c := randomPMF(rng, dim)
			if d.F(a, c) > d.F(a, b)+d.F(b, c)+1e-12 {
				t.Fatalf("%s: triangle inequality violated: d(a,c)=%g > %g+%g",
					name, d.F(a, c), d.F(a, b), d.F(b, c))
			}
		}
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

func TestJensenShannonBound(t *testing.T) {
	// JSD is bounded by ln 2, reached for disjoint supports.
	p := []float64{1, 0}
	q := []float64{0, 1}
	if got := JensenShannon(p, q); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("JSD of disjoint supports = %g, want ln2 = %g", got, math.Log(2))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
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
	L2([]float64{1}, []float64{0.5, 0.5})
}
