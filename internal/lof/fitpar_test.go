package lof

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"enduratrace/internal/distance"
)

// defaultShapedReference is n pmf points of the monitor's dimension (25
// event types and the rate feature) of which every third repeats an
// earlier point bit for bit, as a mediasim reference's quiet windows do.
// The default learn has n = 3 000; tests take fewer, since the race
// detector runs the fit about ten times slower.
func defaultShapedReference(n int) [][]float64 {
	rng := rand.New(rand.NewSource(48))
	pts := pmfPoints(rng, n, 26)
	for i := 3; i < n; i += 3 {
		pts[i] = pts[rng.Intn(i)]
	}
	return pts
}

// failingReference is a pmf cluster with one-hot rows of 1e308 planted at
// points 37, 70 and 90: every distance from one of them overflows, so
// each has no neighbour at a finite distance, and Fit must name point 37.
func failingReference() [][]float64 {
	pts := pmfPoints(rand.New(rand.NewSource(49)), 120, 4)
	for c, i := range []int{90, 37, 70} {
		pts[i] = make([]float64, 4)
		pts[i][c] = 1e308
	}
	return pts
}

// TestFitIndependentOfWorkers: Fit's k-NN runs on GOMAXPROCS workers, and
// the fit at 1 and at 4 is the same bit for bit — every k-distance, lrd
// and train LOF — over a default-shaped reference and one with a copy
// group of K+1 rows; over a reference Fit refuses, both report the same
// point.
func TestFitIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	symkl := distance.Must("symkl")
	copies, _ := copyGroupReference(5, true)
	fit := func(procs int, pts [][]float64, k int) (*Model, error) {
		runtime.GOMAXPROCS(procs)
		return Fit(pts, k, symkl)
	}
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, tc := range []struct {
		name string
		pts  [][]float64
		k    int
	}{
		{"default-shaped", defaultShapedReference(1000), 20},
		{"copy-group", copies, 5},
	} {
		serial, err := fit(1, tc.pts, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		parallel, err := fit(4, tc.pts, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k1, l1, t1 := serial.Fitted()
		k4, l4, t4 := parallel.Fitted()
		if !bitsEqual(k1, k4) || !bitsEqual(l1, l4) || !bitsEqual(t1, t4) {
			t.Fatalf("%s: the fit on 4 workers differs from the fit on 1", tc.name)
		}
	}
	pts := failingReference()
	_, serialErr := fit(1, pts, 5)
	_, parallelErr := fit(4, pts, 5)
	if serialErr == nil || parallelErr == nil || serialErr.Error() != parallelErr.Error() {
		t.Fatalf("a refused reference: %v on 1 worker, %v on 4", serialErr, parallelErr)
	}
	if want := "point 37 has 0 neighbours"; !strings.Contains(serialErr.Error(), want) {
		t.Fatalf("error %q does not name %q", serialErr, want)
	}
}
