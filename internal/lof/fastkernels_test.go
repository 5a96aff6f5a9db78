package lof

import (
	"math/rand"
	"testing"

	"enduratrace/internal/distance"
)

// TestFastKernelsMatchExactClosely: the FastKernels opt-in must track
// the exact model tightly — same anomaly verdicts, tiny score drift.
func TestFastKernelsMatchExactClosely(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := pmfPoints(rng, 400, 8)
	exact, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{FastKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	se, sf := exact.NewScorer(), fast.NewScorer()
	for _, q := range pmfPoints(rng, 50, 8) {
		a, b := se.Score(q), sf.Score(q)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-6*(1+a) {
			t.Fatalf("fast kernels drifted: exact %v vs fast %v", a, b)
		}
	}
	outlier := []float64{0.93, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01}
	if a, b := se.Score(outlier), sf.Score(outlier); a < 2 || b < 2 {
		t.Fatalf("outlier: exact %v vs fast %v, want both >> 1", a, b)
	}
}
