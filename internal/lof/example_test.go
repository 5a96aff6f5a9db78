package lof_test

import (
	"fmt"

	"enduratrace/internal/distance"
	"enduratrace/internal/lof"
)

// ExampleFit fits a LOF model over a small 2-D reference set and shows
// the model's shape. In enduratrace the points are window pmfs, but Fit
// accepts any fixed-dimension float vectors.
func ExampleFit() {
	points := [][]float64{
		{0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {0.1, 0.1},
		{0.05, 0.05}, {0.9, 0.9},
	}
	model, err := lof.Fit(points, 2, distance.Must("l2"))
	if err != nil {
		panic(err)
	}
	fmt.Println("points:", model.Len())
	fmt.Println("dim:", model.Dim())
	// The per-point training LOF is precomputed at fit time; the cluster
	// points sit near 1, the straggler at (0.9, 0.9) scores far higher.
	fmt.Println("straggler is the most outlying:", model.ScoreTrain(5) > model.ScoreTrain(0))
	// Output:
	// points: 6
	// dim: 2
	// straggler is the most outlying: true
}

// ExampleScorer_Score scores query points against a fitted model. Each
// goroutine should own one Scorer: scoring reuses the scorer's scratch
// buffers and is allocation-free in steady state, while the Model itself
// stays immutable and shareable.
func ExampleScorer_Score() {
	var points [][]float64
	for i := 0; i < 20; i++ {
		points = append(points, []float64{float64(i%5) * 0.01, float64(i/5) * 0.01})
	}
	model, err := lof.Fit(points, 3, distance.Must("l2"))
	if err != nil {
		panic(err)
	}
	sc := model.NewScorer()
	inlier := sc.Score([]float64{0.02, 0.015}) // inside the grid
	outlier := sc.Score([]float64{0.50, 0.50}) // far outside
	fmt.Println("inlier near 1:", inlier < 1.5)
	fmt.Println("outlier well above 1:", outlier > 2)
	// Output:
	// inlier near 1: true
	// outlier well above 1: true
}
