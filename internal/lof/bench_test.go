package lof

import (
	"math/rand"
	"testing"

	"enduratrace/internal/distance"
)

// benchPoints draws n pmf-shaped reference vectors of dimension dim
// (normalised, strictly positive — the shape the monitor feeds LOF).
func benchPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		var sum float64
		for j := range p {
			p[j] = rng.Float64() + 1e-3
			sum += p[j]
		}
		for j := range p {
			p[j] /= sum
		}
		pts[i] = p
	}
	return pts
}

// benchmarkScore measures Scorer.Score — the monitoring hot path, run on
// every gate trip — for one distance.
func benchmarkScore(b *testing.B, n int, d distance.Distance) {
	const dim = 26 // mediasim pmf (25 event types) + rate feature
	pts := benchPoints(n, dim, 1)
	m, err := Fit(pts, 20, d)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchPoints(64, dim, 2)
	sc := m.NewScorer()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sc.Score(queries[i%len(queries)])
	}
	_ = sink
}

func BenchmarkScoreBruteSymKL1000(b *testing.B) {
	benchmarkScore(b, 1000, distance.Must("symkl"))
}

func BenchmarkScoreBruteSymKL3000(b *testing.B) {
	benchmarkScore(b, 3000, distance.Must("symkl"))
}

func BenchmarkScoreBruteL21000(b *testing.B) {
	benchmarkScore(b, 1000, distance.Must("l2"))
}

func BenchmarkScoreBruteHellinger1000(b *testing.B) {
	benchmarkScore(b, 1000, distance.Must("hellinger"))
}

// benchmarkFitBrute measures the learning step (pairwise kNN at fit
// time), the other cost the ROADMAP perf item cares about.
func benchmarkFitBrute(b *testing.B, n int) {
	pts := benchPoints(n, 26, 1)
	d := distance.Must("symkl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(pts, 20, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitBruteSymKL1000(b *testing.B) { benchmarkFitBrute(b, 1000) }

// BenchmarkFitBruteSymKL3000 is the fit at the reference-set size the
// default learn produces; it is what setup_s pays twice (Learn, then the
// refit in LoadModelFile).
func BenchmarkFitBruteSymKL3000(b *testing.B) { benchmarkFitBrute(b, 3000) }
