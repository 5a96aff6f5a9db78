package distance

import (
	"math/rand"
	"testing"
)

// Benchmarks for the gate distance kernels: the gate runs once per 40 ms
// window, so per-call cost at the monitor's pmf dimensionality is the
// number that matters. One iteration = one gate comparison.

var benchSink float64

func benchmarkKernel(b *testing.B, name string) {
	const dim = 26 // mediasim pmf (25 event types) + rate feature
	rng := rand.New(rand.NewSource(1))
	mk := func() []float64 {
		p := make([]float64, dim)
		var sum float64
		for i := range p {
			p[i] = rng.Float64() + 1e-3
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	p, q := mk(), mk()
	d := Must(name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += d.F(p, q)
	}
}

// benchmarkRows measures one query against a 1000-row flat matrix —
// the LOF brute pass — through the exact row kernel.
func benchmarkRows(b *testing.B, name string) {
	const dim, n = 26, 1000
	rng := rand.New(rand.NewSource(1))
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.Float64() + 1e-3
	}
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		var sum float64
		for _, x := range row {
			sum += x
		}
		for i := range row {
			row[i] /= sum
		}
	}
	q := make([]float64, dim)
	copy(q, flat[:dim])
	out := make([]float64, n)
	kernel := RowsOf(Must(name))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(q, flat, dim, out)
		benchSink += out[0]
	}
}

func BenchmarkRowsSymKL1000(b *testing.B) { benchmarkRows(b, "symkl") }
func BenchmarkRowsL21000(b *testing.B)    { benchmarkRows(b, "l2") }
func BenchmarkRowsJSD1000(b *testing.B)   { benchmarkRows(b, "jsd") }

// BenchmarkSymmetricKL26 is SymmetricKL at the monitor's feature
// dimension (25 event types and the rate feature), the shape of the
// gate's comparison and of each exact call the k-NN refine makes. It walks
// 64 smoothed pmfs, comparing each with the one before, as the gate
// compares each window with the last, so that no single pair is learned.
// One iteration = one call.
func BenchmarkSymmetricKL26(b *testing.B) {
	const dim, n = 26, 64
	pmfs := randRows(rand.New(rand.NewSource(3)), n, dim, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		k := (j + n - 1) % n
		benchSink += SymmetricKL(pmfs[j*dim:(j+1)*dim], pmfs[k*dim:(k+1)*dim])
	}
}

func BenchmarkKernelKL(b *testing.B)        { benchmarkKernel(b, "kl") }
func BenchmarkKernelSymKL(b *testing.B)     { benchmarkKernel(b, "symkl") }
func BenchmarkKernelJSD(b *testing.B)       { benchmarkKernel(b, "jsd") }
func BenchmarkKernelJSDist(b *testing.B)    { benchmarkKernel(b, "jsdist") }
func BenchmarkKernelHellinger(b *testing.B) { benchmarkKernel(b, "hellinger") }
func BenchmarkKernelL1(b *testing.B)        { benchmarkKernel(b, "l1") }
func BenchmarkKernelL2(b *testing.B)        { benchmarkKernel(b, "l2") }
func BenchmarkKernelChi2(b *testing.B)      { benchmarkKernel(b, "chi2") }
