package distance

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkLogPair fails t unless logPair(a, b) is math.Log of each, bit for
// bit.
func checkLogPair(t *testing.T, a, b float64) {
	t.Helper()
	la, lb := logPair(a, b)
	if wa, wb := math.Log(a), math.Log(b); math.Float64bits(la) != math.Float64bits(wa) ||
		math.Float64bits(lb) != math.Float64bits(wb) {
		t.Fatalf("logPair(%x, %x) = (%x, %x), math.Log gives (%x, %x)",
			math.Float64bits(a), math.Float64bits(b),
			math.Float64bits(la), math.Float64bits(lb), math.Float64bits(wa), math.Float64bits(wb))
	}
}

// TestLogMatchesMathLog pins logPair to math.Log bit for bit: over 2²⁴
// random positive bit patterns (every exponent, subnormals, +Inf and NaNs
// among them) paired two by two, over ratios of pmf-sized components,
// over the mantissas either side of the √2/2 reduction cut at every
// exponent, and over the special arguments, each paired with a normal
// argument so that the fallback is taken for both.
func TestLogMatchesMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 1<<23; i++ {
		checkLogPair(t, math.Float64frombits(rng.Uint64()>>1), math.Float64frombits(rng.Uint64()>>1))
	}
	for i := 0; i < 1<<20; i++ {
		checkLogPair(t, (rng.Float64()+1e-4)/(rng.Float64()+1e-4), rng.Float64()/1e-12)
	}
	cut := math.Float64bits(math.Sqrt2/2) & (1<<52 - 1)
	for e := uint64(1); e < 0x7FF; e++ {
		for _, m := range []uint64{0, 1, cut - 2, cut - 1, cut, cut + 1, cut + 2, 1<<52 - 1} {
			checkLogPair(t, math.Float64frombits(e<<52|m), math.Float64frombits((0x7FF-e)<<52|m))
		}
	}
	special := []float64{
		0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, math.Inf(-1), -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1023, 0x1p-1022 - 0x1p-1074, // subnormals
		0x1p-1022, 1, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for _, x := range special {
		checkLogPair(t, x, 0.3)
		checkLogPair(t, 0.3, x)
		for _, y := range special {
			checkLogPair(t, x, y)
		}
	}
}

// checkSymmetricKL fails t unless SymmetricKL(p, q) has the bits of
// KL(p, q) + KL(q, p), or both are NaN: Go does not fix a NaN's payload
// (which of two NaN operands an addition returns follows the operand
// order the compiler picks, in the reference as in the kernel).
func checkSymmetricKL(t *testing.T, p, q []float64) {
	t.Helper()
	got, want := SymmetricKL(p, q), KL(p, q)+KL(q, p)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("SymmetricKL = %v (%x), KL(p,q)+KL(q,p) = %v (%x)\np = %v\nq = %v",
			got, math.Float64bits(got), want, math.Float64bits(want), p, q)
	}
}

// TestSymmetricKLMatchesTwoKL: the one-pass kernel is KL(p,q)+KL(q,p) bit
// for bit over random 26-dimension pmfs, with and without hard zeros, and
// with one or two components of either side replaced by a zero, −0, a
// sub-eps value, a negative, a NaN or +Inf. A term is skipped only when
// its weight is <= 0, so a NaN weight must poison the sum here as it
// does in KL.
func TestSymmetricKLMatchesTwoKL(t *testing.T) {
	const dim = 26
	rng := rand.New(rand.NewSource(36))
	bad := []float64{0, math.Copysign(0, -1), 1e-13, 0x1p-1074, -0.25, math.NaN(), math.Inf(1)}
	for i := 0; i < 1<<16; i++ {
		zeroFrac := 0.0
		if i%2 == 1 {
			zeroFrac = 0.3
		}
		pq := randRows(rng, 2, dim, zeroFrac)
		p, q := pq[:dim], pq[dim:]
		checkSymmetricKL(t, p, q)
		checkSymmetricKL(t, p, p)
		switch i % 4 {
		case 1:
			p[rng.Intn(dim)] = bad[rng.Intn(len(bad))]
		case 2:
			q[rng.Intn(dim)] = bad[rng.Intn(len(bad))]
		case 3:
			j := rng.Intn(dim)
			p[j], q[j] = bad[rng.Intn(len(bad))], bad[rng.Intn(len(bad))]
		}
		checkSymmetricKL(t, p, q)
		checkSymmetricKL(t, q, p)
	}
	// A NaN weight facing a zero: KL's term is NaN·log(NaN/eps), and
	// the other direction skips its zero weight.
	p, q := make([]float64, dim), make([]float64, dim)
	p[0], q[0] = math.NaN(), 0
	p[1], q[1] = 0.5, 0.5
	if got := SymmetricKL(p, q); !math.IsNaN(got) {
		t.Fatalf("a NaN component gives %v, want NaN", got)
	}
	checkSymmetricKL(t, p, q)
	checkSymmetricKL(t, q, p)
}

// FuzzSymmetricKL: over vectors whose components are arbitrary bit
// patterns, SymmetricKL(p, q) has the bits of KL(p, q) + KL(q, p), a NaN
// for a NaN. data is read as little-endian float64s, p taking the first
// half and q the second; a trailing odd word is ignored.
func FuzzSymmetricKL(f *testing.F) {
	words := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(words(0.25, 0.25, 0.5, 0.5, 0.25, 0.25))
	f.Add(words(0.7, 0.3, 0, 0.3, 0.7, 0))
	f.Add(words(math.NaN(), 0.5, 0.5, 0, 0.5, 0.5))
	f.Add(words(1e-13, -0.25, 1, 0.4, 0.6, math.Inf(1)))
	f.Add(words(0x1p-1074, math.Copysign(0, -1), 0x1p-1022, 0.5, 1e-300, math.MaxFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		p, q := make([]float64, n), make([]float64, n)
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(n+i):]))
		}
		checkSymmetricKL(t, p, q)
	})
}
