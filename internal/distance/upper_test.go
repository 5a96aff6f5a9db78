package distance

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"enduratrace/internal/pmf"
)

// gateTypes is the gate's dimension: the simulator's 25 event types (the
// rate feature stays out of the gate).
const gateTypes = 25

// gateSmoothing and gateLambda are the shipped Smoothing and MergeLambda.
const (
	gateSmoothing = 0.5
	gateLambda    = 0.1
)

// countPMF normalises counts the way the monitor does.
func countPMF(c pmf.Counts) pmf.Vector { return c.Normalize(gateSmoothing) }

// drawCounts draws events multinomial events over gateTypes skewed types.
func drawCounts(rng *rand.Rand, events int) pmf.Counts {
	c := make(pmf.Counts, gateTypes)
	for i := 0; i < events; i++ {
		// A geometric-ish skew, like a decoder's event mix.
		j := int(math.Abs(rng.NormFloat64()) * 6)
		if j >= gateTypes {
			j = gateTypes - 1
		}
		c[j]++
	}
	return c
}

// gatePair returns a window pmf and the past pmf it meets at the gate: the
// past is a run of windows merged at the shipped λ, as the monitor builds
// it from quiet windows.
func gatePair(rng *rand.Rand, events int) (n, p pmf.Vector) {
	p = countPMF(drawCounts(rng, events))
	for k := 1 + rng.Intn(20); k > 0; k-- {
		p.Merge(countPMF(drawCounts(rng, events)), gateLambda)
	}
	return countPMF(drawCounts(rng, events)), p
}

// checkUpper fails t when SymmetricKLUpper(p, q) claims a value (is
// finite) below SymmetricKL's float result, or is NaN.
func checkUpper(t *testing.T, p, q []float64) {
	t.Helper()
	u := SymmetricKLUpper(p, q)
	if math.IsNaN(u) {
		t.Fatalf("SymmetricKLUpper = NaN\np = %v\nq = %v", p, q)
	}
	if math.IsInf(u, 1) {
		return
	}
	if s := SymmetricKL(p, q); !(u >= s) {
		t.Fatalf("SymmetricKLUpper = %v < SymmetricKL = %v\np = %v\nq = %v", u, s, p, q)
	}
}

// nudge returns x moved by k ulps.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestSymmetricKLUpperBoundsKernel: the bound is at least SymmetricKL's
// float result over window pmfs of 1 to 1 100 events against merged past
// pmfs, over pairs a few ulps apart (where the float kernel's result is
// all rounding and clamping), and over unnormalised vectors in [eps, 1];
// it claims a value for every smoothed pmf pair and refuses (+Inf) a
// component that is NaN, infinite, negative, zero, below eps or above 1.
func TestSymmetricKLUpperBoundsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 1<<12; i++ {
		n, p := gatePair(rng, 1+rng.Intn(1100))
		if math.IsInf(SymmetricKLUpper(n, p), 1) {
			t.Fatalf("no bound for smoothed pmfs\nn = %v\np = %v", n, p)
		}
		checkUpper(t, n, p)
		checkUpper(t, p, n)
		near := append(pmf.Vector(nil), n...)
		for j := range near {
			near[j] = nudge(near[j], rng.Intn(9)-4)
		}
		checkUpper(t, n, near)
		checkUpper(t, n, n)
		raw := make([]float64, 2*gateTypes)
		for j := range raw {
			raw[j] = eps + rng.Float64()*(1-eps)
		}
		checkUpper(t, raw[:gateTypes], raw[gateTypes:])
	}
	n, p := gatePair(rng, 42)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 0, nudge(eps, -1), nudge(1, 1)} {
		for _, side := range []pmf.Vector{n, p} {
			keep := side[3]
			side[3] = bad
			if u := SymmetricKLUpper(n, p); !math.IsInf(u, 1) {
				t.Errorf("component %v: bound %v, want +Inf", bad, u)
			}
			side[3] = keep
		}
	}
}

// FuzzSymmetricKLUpper: whenever SymmetricKLUpper claims a value, it is
// at least SymmetricKL's float result. The first byte picks the operands
// the rest of data makes:
//   - 0: smoothed count windows, 0 to 1 100 events a type over the
//     gate's 25 types (two bytes a count), the last against the others
//     merged at λ 0.1, as the monitor's past pmf is;
//   - 1: a smoothed count window against itself moved by up to ±8 ulps a
//     component (one byte a component);
//   - anything else: raw little-endian float64 bit patterns, p the first
//     half and q the second.
//
// The bound must claim a value on the first two, which are pmfs.
func FuzzSymmetricKLUpper(f *testing.F) {
	counts := func(mode byte, cs ...uint16) []byte {
		b := []byte{mode}
		for _, c := range cs {
			b = binary.LittleEndian.AppendUint16(b, c)
		}
		return b
	}
	storm := make([]uint16, 2*gateTypes)
	storm[7] = 1024 // a 1 024-event error storm against a quiet past
	for i := gateTypes; i < 2*gateTypes; i++ {
		storm[i] = uint16(i % 5)
	}
	f.Add(counts(0, storm...))
	f.Add(counts(0, make([]uint16, 3*gateTypes)...))
	// A uniform window against itself with one component 2 ulps up: the
	// float kernel reads 1.8e-17 (one direction's sum clamps at zero), U
	// 1.1e-32, and |Σp − Σq| rounds to 0, so only the slack term holds.
	// With the two allowance terms dropped the fuzzer found no
	// counterexample in 60 s from an empty corpus: this seed and the two
	// either side of it are counterexamples (the one above only while
	// |Σp − Σq| is dropped too).
	f.Add(append(counts(1, make([]uint16, gateTypes)...), 2))
	f.Add(append(counts(1, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3),
		0x01, 0xff, 0x07, 0x80, 0x00, 0x02, 0xfe, 0x03, 0xfd))
	raw := []byte{2}
	for _, x := range []float64{0.25, 0.25, 0.5, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 1e-12, 1} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		readCounts := func(b []byte) pmf.Counts {
			c := make(pmf.Counts, gateTypes)
			for i := range c {
				c[i] = float64(binary.LittleEndian.Uint16(b[2*i:]) % 1101)
			}
			return c
		}
		const win = 2 * gateTypes
		switch mode {
		case 0:
			k := len(data) / win
			if k < 2 {
				return
			}
			p := countPMF(readCounts(data))
			for i := 1; i < k-1; i++ {
				p.Merge(countPMF(readCounts(data[i*win:])), gateLambda)
			}
			n := countPMF(readCounts(data[(k-1)*win:]))
			if math.IsInf(SymmetricKLUpper(n, p), 1) {
				t.Fatalf("no bound for smoothed pmfs\nn = %v\np = %v", n, p)
			}
			checkUpper(t, n, p)
			checkUpper(t, p, n)
		case 1:
			if len(data) < win {
				return
			}
			n := countPMF(readCounts(data))
			near := append(pmf.Vector(nil), n...)
			for i, b := range data[win:min(len(data), win+gateTypes)] {
				near[i] = nudge(near[i], int(int8(b))%9)
			}
			if math.IsInf(SymmetricKLUpper(n, near), 1) {
				t.Fatalf("no bound for smoothed pmfs\nn = %v\nq = %v", n, near)
			}
			checkUpper(t, n, near)
			checkUpper(t, near, n)
		default:
			m := len(data) / 16
			p, q := make([]float64, m), make([]float64, m)
			for i := range p {
				p[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
				q[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(m+i):]))
			}
			checkUpper(t, p, q)
		}
	})
}
