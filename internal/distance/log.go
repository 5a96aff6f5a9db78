package distance

import (
	"math"
	"runtime"
)

// inlineLog reports whether logPair's transcription matches this
// platform's math.Log: everywhere but s390x, whose math.Log is an
// assembly routine with a different algorithm.
const inlineLog = runtime.GOARCH != "s390x"

// cutMant is the lowest mantissa the reduction does not double: one
// past √2/2's on amd64, whose log_amd64.s doubles f1 <= √2/2, and √2/2's
// elsewhere, where log.go doubles f1 < √2/2. The two differ on one
// argument, √2/2·2³², by 1 ulp.
var cutMant = uint64(0x6A09E667F3BCD) + b2u(runtime.GOARCH == "amd64")

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// logPair returns math.Log(a) and math.Log(b), bit for bit. When both are
// positive, normal and finite it computes them side by side, inline,
// through a transcription of math.Log's algorithm: the operations of
// math/log.go's log, which log_amd64.s performs in the same order, on the
// same constants (and with its own comparison at the reduction's cut, see
// cutMant). Every other argument goes to math.Log. The two chains
// are independent, so their divisions and polynomials overlap in the
// pipeline where two calls would run one after the other.
//
// The transcription rounds every operation on its own, as the assembly
// does. A toolchain that fused a multiply and an add here would break that
// silently; TestLogMatchesMathLog catches it, and CI runs it under
// GOAMD64=v3, where fused instructions exist.
func logPair(a, b float64) (la, lb float64) {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	// A positive normal finite number has a biased exponent in 1 .. 0x7FE
	// and a clear sign bit: its top 12 bits, less one, are below 0x7FE.
	if !inlineLog || ba>>52-1 >= 0x7FE || bb>>52-1 >= 0x7FE {
		return math.Log(a), math.Log(b)
	}

	fa, ka := reduce(ba)
	fb, kb := reduce(bb)
	fa, fb = fa-1, fb-1

	// compute
	sa, sb := fa/(2+fa), fb/(2+fb)
	s2a, s2b := sa*sa, sb*sb
	s4a, s4b := s2a*s2a, s2b*s2b
	t1a := s2a * (l1 + s4a*(l3+s4a*(l5+s4a*l7)))
	t1b := s2b * (l1 + s4b*(l3+s4b*(l5+s4b*l7)))
	t2a := s4a * (l2 + s4a*(l4+s4a*l6))
	t2b := s4b * (l2 + s4b*(l4+s4b*l6))
	ra, rb := t1a+t2a, t1b+t2b
	hfsqa, hfsqb := 0.5*fa*fa, 0.5*fb*fb
	la = ka*ln2Hi - ((hfsqa - (sa*(hfsqa+ra) + ka*ln2Lo)) - fa)
	lb = kb*ln2Hi - ((hfsqb - (sb*(hfsqb+rb) + kb*ln2Lo)) - fb)
	return la, lb
}

// reduce is math.Log's argument reduction for the bits of a positive
// normal finite x: Frexp's x = f1·2^k, f1 in [½, 1), then f1 doubled and k
// decremented when f1's mantissa is below cutMant. Both steps are exact,
// so it takes them on the bits — the doubling is an exponent increment —
// and the compare is a subtraction's sign, not a branch: which way a
// ratio's mantissa falls is a coin toss a branch predictor cannot learn.
// The results are the values math.Log's float operations give.
func reduce(bits uint64) (f1, k float64) {
	m, e := bits&(1<<52-1), int64(bits>>52)-0x3FE
	dbl := (m - cutMant) >> 63 // 1 when m < cutMant: both are below 2⁵²
	return math.Float64frombits(m | (0x3FE+dbl)<<52), float64(e - int64(dbl))
}
