package lstm

import (
	"math"

	"lcasgd/internal/fmath"
)

// The cell's non-linearities are part of the float-bits contract: a gate
// value is 1/(1+fmath.Exp(−v)) or fmath.Tanh(v) of its pre-activation, bit
// for bit, and the state update is c = f·C + i·g (two products and a sum,
// each rounded) and h = o·tanh(c). activate runs a step's whole update four
// units at a time in one AVX2+FMA pass (cellAVX2 in gates_amd64.s, which
// carries the lane-exactness argument) on a CPU with AVX, FMA and AVX2, in
// a build with the .s file (amd64, not -race), and through fmath
// everywhere else. The assembly's exp is fmath.Exp lane for lane, and
// fmath.Exp has the same bits on every CPU, so the choice is CPUID's
// alone, made once at init; there is no knob. A group of four units with a
// lane outside the fast domain of any of its five non-linearities (see the
// .s header) is computed by fmath, whole, from its original C: the
// assembly writes the state only for the groups it finished.

func sigmoid(v float64) float64 { return 1 / (1 + fmath.Exp(-v)) }

// useGateAsm selects the assembly: CPUID's answer, read once.
var useGateAsm = cpuHasGateAsm()

// activate is a step after its product, for h = len(C) units: the gates of
// unit j are σ(pre[j]), σ(pre[h+j]), tanh(pre[2h+j]) and σ(pre[3h+j]),
// stored at the same places of act; then C[j] = f·C[j] + i·g, tc[j] =
// tanh(C[j]) and H[j] = o·tc[j]. pre and act are [i; f; g; o], 4h long.
func activate(pre, act, tc, C, H []float64) {
	h := len(C)
	pre, act, tc, H = pre[:4*h], act[:4*h], tc[:h], H[:h]
	for j := 0; ; {
		if useGateAsm && h-j >= 4 {
			j += cellAVX2(&pre[j], &act[j], &tc[j], &C[j], &H[j], h, h-j)
		}
		if j == h {
			return
		}
		end := min(j+4, h)
		activateUnits(pre, act, tc, C, H, j, end)
		j = end
	}
}

// activateUnits is activate through fmath for units j0 ≤ j < end.
func activateUnits(pre, act, tc, C, H []float64, j0, end int) {
	h := len(C)
	for j := j0; j < end; j++ {
		iv, fv := sigmoid(pre[j]), sigmoid(pre[h+j])
		gv, ov := fmath.Tanh(pre[2*h+j]), sigmoid(pre[3*h+j])
		act[j], act[h+j], act[2*h+j], act[3*h+j] = iv, fv, gv, ov
		C[j] = cellUpdate(fv, C[j], iv, gv)
		tc[j] = fmath.Tanh(C[j])
		H[j] = ov * tc[j]
	}
}

// cellUpdate is the state update of a unit, c' = f·c + i·g: both products
// rounded on their own, then the sum — how the expression compiles on
// amd64 and how cellAVX2 computes it. The explicit roundings keep arm64 from
// fusing it.
func cellUpdate(f, c, i, g float64) float64 { return float64(f*c) + float64(i*g) }

// tanhOne is a bound past 0.5·MAXLOG ≈ 44.0148, beyond which tanh
// returns exactly ±1 by branch.
const tanhOne = 45

// holds reports whether a unit's state c, updated again and again under the
// same gates i, f and g, leaves tanh(c) — and so the unit's h — as it is
// for good. Either c is a fixed point of cellUpdate, bit for bit, and not a
// NaN, or c is finite with |c| ≥ 45 and i·g pushes it outward by at least
// what f takes away: sign(c)·fl(i·g) ≥ 45·(1−f) + 1e−12, each operation on
// the right rounded. |i·g| ≤ 1, so that needs f ≥ 44/45 and no product
// underflows.
// With c ≥ 45 (c ≤ −45 is the mirror image) and u = 2⁻⁵³, the update's
// rounded products then sum to at least
// 45·f·(1−u) + 45·(1−f)·(1−u)³ + 1e−12·(1−u) ≥ 45·(1−u)³ + 1e−12·(1−u) > 45,
// so the rounded c' is ≥ 45 again, while f ≤ 1 and |i·g| ≤ 1 keep it
// finite. The gates are the same at every step, so this holds forever.
func holds(i, f, g, c float64) bool {
	if math.Float64bits(cellUpdate(f, c, i, g)) == math.Float64bits(c) {
		return !math.IsNaN(c) // which NaN an update returns may hang on operand order
	}
	ig := float64(i * g)
	if c < 0 {
		ig = -ig
	}
	return math.Abs(c) >= tanhOne && !math.IsInf(c, 0) &&
		ig >= float64(tanhOne*(1-f))+1e-12
}
