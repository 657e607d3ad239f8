package lstm

import "math"

// The cell's non-linearities are part of the float-bits contract: a gate
// value is 1/(1+math.Exp(−v)) or math.Tanh(v) of its pre-activation, bit
// for bit, and the state update is c = f·C + i·g (two products and a sum,
// each rounded) and h = o·tanh(c). activate runs a step's whole update four
// units at a time in one AVX2+FMA pass (cellAVX2 in gates_amd64.s, which
// carries the lane-exactness argument) wherever that returns math's own
// bits, and through math everywhere else:
//
//   - The assembly replicates math.Exp's FMA path, so it runs only where
//     math.Exp takes that path: on a CPU with AVX, FMA and AVX2, in a build
//     with the .s file (amd64, not -race), and only if the init self-check
//     agrees with math on whole steps through cellAVX2, the one entry.
//     The probes include inputs whose σ or tanh differs between
//     math.Exp's FMA and non-FMA paths, so GODEBUG=cpu.fma=off, or a Go
//     release that changes math.Exp, turns the assembly off instead of
//     moving bits.
//   - A group of four units with a lane outside the fast domain of any of
//     its five non-linearities (see the .s header) is computed by math,
//     whole, from its original C: the assembly writes the state only for
//     the groups it finished.
//
// The choice is made once at init; there is no knob.

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// useGateAsm selects the assembly. It is a variable only so in-package
// tests can check the choice.
var useGateAsm = cpuHasGateAsm() && gateSelfCheck()

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

// activateUnits is activate through math for units j0 ≤ j < end.
func activateUnits(pre, act, tc, C, H []float64, j0, end int) {
	h := len(C)
	for j := j0; j < end; j++ {
		iv, fv := sigmoid(pre[j]), sigmoid(pre[h+j])
		gv, ov := math.Tanh(pre[2*h+j]), sigmoid(pre[3*h+j])
		act[j], act[h+j], act[2*h+j], act[3*h+j] = iv, fv, gv, ov
		C[j] = cellUpdate(fv, C[j], iv, gv)
		tc[j] = math.Tanh(C[j])
		H[j] = ov * tc[j]
	}
}

// cellUpdate is the state update of a unit, c' = f·c + i·g: both products
// rounded on their own, then the sum — how the expression compiles on
// amd64 and how cellAVX2 computes it. The explicit roundings keep arm64 from
// fusing it.
func cellUpdate(f, c, i, g float64) float64 { return float64(f*c) + float64(i*g) }

// tanhOne is a bound past 0.5·MAXLOG ≈ 44.0148, beyond which math.Tanh
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

// gateProbes is the init self-check's input set: inside the fast domain of
// σ and tanh, a multiple of four long, covering tanh's branches and their
// boundaries, and holding inputs whose σ or tanh differs in the last bit
// between math.Exp's FMA and non-FMA paths (TestGateMathDispatch counts
// them). The row of eight was found by a seeded search for such inputs
// among multiples of 0.01 in [−40, 40]: the first four with σ sensitive,
// the first four with tanh sensitive. The last four are σ inputs whose
// exp lands one ulp off when the last step of exp's Horner chain is a
// multiply then an add instead of one FMA.
var gateProbes = [...]float64{
	-699.625, -600, -39.8, -18.4, -7.9, -2.52, -1.01, -0.14,
	0.01, 0.31, 1.04, 2.23, 4.22, 7.9, 18.4, 333.3,
	0, math.Copysign(0, -1), 5e-324, 1e-10, 0.3, -0.45, math.Nextafter(0.625, 0), 0.625,
	-0.625, 0.9, -3.3, 20.5, 44.014845965556527147994, math.Nextafter(44.014845965556527147994, 100), -60, 650,
	-22.2, -10.26, -38.62, -11.31, -1.22, 1.22, 1.18, -2.23,
	-70.26805661355812, -218.6862254277862, -462.6022619972187, -487.47848951645346,
}

// gateSelfCheck reports whether the assembly reproduces math on gateProbes,
// bit for bit: steps of a 12-unit cell (a pair of groups and a lone one)
// through cellAVX2, with every probe in every gate row and the probes
// again, scaled down, as the incoming C.
func gateSelfCheck() bool {
	const h = 12
	var pre, act, wantAct [numGates * h]float64
	var c, hs, tc, wantC, wantH, wantTC [h]float64
	for rot := 0; rot < len(gateProbes); rot += h {
		for r := range pre {
			pre[r] = gateProbes[(r+rot)%len(gateProbes)]
		}
		for j := range c {
			c[j] = gateProbes[(j+3*rot+5)%len(gateProbes)] / 8
			wantC[j] = c[j]
		}
		activateUnits(pre[:], wantAct[:], wantTC[:], wantC[:], wantH[:], 0, h)
		if cellAVX2(&pre[0], &act[0], &tc[0], &c[0], &hs[0], h, h) != h {
			return false
		}
		for i := range act {
			if math.Float64bits(act[i]) != math.Float64bits(wantAct[i]) {
				return false
			}
		}
		for j := range c {
			if math.Float64bits(c[j]) != math.Float64bits(wantC[j]) ||
				math.Float64bits(tc[j]) != math.Float64bits(wantTC[j]) ||
				math.Float64bits(hs[j]) != math.Float64bits(wantH[j]) {
				return false
			}
		}
	}
	return true
}
