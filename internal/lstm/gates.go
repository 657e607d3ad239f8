package lstm

import "math"

// The cell's gate non-linearities are part of the float-bits contract: a
// gate value is 1/(1+math.Exp(−v)) or math.Tanh(v) of its pre-activation,
// bit for bit. gateInto runs them four lanes at a time in AVX2+FMA assembly
// (gates_amd64.s, which carries the lane-exactness argument) wherever that
// returns math's own bits, and through math everywhere else:
//
//   - The assembly replicates math.Exp's FMA path, so it runs only where
//     math.Exp takes that path: on a CPU with AVX, FMA and AVX2, in a build
//     with the .s file (amd64, not -race), and only if gateSelfCheck
//     agrees with math on gateProbes at init. The probes include inputs
//     whose exp differs between math's FMA and non-FMA paths, so
//     GODEBUG=cpu.fma=off, or a Go release that changes math.Exp, turns the
//     assembly off instead of moving bits.
//   - A group of four with a lane outside the fast domain (see the .s
//     header) is computed by math, whole.
//
// The choice is made once at init; there is no knob.

// gateOp selects the function gateInto applies.
type gateOp int

const (
	opExp gateOp = iota
	opSigmoid
	opTanh
)

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// scalar is op on one value, through math.
func (op gateOp) scalar(v float64) float64 {
	switch op {
	case opExp:
		return math.Exp(v)
	case opSigmoid:
		return sigmoid(v)
	}
	return math.Tanh(v)
}

// useGateAsm selects the assembly gates. It is a variable only so in-package
// tests can check the choice.
var useGateAsm = cpuHasGateAsm() && gateSelfCheck()

// gateInto sets dst[i] = op(src[i]) for every i < len(src). dst may be src.
func gateInto(op gateOp, dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		if useGateAsm && len(src)-i >= 4 {
			i += gateAVX2(op, &dst[i], &src[i], len(src)-i)
		}
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = op.scalar(src[i])
		}
	}
}

// gateProbes is the init self-check's input set: inside every op's fast
// domain, a multiple of four long, covering tanh's branches and their
// boundaries, and led by inputs whose exp differs in the last bit between
// math.Exp's FMA and non-FMA paths.
var gateProbes = [...]float64{
	-699.625, -600, -39.8, -18.4, -7.9, -2.52, -1.01, -0.14,
	0.01, 0.31, 1.04, 2.23, 4.22, 7.9, 18.4, 333.3,
	0, math.Copysign(0, -1), 5e-324, 1e-10, 0.3, -0.45, math.Nextafter(0.625, 0), 0.625,
	-0.625, 0.9, -3.3, 20.5, 44.014845965556527147994, math.Nextafter(44.014845965556527147994, 100), -60, 650,
}

// gateSelfCheck reports whether the assembly reproduces math on gateProbes
// for every op, bit for bit.
func gateSelfCheck() bool {
	var got [len(gateProbes)]float64
	for _, op := range []gateOp{opExp, opSigmoid, opTanh} {
		if gateAVX2(op, &got[0], &gateProbes[0], len(gateProbes)) != len(gateProbes) {
			return false
		}
		for i, v := range gateProbes {
			if math.Float64bits(got[i]) != math.Float64bits(op.scalar(v)) {
				return false
			}
		}
	}
	return true
}
