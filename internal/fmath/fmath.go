// Package fmath owns the transcendentals whose bits reach the results, exp
// and tanh. math.Exp on amd64 has a path for CPUs with FMA and one for CPUs
// without, which differ in the last bit; Exp is the FMA path on math.FMA,
// which rounds once on either, so every amd64 machine gets its bits. Every
// product that meets an add outside a math.FMA is rounded explicitly, so
// arm64 cannot fuse it either.
package fmath

import "math"

// Exp returns e**x: the FMA path of $GOROOT/src/math/exp_amd64.s op for op,
// on the whole domain: n = round-to-even(log2(e)·x) as CVTSD2SL gives it,
// r = x − n·ln2 in two fused steps, r/16 into the Horner chain from c8 down
// to 1, r·p, three (r+2)·r squarings and the fused (r+2)·r + 1, then ·2ⁿ,
// in two multiplies on the denormal branch (n < −1022). NaN returns x,
// x > Overflow +Inf (as does n = 1024, whose 2ⁿ is +Inf), and n < −1075
// (−Inf among them) 0.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	t := math.RoundToEven(log2e * x)
	switch {
	case math.IsNaN(x):
		return x
	case x > overflow:
		return math.Inf(1)
	case t < -1075:
		return 0
	}
	r := math.FMA(-t, ln2u, x)
	r = math.FMA(-t, ln2l, r) * 0.0625
	p := 2.4801587301587301587e-5
	p = math.FMA(p, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r+2, r, 1)
	e := int(t) + 1023
	if e <= 0 {
		r *= math.Float64frombits(uint64(e+0x3fe) << 52)
		e = 1
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// Tanh returns the hyperbolic tangent of x: math.Tanh, whose middle branch,
// 0.625 ≤ |x| ≤ MAXLOG/2, is 1 − 2/(exp(2|x|)+1) with x's sign and here
// takes Exp. Every other branch calls no exp and is math.Tanh's own.
func Tanh(x float64) float64 {
	const maxlog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	if !(z >= 0.625 && z <= 0.5*maxlog) {
		return math.Tanh(x)
	}
	z = 1 - 2/(Exp(2*z)+1)
	if x < 0 {
		return -z
	}
	return z
}
