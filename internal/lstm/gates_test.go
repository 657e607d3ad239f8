package lstm

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"lcasgd/internal/rng"
)

// archExpReplica is math.archExp's amd64 algorithm ($GOROOT/src/math/
// exp_amd64.s) in Go, for an argument on its normal ldexp path. With fused
// it is the FMA path (math.FMA rounds a·b+c once, like VFMADD); without, the
// SSE2 path, which rounds the product before the add — there the fused
// final step is a fourth squaring followed by +1, the same operations.
func archExpReplica(x float64, fused bool) float64 {
	fma := func(a, b, c float64) float64 { return float64(a*b) + c }
	if fused {
		fma = math.FMA
	}
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	n := int32(math.RoundToEven(log2e * x))
	nf := float64(n)
	r := fma(-nf, ln2u, x)
	r = fma(-nf, ln2l, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		p = fma(p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = fma(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(n)+1023)<<52)
}

// TestGateMathDispatch pins when the assembly runs: exactly where the CPU
// supports it and math.Exp takes its FMA path (under GODEBUG=cpu.fma=off,
// -race or another GOARCH it must not). It also pins what makes the init
// self-check able to tell those paths apart: probes whose exp differs
// between them.
func TestGateMathDispatch(t *testing.T) {
	sensitive, fmaPath := 0, true
	for _, v := range gateProbes {
		if archExpReplica(v, true) != archExpReplica(v, false) {
			sensitive++
			fmaPath = fmaPath && math.Exp(v) == archExpReplica(v, true)
		}
	}
	if sensitive < 8 {
		t.Fatalf("%d gate probes tell math.Exp's FMA path from its SSE2 path, want at least 8", sensitive)
	}
	if runtime.GOARCH == "amd64" {
		// The replicas must be what they claim: math.Exp is one of them.
		g := rng.New(3)
		for i := 0; i < 100000; i++ {
			x := (g.Float64() - 0.5) * 1400
			e := math.Exp(x)
			if e != archExpReplica(x, true) && e != archExpReplica(x, false) {
				t.Fatalf("math.Exp(%v) = %x matches neither replica", x, math.Float64bits(e))
			}
		}
	} else {
		fmaPath = false
	}
	if want := cpuHasGateAsm() && fmaPath; useGateAsm != want {
		t.Fatalf("useGateAsm = %v, want %v (CPU support %v, math.Exp on its FMA path %v)",
			useGateAsm, want, cpuHasGateAsm(), fmaPath)
	}
	t.Logf("assembly gates: %v", useGateAsm)
}

// gateRef is the scalar definition each op must reproduce bit for bit.
func gateRef(op gateOp, v float64) float64 {
	switch op {
	case opExp:
		return math.Exp(v)
	case opSigmoid:
		return 1 / (1 + math.Exp(-v))
	}
	return math.Tanh(v)
}

var gateOps = []gateOp{opExp, opSigmoid, opTanh}

// checkGates runs every op over in, cut into runs of 1..9 elements so the
// four-lane groups and the scalar tails take every alignment, and compares
// each output with gateRef bitwise.
func checkGates(t testing.TB, in []float64) {
	out := make([]float64, len(in))
	for _, op := range gateOps {
		for i, n := 0, 1; i < len(in); i, n = i+n, n%9+1 {
			end := min(i+n, len(in))
			gateInto(op, out[i:end], in[i:end])
		}
		for i, v := range in {
			if want := gateRef(op, v); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("op %d of %v (%#x): got %v (%#x), want %v (%#x)", op, v, math.Float64bits(v),
					out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	}
}

// gateBoundaries lists where the scalar code branches or the vector code
// changes domain, each with both signs and both float neighbours.
func gateBoundaries() []float64 {
	const maxlog = 8.8029691931113054295988e+01
	var out []float64
	for _, v := range []float64{
		0, 5e-324, 1e-310, math.SmallestNonzeroFloat64 * 1e10, 0x1p-1022, 1e-8,
		0.625, 0.5 * maxlog, 1, 36.7368005696771, 37,
		700, 708.3964185322641, 710, 708.7, 709.08956571282405, 709.43, 709.4361393,
		7.09782712893384e+02, 745.1332191019411, 746, 1e3, 1e300,
		math.MaxFloat64,
	} {
		for _, s := range []float64{v, -v} {
			out = append(out, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	return append(out, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001))
}

// TestGateMathBitsMatchScalar: over 10⁷ inputs spread across magnitudes and
// random bit patterns, plus the boundary corpus at every lane position,
// the vector gates return math's bits (on a build or CPU without them this
// checks the fallback).
func TestGateMathBitsMatchScalar(t *testing.T) {
	n := 10_000_000
	if !useGateAsm {
		n = 200_000
	}
	g := rng.New(11)
	in := make([]float64, 0, n+9*64)
	corpus := gateBoundaries()
	for shift := 0; shift < 9; shift++ { // every corpus value in every lane
		in = append(in, corpus[:shift%len(corpus)]...)
		in = append(in, corpus...)
	}
	for len(in) < cap(in) {
		switch u := g.Uint64(); u % 4 {
		case 0: // any bit pattern: NaNs, infinities, subnormals, huge
			in = append(in, math.Float64frombits(g.Uint64()))
		case 1: // the fast domain's edge and beyond
			in = append(in, (g.Float64()-0.5)*1500)
		default: // magnitudes 2^-40 .. 2^10, both signs
			v := math.Ldexp(1+g.Float64(), int(u>>8%51)-40)
			if u&(1<<7) != 0 {
				v = -v
			}
			in = append(in, v)
		}
	}
	checkGates(t, in)
}

// FuzzGateMath holds the vector gates to math bit for bit on arbitrary
// inputs: the bytes are read as up to 64 float64s.
func FuzzGateMath(f *testing.F) {
	corpus := gateBoundaries()
	for i := 0; i+9 <= len(corpus); i += 9 {
		var b []byte
		for _, v := range corpus[i : i+9] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := make([]float64, min(len(b)/8, 64))
		for i := range in {
			in[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkGates(t, in)
	})
}
