package lstm

import (
	"encoding/binary"
	"math"
	"testing"

	"lcasgd/internal/fmath"
	"lcasgd/internal/rng"
)

// sigRef is the scalar σ every gate row but g must reproduce bit for bit.
func sigRef(v float64) float64 { return 1 / (1 + fmath.Exp(-v)) }

// TestGateMathDispatch pins when the assembly runs: exactly where the CPU
// supports it (never under -race or on another GOARCH), whatever path
// math.Exp takes there. It logs the choice.
func TestGateMathDispatch(t *testing.T) {
	if useGateAsm != cpuHasGateAsm() {
		t.Fatalf("useGateAsm = %v, CPU support %v", useGateAsm, cpuHasGateAsm())
	}
	t.Logf("assembly gates: %v", useGateAsm)
}

// checkGates holds σ and tanh to fmath, bit for bit, on every value of in,
// through activate: cellAVX2 where the assembly runs, fmath for a group with
// a lane outside a fast domain and for the tail. in is cut into cells of
// 1..9 units, so the four-unit groups and the tails take every alignment,
// and each cell takes two steps:
//   - the values in every gate row: σ on the i, f and o rows, tanh on g;
//   - the values as the incoming C, with f = σ(40) = 1, i = σ(−800) = +0
//     and g = tanh(−1) < 0, so that i·g = −0 and c = 1·C + (−0) is C:
//     tanh alone on the values, as tanh(c), and o = σ(40) = 1 makes H
//     tanh(c) too. c must come back as C, bit for bit (a signalling NaN
//     quieted by 1·C aside).
func checkGates(t testing.TB, in []float64) {
	const maxH = 9
	var pre, act [numGates * maxH]float64
	var tc, cs, hs [maxH]float64
	for i, n := 0, 1; i < len(in); i, n = i+n, n%maxH+1 {
		v := in[i:min(i+n, len(in))]
		h := len(v)
		for r := 0; r < numGates; r++ {
			copy(pre[r*h:], v)
		}
		clear(cs[:h])
		activate(pre[:numGates*h], act[:numGates*h], tc[:h], cs[:h], hs[:h])
		for j, x := range v {
			for r, want := range [numGates]float64{sigRef(x), sigRef(x), fmath.Tanh(x), sigRef(x)} {
				if got := act[r*h+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("gate row %d of %v (%#x): got %v (%#x), want %v (%#x)", r, x, math.Float64bits(x),
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		for j := range v {
			pre[gateI*h+j], pre[gateF*h+j], pre[gateG*h+j], pre[gateO*h+j] = -800, 40, -1, 40
		}
		copy(cs[:h], v)
		activate(pre[:numGates*h], act[:numGates*h], tc[:h], cs[:h], hs[:h])
		for j, x := range v {
			want := fmath.Tanh(x)
			if !sameBits(cs[j], x) || !sameBits(tc[j], want) || !sameBits(hs[j], want) {
				t.Fatalf("tanh(c) of C = %v (%#x): c %v (%#x), tanh(c) %v (%#x), H %v (%#x), want c = C and tanh %v (%#x)",
					x, math.Float64bits(x), cs[j], math.Float64bits(cs[j]), tc[j], math.Float64bits(tc[j]),
					hs[j], math.Float64bits(hs[j]), want, math.Float64bits(want))
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
// random bit patterns, plus the boundary corpus at every lane position, the
// cell step's σ and tanh return fmath's bits (on a build or CPU without the
// assembly this checks the fallback).
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

// FuzzGateMath holds the cell step's σ and tanh to fmath bit for bit on
// arbitrary inputs, as checkGates does: the bytes are read as up to 64
// float64s.
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

// scalarStep is Step by its per-unit definition, as
// TestCellStepBitsMatchScalarGates spells it out: pre[r] = B[r] + (the
// row-r chain over x, then h, from +0); every gate through fmath; c = f·C +
// i·g; h = o·tanh(c). It advances ref and records the step in want.
func scalarStep(c *Cell, in []float64, ref State, want *stepCache) {
	x, h := c.X, c.H
	wx, wh := serialWeights(c)
	copy(want.x, in)
	copy(want.hPrev, ref.H)
	copy(want.cPrev, ref.C)
	pre := make([]float64, numGates*h)
	for r := range pre {
		sum := 0.0
		for j, xv := range in {
			sum = math.FMA(wx[r*x+j], xv, sum)
		}
		for j, hv := range ref.H {
			sum = math.FMA(wh[r*h+j], hv, sum)
		}
		pre[r] = c.B[r] + sum
	}
	for j := 0; j < h; j++ {
		iv, fv := sigRef(pre[gateI*h+j]), sigRef(pre[gateF*h+j])
		gv, ov := fmath.Tanh(pre[gateG*h+j]), sigRef(pre[gateO*h+j])
		cv := fv*ref.C[j] + iv*gv
		tc := fmath.Tanh(cv)
		want.i[j], want.f[j], want.g[j], want.o[j], want.c[j], want.tanhC[j] = iv, fv, gv, ov, cv, tc
		ref.C[j], ref.H[j] = cv, ov*tc
	}
}

// sameBits is bitwise equality, except that any two NaNs match: which NaN
// payload survives an operation on two of them depends on operand order,
// which the compiler picks freely for commutative ops.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// stepExtremes are bias and state values outside the assembly's fast
// domain, or on its edge: saturated and overflowing sigmoids, tanh past
// MAXLOG/2, non-finite values.
var stepExtremes = []float64{
	-800, 750, -709.7, -710, 700.5, 50, -44.1, 1e308, -1e308,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Nextafter(0.625, 0), 5e-324,
}

// FuzzCellStep holds Step — the fused assembly where it runs, the per-unit
// Go fallback everywhere else — to its scalar definition bit for bit, on
// the cache and the nil-cache path over three chained steps, at H in
// [1, 80] and X in [1, 9] or X = H. A few biases are always pushed out of
// the fast domain; each 10-byte record of poke (a little-endian uint16
// index, then float64 bits) overwrites one more bias, or past 4H one entry
// of the incoming C.
func FuzzCellStep(f *testing.F) {
	rec := func(idx uint16, v float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, idx)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	f.Add(uint64(1), uint8(7), uint8(9), []byte(nil))
	f.Add(uint64(2), uint8(31), uint8(0), []byte(nil))
	f.Add(uint64(3), uint8(79), uint8(8), rec(5, math.NaN()))
	f.Add(uint64(4), uint8(11), uint8(2), append(rec(50, math.Inf(1)), rec(3, -709.5)...))
	f.Add(uint64(5), uint8(3), uint8(9), rec(16, 1e300))
	f.Fuzz(func(t *testing.T, seed uint64, hb, xb uint8, poke []byte) {
		h, x := 1+int(hb)%80, 1+int(xb)%10
		if x == 10 {
			x = h
		}
		g := rng.New(seed)
		c := NewCell(x, h, g)
		g.FillNormal(c.B, 2)
		s := NewState(h)
		g.FillNormal(s.C, 1)
		for k := 0; k < 3; k++ {
			c.B[g.Intn(numGates*h)] = stepExtremes[g.Intn(len(stepExtremes))]
		}
		for ; len(poke) >= 10; poke = poke[10:] {
			k, v := int(binary.LittleEndian.Uint16(poke))%((numGates+1)*h), math.Float64frombits(binary.LittleEndian.Uint64(poke[2:]))
			if k < numGates*h {
				c.B[k] = v
			} else {
				s.C[k-numGates*h] = v
			}
		}
		ref, nilState := s.Clone(), NewState(h)
		cache, want := newStepCache(x, h), newStepCache(x, h)
		in := make([]float64, x)
		for step := 0; step < 3; step++ {
			g.FillNormal(in, 1.5)
			copy(nilState.H, s.H)
			copy(nilState.C, s.C)
			scalarStep(c, in, ref, want)
			c.Step(in, s, cache)
			c.Step(in, nilState, nil)
			for name, pair := range map[string][2][]float64{
				"H": {s.H, ref.H}, "C": {s.C, ref.C}, "nil-cache H": {nilState.H, ref.H}, "nil-cache C": {nilState.C, ref.C},
				"x": {cache.x, want.x}, "hPrev": {cache.hPrev, want.hPrev}, "cPrev": {cache.cPrev, want.cPrev},
				"act": {cache.act, want.act}, "c": {cache.c, want.c}, "tanhC": {cache.tanhC, want.tanhC},
			} {
				for j := range pair[1] {
					if !sameBits(pair[0][j], pair[1][j]) {
						t.Fatalf("X=%d H=%d step %d: %s[%d] = %v (%#x), scalar gives %v (%#x)", x, h, step, name, j,
							pair[0][j], math.Float64bits(pair[0][j]), pair[1][j], math.Float64bits(pair[1][j]))
					}
				}
			}
		}
	})
}
