package fmath

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// skipOffFMAPath skips unless math.Exp is the amd64 FMA path that Exp
// writes out, the reference these tests hold Exp and Tanh to. The path is
// read from math.Exp itself: exp(−39.8) ends in …fb13 on the FMA path and
// …fb14 on the path amd64 takes without FMA (or under GODEBUG=cpu.fma=off).
func skipOffFMAPath(t testing.TB) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Exp on %s is not the amd64 FMA path", runtime.GOARCH)
	}
	if math.Float64bits(math.Exp(-39.8)) == 0x3c57ee08649cfb14 {
		t.Skip("math.Exp takes its non-FMA path on this machine: nothing to hold Exp to")
	}
}

// edges lists where Exp or Tanh branches, each with both signs and both
// float neighbours: Exp's overflow bound, the smallest normal and the
// last nonzero result, tanh's 0.625 and MAXLOG/2, zeros, subnormals and
// the largest floats; then NaNs and the infinities.
func edges() []float64 {
	const maxlog = 8.8029691931113054295988e+01
	var out []float64
	for _, v := range []float64{
		0, 5e-324, 1e-310, 0x1p-1022, 1e-8, 0.625, 0.5 * maxlog, 1,
		709.782712893384, 709.43, 708.3964185322641, 745.1332191019411,
		744.44, 800, 1e300, math.MaxFloat64,
	} {
		for _, s := range []float64{v, -v} {
			out = append(out, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	return append(out, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001))
}

// checkMath holds Exp and Tanh to math.Exp and math.Tanh at x, bit for bit.
func checkMath(t testing.TB, x float64) {
	if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Exp(%v) (%#x) = %v (%#x), math.Exp gives %v (%#x)", x, math.Float64bits(x),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := Tanh(x), math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Tanh(%v) (%#x) = %v (%#x), math.Tanh gives %v (%#x)", x, math.Float64bits(x),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestExpTanhMatchMath holds Exp and Tanh to math on the edges and on 10⁷
// inputs: uniform on ±800, any bit pattern, and uniform on ±20.
func TestExpTanhMatchMath(t *testing.T) {
	skipOffFMAPath(t)
	for _, x := range edges() {
		checkMath(t, x)
	}
	g := rand.New(rand.NewPCG(58, 0))
	for i := 0; i < 10_000_000; i++ {
		switch i % 3 {
		case 0:
			checkMath(t, (g.Float64()-0.5)*1600)
		case 1:
			checkMath(t, math.Float64frombits(g.Uint64()))
		default:
			checkMath(t, (g.Float64()-0.5)*40)
		}
	}
}

// FuzzExpTanh holds Exp and Tanh to math bit for bit on arbitrary inputs.
func FuzzExpTanh(f *testing.F) {
	for _, x := range edges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		skipOffFMAPath(t)
		checkMath(t, x)
	})
}

// BenchmarkExp times Exp beside math.Exp on arguments spread over ±20.
func BenchmarkExp(b *testing.B) {
	in := make([]float64, 1024)
	g := rand.New(rand.NewPCG(1, 0))
	for i := range in {
		in[i] = (g.Float64() - 0.5) * 40
	}
	for _, bc := range []struct {
		name string
		exp  func(float64) float64
	}{{"fmath", Exp}, {"math", math.Exp}} {
		b.Run(bc.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += bc.exp(in[i%len(in)])
			}
			sink = s
		})
	}
}

var sink float64
