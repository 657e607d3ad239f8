package tensor

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
)

// laneHostile fills s with normals salted with every class of float a lane
// could mishandle: zeros of both signs, subnormals, infinities and NaNs of
// either sign, quiet and signaling, with random payloads.
func laneHostile(g *rng.RNG, s []float64) {
	g.FillNormal(s, 1)
	for i := range s {
		sign := uint64(g.Intn(2)) << 63
		switch g.Intn(12) {
		case 0:
			s[i] = math.Float64frombits(sign)
		case 1:
			s[i] = math.Float64frombits(sign | (1 + g.Uint64()&0x000f_ffff_ffff_fffe))
		case 2:
			s[i] = math.Float64frombits(sign | 0x7ff0_0000_0000_0000)
		case 3:
			s[i] = math.Float64frombits(sign | 0x7ff8_0000_0000_0000 | g.Uint64()&0x0007_ffff_ffff_ffff)
		case 4:
			s[i] = math.Float64frombits(sign | 0x7ff0_0000_0000_0001 | g.Uint64()&0x0007_ffff_ffff_fffe)
		}
	}
}

// laneCase is one epilogue lane call on operands carved out of pools at an
// offset, so vectors start at every alignment. A channel-major operand's
// rows are n*s+off apart.
type laneCase struct {
	n, c, s, off int
}

// laneConsts is a pass's channel constants, each pool c long, and m.
const laneConsts = 8

// runLanes calls every epilogue lane on one case and returns what each
// wrote, keyed by pass.
func runLanes(lc laneCase, pools [6][]float64, consts [laneConsts][]float64) map[string][]float64 {
	feat := lc.c * lc.s
	size := lc.n * feat
	ld := lc.n*lc.s + lc.off
	in := func(i int) []float64 { return pools[i][lc.off:][:size] }
	cm := pools[0][lc.off:][:(lc.c-1)*ld+lc.n*lc.s] // channel-major, gaps between rows
	out := map[string][]float64{}
	fresh := func(name string) []float64 {
		d := make([]float64, size+lc.off)[lc.off:]
		for i := range d {
			d[i] = math.Float64frombits(0x7ff8_dead_0000_0000) // must be overwritten
		}
		out[name] = d
		return d
	}
	for _, relu := range []bool{false, true} {
		tag := fmt.Sprintf(" relu=%v", relu)
		BNTrainRows(fresh("train"+tag), cm, ld, lc.n, lc.c, lc.s, relu, consts[0], consts[1], consts[2], consts[3])
		BNInferRows(fresh("infer"+tag), cm, ld, lc.n, lc.c, lc.s, relu, consts[2], consts[0], consts[1], consts[3])
		sums := &BNGrad{Mean: consts[0], Inv: consts[1], Gamma: consts[2], Beta: consts[3],
			SumDy: make([]float64, lc.c), SumDyXhat: make([]float64, lc.c)}
		BNGradSums(sums, cm, ld, in(1), lc.n, lc.c, lc.s, relu)
		out["sum dy"+tag], out["sum dy xhat"+tag] = sums.SumDy, sums.SumDyXhat
		// The bias gradient is added to, so it starts from the same
		// hostile bits on both sides.
		bGrad := append([]float64(nil), consts[7]...)
		out["bias grad"+tag] = bGrad
		BNGradRows(fresh("grad dY"+tag), fresh("grad dYT"+tag), bGrad, cm, ld, in(1), lc.n, lc.c, lc.s, relu, &BNGrad{
			Mean: consts[0], Inv: consts[1], Gamma: consts[2], Beta: consts[3],
			K: consts[4], SumDy: consts[5], SumDyXhat: consts[6], M: pools[5][0],
		})
	}
	// The fill's rows are n*s long, off apart: the gaps keep their poison.
	fill := fresh("fill")
	FillRows(fill, lc.n*lc.s+lc.off, lc.n*lc.s, consts[3][:(size-lc.n*lc.s)/(lc.n*lc.s+lc.off)+1])
	ReLU(FromSlice(fresh("relu"), size), FromSlice(in(4), size))
	ReLUBackward(FromSlice(fresh("relu backward"), size), FromSlice(in(1), size), FromSlice(in(4), size))
	Add(FromSlice(fresh("add"), size), FromSlice(in(4), size), FromSlice(in(5), size))
	AddReLU(FromSlice(fresh("add relu"), size), FromSlice(in(4), size), FromSlice(in(5), size))
	return out
}

func lanePools(g *rng.RNG, maxLen, maxC int) (pools [6][]float64, consts [laneConsts][]float64) {
	for i := range pools {
		pools[i] = make([]float64, maxLen)
		laneHostile(g, pools[i])
	}
	for i := range consts {
		consts[i] = make([]float64, maxC)
		laneHostile(g, consts[i])
	}
	return pools, consts
}

// chains lists the outputs that are sums over many elements. Where a sum
// meets two NaNs the Go loop keeps the payload of whichever operand its
// compiled addition takes first, and the compiler's choice differs between
// a plain and a coverage-instrumented (fuzzing) build; so there a NaN
// equals a NaN, and every other result, chains included, is held bit for
// bit.
var chains = map[string]bool{}

func init() {
	for _, relu := range []bool{false, true} {
		tag := fmt.Sprintf(" relu=%v", relu)
		chains["sum dy"+tag], chains["sum dy xhat"+tag], chains["bias grad"+tag] = true, true, true
	}
}

func checkLanesMatchGo(t *testing.T, lc laneCase, pools [6][]float64, consts [laneConsts][]float64) {
	t.Helper()
	cs := consts
	for i := range cs {
		cs[i] = consts[i][:lc.c]
	}
	var ref map[string][]float64
	withGoKernel(func() { ref = runLanes(lc, pools, cs) })
	for l := levelAVX2; l <= level; l++ {
		var asm map[string][]float64
		atLevel(l, func() { asm = runLanes(lc, pools, cs) })
		for name, want := range ref {
			if chains[name] {
				for i, v := range want {
					if math.IsNaN(v) && math.IsNaN(asm[name][i]) {
						want[i] = asm[name][i]
					}
				}
			}
			if i := bitsEqual(asm[name], want); i >= 0 {
				t.Fatalf("%s %+v at %s: [%d] asm %#x go %#x", name, lc, levelNames[l], i,
					math.Float64bits(asm[name][i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestLanesMatchGo holds every epilogue lane to its Go loop bit for bit,
// at every assembly level the CPU has, over the Spatial sizes of the
// models (and every tail length), channel counts (a four-channel block, a
// count that ends in an overlapping block, and the counts below a block
// that the Go loops run), image counts and operand alignments.
func TestLanesMatchGo(t *testing.T) {
	needAsm(t)
	g := rng.New(307)
	pools, consts := lanePools(g, 3*8*144*2+8, 8)
	for _, s := range []int{1, 2, 3, 4, 5, 9, 16, 36, 64, 144} {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 8} {
			for _, n := range []int{1, 2, 3} {
				for _, off := range []int{0, 1, 2, 3} {
					checkLanesMatchGo(t, laneCase{n, c, s, off}, pools, consts)
				}
			}
		}
	}
}

// FuzzLanes explores the same comparison over arbitrary shapes, offsets
// and operand bits.
func FuzzLanes(f *testing.F) {
	for i, s := range []int{1, 2, 3, 4, 5, 9, 16, 36, 64, 144} {
		f.Add(1+i%3, 1+i%5, s, i%4, uint64(i))
	}
	f.Fuzz(func(t *testing.T, n, c, s, off int, seed uint64) {
		if n < 1 || n > 8 || c < 1 || c > 16 || s < 1 || s > 160 || off < 0 || off > 7 {
			t.Skip()
		}
		needAsm(t)
		pools, consts := lanePools(rng.New(seed), 2*n*c*s+8*c+8, c)
		checkLanesMatchGo(t, laneCase{n, c, s, off}, pools, consts)
	})
}

// TestLanesPanicOnBadLengths: every wrapper checks its operands before a
// pointer reaches assembly.
func TestLanesPanicOnBadLengths(t *testing.T) {
	buf := func(n int) []float64 { return make([]float64, n) }
	k2, k3 := buf(2), buf(3)
	grad := func(sumDy []float64) *BNGrad {
		return &BNGrad{Mean: k2, Inv: k2, Gamma: k2, Beta: k2, K: k2, SumDy: sumDy, SumDyXhat: k2, M: 1}
	}
	// Two images of two channels of three elements: x [2, 6] channel-major
	// at stride 6 is 12 long, 9 at stride 6 with no gap after its last row.
	for name, call := range map[string]func(){
		"train short out":   func() { BNTrainRows(buf(11), buf(12), 6, 2, 2, 3, true, k2, k2, k2, k2) },
		"train short x":     func() { BNTrainRows(buf(12), buf(11), 6, 2, 2, 3, true, k2, k2, k2, k2) },
		"train stride":      func() { BNTrainRows(buf(12), buf(12), 5, 2, 2, 3, true, k2, k2, k2, k2) },
		"train constants":   func() { BNTrainRows(buf(12), buf(12), 6, 2, 2, 3, false, k2, k3, k2, k2) },
		"infer short out":   func() { BNInferRows(buf(6), buf(12), 6, 2, 2, 3, false, k2, k2, k2, k2) },
		"infer short x":     func() { BNInferRows(buf(12), buf(8), 6, 2, 2, 3, false, k2, k2, k2, k2) },
		"grad short dYT":    func() { BNGradRows(buf(12), buf(6), k2, buf(12), 6, buf(12), 2, 2, 3, true, grad(k2)) },
		"grad short dy":     func() { BNGradRows(buf(12), buf(12), k2, buf(12), 6, buf(11), 2, 2, 3, true, grad(k2)) },
		"grad bias":         func() { BNGradRows(buf(12), buf(12), k3, buf(12), 6, buf(12), 2, 2, 3, true, grad(k2)) },
		"grad constants":    func() { BNGradRows(buf(12), buf(12), k2, buf(12), 6, buf(12), 2, 2, 3, true, grad(k3)) },
		"sums short dy":     func() { BNGradSums(grad(k2), buf(12), 6, buf(11), 2, 2, 3, true) },
		"sums short x":      func() { BNGradSums(grad(k2), buf(8), 6, buf(12), 2, 2, 3, true) },
		"sums constants":    func() { BNGradSums(grad(k3), buf(12), 6, buf(12), 2, 2, 3, true) },
		"train no channels": func() { BNTrainRows(buf(12), buf(12), 6, 2, 0, 3, false, nil, nil, nil, nil) },
		"add relu":          func() { AddReLU(New(3), New(3), New(2)) },
		"fill short":        func() { FillRows(buf(11), 6, 6, k2) },
		"fill stride":       func() { FillRows(buf(12), 5, 6, k2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}
