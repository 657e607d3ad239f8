package tensor

import (
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
// offset, so vectors start at every alignment.
type laneCase struct {
	n, c, s, off int
}

// runLanes calls every epilogue lane on one case and returns what each
// wrote, keyed by pass.
func runLanes(lc laneCase, pools [6][]float64, consts [5][]float64) map[string][]float64 {
	feat := lc.c * lc.s
	size := lc.n * feat
	in := func(i int) []float64 { return pools[i][lc.off:][:size] }
	out := map[string][]float64{}
	fresh := func(name string) []float64 {
		d := make([]float64, size+lc.off)[lc.off:]
		for i := range d {
			d[i] = math.Float64frombits(0x7ff8_dead_0000_0000) // must be overwritten
		}
		out[name] = d
		return d
	}
	xhat, o := fresh("train xhat"), fresh("train out")
	BatchNormTrain(xhat, o, in(0), lc.c, lc.s, consts[0], consts[1], consts[2], consts[3])
	BatchNormInfer(fresh("infer"), in(0), lc.c, lc.s, consts[2], consts[0], consts[1], consts[3])
	BatchNormInputGrad(fresh("input grad"), in(1), in(2), lc.c, lc.s, consts[4][0], consts[4][:lc.c], consts[0], consts[1])
	// The bias copy-out reads a [C, srcStride] product whose rows hold n
	// images side by side and end in a gap.
	AddChannelBias(fresh("bias"), pools[3][lc.off:], lc.n, lc.c, lc.s, lc.n*lc.s+lc.off, consts[3])
	ReLU(FromSlice(fresh("relu"), size), FromSlice(in(4), size))
	ReLUBackward(FromSlice(fresh("relu backward"), size), FromSlice(in(1), size), FromSlice(in(4), size))
	Add(FromSlice(fresh("add"), size), FromSlice(in(4), size), FromSlice(in(5), size))
	return out
}

func lanePools(g *rng.RNG, maxLen, maxC int) (pools [6][]float64, consts [5][]float64) {
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

func checkLanesMatchGo(t *testing.T, lc laneCase, pools [6][]float64, consts [5][]float64) {
	t.Helper()
	cs := consts
	for i := 0; i < 4; i++ {
		cs[i] = consts[i][:lc.c]
	}
	asm := runLanes(lc, pools, cs)
	var ref map[string][]float64
	withGoKernel(func() { ref = runLanes(lc, pools, cs) })
	for name, want := range ref {
		if i := bitsEqual(asm[name], want); i >= 0 {
			t.Fatalf("%s %+v: [%d] asm %#x go %#x", name, lc, i, math.Float64bits(asm[name][i]), math.Float64bits(want[i]))
		}
	}
}

// TestLanesMatchGo holds every epilogue lane to its Go loop bit for bit
// over the Spatial sizes of the models (and every tail length), channel
// counts, image counts and operand alignments.
func TestLanesMatchGo(t *testing.T) {
	needAsm(t)
	g := rng.New(307)
	pools, consts := lanePools(g, 3*5*144*2+8, 5)
	for _, s := range []int{1, 2, 3, 4, 5, 9, 16, 36, 64, 144} {
		for _, c := range []int{1, 2, 3, 5} {
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
	for name, call := range map[string]func(){
		"train short out":   func() { BatchNormTrain(buf(12), buf(11), buf(12), 2, 3, k2, k2, k2, k2) },
		"train ragged x":    func() { BatchNormTrain(buf(13), buf(13), buf(13), 2, 3, k2, k2, k2, k2) },
		"train constants":   func() { BatchNormTrain(buf(12), buf(12), buf(12), 2, 3, k2, k3, k2, k2) },
		"infer short out":   func() { BatchNormInfer(buf(6), buf(12), 2, 3, k2, k2, k2, k2) },
		"grad short xhat":   func() { BatchNormInputGrad(buf(12), buf(12), buf(6), 2, 3, 1, k2, k2, k2) },
		"grad constants":    func() { BatchNormInputGrad(buf(12), buf(12), buf(12), 2, 3, 1, k2, k3, k2) },
		"bias short src":    func() { AddChannelBias(buf(12), buf(11), 2, 2, 3, 6, k2) },
		"bias short dst":    func() { AddChannelBias(buf(11), buf(12), 2, 2, 3, 6, k2) },
		"bias constants":    func() { AddChannelBias(buf(12), buf(12), 2, 2, 3, 6, k3) },
		"train no channels": func() { BatchNormTrain(buf(12), buf(12), buf(12), 0, 3, nil, nil, nil, nil) },
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
