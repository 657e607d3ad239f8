package tensor

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
)

// tapPixel is the definition lower and scatter are held to, with no table:
// the offset inside a channel plane of the pixel tap (ky, kx) reads at
// output pixel (oy, ox), or false in the padding.
func tapPixel(g ConvGeom, ky, kx, oy, ox int) (int, bool) {
	iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
	if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
		return 0, false
	}
	return iy*g.InW + ix, true
}

// guarded carves n floats out of a larger backing slice whose margins hold
// a recognisable NaN; check reports a store outside the window.
type guarded struct {
	all []float64
	win []float64
	lo  int // where win starts in all
}

const (
	guardBand   = 67
	guardPoison = 0x7ff8_0bad_0bad_0bad
)

func newGuarded(n int) guarded { return newGuardedAt(n, 0) }

// newGuardedAt is newGuarded with off more floats of margin before the
// window, which moves the window's alignment.
func newGuardedAt(n, off int) guarded {
	lo := guardBand + off
	all := make([]float64, lo+n+guardBand)
	for i := range all {
		all[i] = math.Float64frombits(guardPoison)
	}
	return guarded{all: all, win: all[lo : lo+n : lo+n], lo: lo}
}

func (b guarded) check(t *testing.T, what string) {
	t.Helper()
	for _, band := range [][]float64{b.all[:b.lo], b.all[b.lo+len(b.win):]} {
		for _, v := range band {
			if math.Float64bits(v) != guardPoison {
				t.Fatalf("%s: store outside its window", what)
			}
		}
	}
}

// poison fills every slice with NaN.
func poison(ss ...[]float64) {
	for _, s := range ss {
		for i := range s {
			s[i] = math.NaN()
		}
	}
}

// defaultNaN is the NaN the hardware makes for Inf−Inf (and 0·Inf), formed
// at run time so that its bits are the machine's, not the compiler's.
var defaultNaN = sub(math.Inf(1), math.Inf(1))

//go:noinline
func sub(a, b float64) float64 { return a - b }

func wantBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzConvLowering holds lower, the scatter, InputGrad, Forward and
// WeightGrad, one image at a time and a group at a time as Conv2D calls
// them (a batch of n images ends in a short group), to the scalar
// definition bit for bit, on every geometry: every panel entry is the
// pixel tapPixel names or +0; the scatter adds every dx pixel's
// contributions taps descending, columns ascending (order 4), on a zeroed
// dx and on one already holding values, −0 among them; dPanel's padding
// entries, poisoned, reach no pixel and come back as −0, its other entries
// survive; InputGrad writes over a dirty dx what order 4 builds from +0 out
// of each contribution's oc chain, and leaves dY as it was; Forward adds to
// a y whose rows hold a bias, from a lowering whose scratch holds NaN, what
// order 1 builds from +0 with the panel's +0 on every padding tap, leaving
// the poisoned gaps between y's rows as they were; WeightGrad, with
// Forward and InputGrad run on the same lowering in between and its panel
// and stage poisoned with NaN after Forward, adds onto a dirty wGrad what
// order 2 builds — per image in batch order, Σ_p from +0 over the panel's
// operands — with NaN, ±Inf and −0 in x, and leaves x and dYT as they
// were; and nothing is stored outside panel, dx, y and wGrad.
func FuzzConvLowering(f *testing.F) {
	// Every convolution of the four profiles' networks (trainer.QuickCIFAR,
	// trainer.QuickImageNet, model.ResNetLite18, model.ResNetLite50), so
	// plain go test runs the same-size and the gather geometries.
	for _, p := range []struct {
		in, stem int
		reps     []int
	}{{8, 6, []int{1, 1, 1}}, {12, 8, []int{1, 1, 1}}, {8, 8, []int{2, 2, 2}}, {12, 12, []int{3, 4, 3}}} {
		geoms, outCs := resnetConvs(p.in, p.stem, p.reps)
		for i, g := range geoms {
			f.Add(g.InC, g.InH, g.InW, g.KH, g.KW, g.Stride, g.Pad, outCs[i], 5+i, uint64(i))
		}
	}
	// Rectangles, kernels wider than the image, a group of one image.
	f.Add(2, 5, 7, 3, 5, 1, 2, 3, 4, uint64(1))
	f.Add(1, 2, 2, 5, 5, 1, 2, 2, 3, uint64(2))
	f.Add(3, 7, 4, 2, 3, 3, 1, 40, 9, uint64(3))
	f.Add(64, 12, 12, 3, 3, 1, 1, 4, 3, uint64(4))
	f.Fuzz(func(t *testing.T, inC, inH, inW, kh, kw, stride, pad, outC, n int, seed uint64) {
		g := ConvGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad}
		if g.Validate() != nil || outC < 1 || outC > 64 || n < 1 || n > 32 ||
			inC > 64 || inH > 16 || inW > 16 || kh > 5 || kw > 5 || stride > 3 || pad > 2 {
			t.Skip()
		}
		low := NewConvLowering(g, outC)
		k, hw, kk, plane := g.ColCols(), g.ColRows(), kh*kw, inH*inW
		inFeat := inC * plane
		r := rng.New(seed)
		x := make([]float64, n*inFeat)
		r.FillNormal(x, 1)
		for i := range x { // bits are copied, whatever they are
			switch r.Intn(16) {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = math.NaN()
			case 2:
				x[i] = math.Inf(-1)
			}
		}
		for _, group := range []int{1, low.Group()} {
			zeroed, dirty := newGuarded(n*inFeat), newGuarded(n*inFeat)
			clear(zeroed.win)
			r.FillNormal(dirty.win, 1)
			for i := range dirty.win {
				if r.Intn(4) == 0 {
					dirty.win[i] = math.Copysign(0, -1)
				}
			}
			wantZeroed := append([]float64(nil), zeroed.win...)
			wantDirty := append([]float64(nil), dirty.win...)
			for i0 := 0; i0 < n; i0 += group {
				m := min(group, n-i0)
				cols := m * hw
				xs := x[i0*inFeat : (i0+m)*inFeat]

				panel := newGuarded(k * cols)
				low.tab.lower(panel.win, xs, m, g)
				panel.check(t, "lower")
				want := make([]float64, k*cols)
				for c := 0; c < inC; c++ {
					for tap := 0; tap < kk; tap++ {
						row := want[(c*kk+tap)*cols:][:cols]
						for q := range row {
							p := q % hw
							if pix, ok := tapPixel(g, tap/kw, tap%kw, p/g.OutW(), p%g.OutW()); ok {
								row[q] = xs[(q/hw*inC+c)*plane+pix]
							}
						}
					}
				}
				wantBits(t, "panel", panel.win, want)

				dPanel := newGuarded(k * cols)
				r.FillNormal(dPanel.win, 1)
				for _, dx := range []struct{ got, want []float64 }{
					{zeroed.win[i0*inFeat:], wantZeroed[i0*inFeat:]},
					{dirty.win[i0*inFeat:], wantDirty[i0*inFeat:]},
				} {
					// The reference accumulates in order 4 and poisons the
					// padding entries it skips.
					for c := 0; c < inC; c++ {
						for tap := kk - 1; tap >= 0; tap-- {
							row := dPanel.win[(c*kk+tap)*cols:][:cols]
							for q := range row {
								p := q % hw
								if pix, ok := tapPixel(g, tap/kw, tap%kw, p/g.OutW(), p%g.OutW()); ok {
									dx.want[(q/hw*inC+c)*plane+pix] += row[q]
								} else {
									row[q] = math.NaN()
								}
							}
						}
					}
					kept := append([]float64(nil), dPanel.win...)
					low.tab.scatter(dx.got[:m*inFeat], dPanel.win, m, g)
					dPanel.check(t, "Scatter (dPanel)")
					for j, v := range kept {
						if math.IsNaN(v) {
							v = math.Copysign(0, -1)
						}
						if math.Float64bits(dPanel.win[j]) != math.Float64bits(v) {
							t.Fatalf("dPanel[%d] = %v after Scatter, want %v", j, dPanel.win[j], v)
						}
					}
				}
			}
			zeroed.check(t, "Scatter (zeroed dx)")
			dirty.check(t, "Scatter (dirty dx)")
			wantBits(t, "dx from zero", zeroed.win, wantZeroed)
			wantBits(t, "dx accumulated", dirty.win, wantDirty)
		}

		// InputGrad from w and the per-image output gradient gy [n, OutC,
		// HW], both salted with zeros of either sign; Forward from w and x.
		w, gy := make([]float64, k*outC), make([]float64, n*outC*hw)
		for _, s := range [][]float64{w, gy} {
			r.FillNormal(s, 1)
			for i := range s {
				switch r.Intn(8) {
				case 0:
					s[i] = 0
				case 1:
					s[i] = math.Copysign(0, -1)
				}
			}
		}
		want := make([]float64, n*inFeat)
		for i := 0; i < n; i++ {
			for c := 0; c < inC; c++ {
				for tap := kk - 1; tap >= 0; tap-- {
					for p := 0; p < hw; p++ {
						pix, ok := tapPixel(g, tap/kw, tap%kw, p/g.OutW(), p%g.OutW())
						if !ok {
							continue
						}
						s := 0.0
						for oc := 0; oc < outC; oc++ {
							s += w[(c*kk+tap)*outC+oc] * gy[(i*outC+oc)*hw+p]
						}
						want[(i*inC+c)*plane+pix] += s
					}
				}
			}
		}
		// Order 1 from +0, the panel's +0 multiplied in on every padding
		// tap; image i's columns of y are [i*HW, (i+1)*HW). x's NaNs become
		// +Inf here: a chain's NaN is then the one 0·Inf and Inf−Inf make,
		// whose bits do not depend on which operand of an addition the
		// compiler keeps. NaN still reaches every lane a same-size Forward
		// must mask: the stage is poisoned with it.
		xf := append([]float64(nil), x...)
		for i, v := range xf {
			if math.IsNaN(v) {
				xf[i] = math.Inf(1)
			}
		}
		wantY := make([]float64, n*outC*hw)
		for i := 0; i < n; i++ {
			for oc := 0; oc < outC; oc++ {
				for p := 0; p < hw; p++ {
					s := 0.0
					for c := 0; c < inC; c++ {
						for tap := 0; tap < kk; tap++ {
							v := 0.0
							if pix, ok := tapPixel(g, tap/kw, tap%kw, p/g.OutW(), p%g.OutW()); ok {
								v = xf[(i*inC+c)*plane+pix]
							}
							s += w[(c*kk+tap)*outC+oc] * v
						}
					}
					wantY[(i*outC+oc)*hw+p] = s
				}
			}
		}
		bias := make([]float64, outC)
		r.FillNormal(bias, 1)
		for _, group := range []int{1, low.Group()} {
			for i0 := 0; i0 < n; i0 += group {
				m := min(group, n-i0)
				cols := m * hw
				ldy := cols + i0%3 // rows with a poisoned gap between them, or none
				y := newGuarded(outC*ldy - (ldy - cols))
				for j := range y.win {
					y.win[j] = math.Float64frombits(guardPoison)
				}
				for oc, b := range bias {
					for j := range cols {
						y.win[oc*ldy+j] = b
					}
				}
				poison(low.stage, low.dPanel)
				low.Forward(y.win, ldy, w, xf[i0*inFeat:(i0+m)*inFeat], m)
				y.check(t, "Forward")
				for oc, b := range bias {
					for i := 0; i < m; i++ {
						want := make([]float64, hw)
						for p, v := range wantY[((i0+i)*outC+oc)*hw:][:hw] {
							want[p] = b + v
						}
						wantBits(t, fmt.Sprintf("Forward y (group %d, image %d, channel %d)", group, i0+i, oc),
							y.win[oc*ldy+i*hw:][:hw], want)
					}
					for _, v := range y.win[min(oc*ldy+cols, len(y.win)):min((oc+1)*ldy, len(y.win))] {
						if math.Float64bits(v) != guardPoison {
							t.Fatalf("Forward stored between rows %d and %d", oc, oc+1)
						}
					}
				}
			}
		}
		// Order 2 from the panel's operands: one addend per image in batch
		// order onto a dirty wGrad, each Σ_p from +0. x's NaNs are the
		// default NaN here, the one 0·Inf and Inf−Inf make, so every NaN a
		// chain can meet has the same bits, whichever operand of an
		// addition the compiler keeps; +Inf joins x's −Inf.
		xw := append([]float64(nil), x...)
		for i, v := range xw {
			if math.IsNaN(v) {
				xw[i] = defaultNaN
			} else if r.Intn(16) == 0 {
				xw[i] = math.Inf(1)
			}
		}
		w0 := make([]float64, k*outC)
		r.FillNormal(w0, 1)
		for i := range w0 {
			if r.Intn(4) == 0 {
				w0[i] = math.Copysign(0, -1)
			}
		}
		wantW := append([]float64(nil), w0...)
		for i := 0; i < n; i++ {
			for c := 0; c < inC; c++ {
				for tap := 0; tap < kk; tap++ {
					for oc := 0; oc < outC; oc++ {
						s := 0.0
						for p := 0; p < hw; p++ {
							v := 0.0
							if pix, ok := tapPixel(g, tap/kw, tap%kw, p/g.OutW(), p%g.OutW()); ok {
								v = xw[(i*inC+c)*plane+pix]
							}
							s += v * gy[(i*outC+oc)*hw+p]
						}
						wantW[(c*kk+tap)*outC+oc] += s
					}
				}
			}
		}
		for _, group := range []int{1, low.Group()} {
			wGrad := newGuarded(k * outC)
			copy(wGrad.win, w0)
			for i0 := 0; i0 < n; i0 += group {
				m := min(group, n-i0)
				cols := m * hw
				dY := make([]float64, outC*cols)
				dYT := make([]float64, cols*outC)
				for i := 0; i < m; i++ {
					for oc := 0; oc < outC; oc++ {
						copy(dY[oc*cols+i*hw:][:hw], gy[((i0+i)*outC+oc)*hw:])
						for p := 0; p < hw; p++ {
							dYT[(i*hw+p)*outC+oc] = gy[((i0+i)*outC+oc)*hw+p]
						}
					}
				}
				// Forward stages or lowers x in the lowering too; neither
				// backward call may read what it leaves.
				low.Forward(make([]float64, outC*cols), cols, w, x[i0*inFeat:(i0+m)*inFeat], m)
				poison(low.stage, low.dPanel)
				xs := xw[i0*inFeat : (i0+m)*inFeat]
				keptX, keptT := append([]float64(nil), xs...), append([]float64(nil), dYT...)
				low.WeightGrad(wGrad.win, xs, dYT, m)
				wantBits(t, "WeightGrad x", xs, keptX)
				wantBits(t, "WeightGrad dYT", dYT, keptT)
				kept := append([]float64(nil), dY...)
				dx := newGuarded(m * inFeat)
				r.FillNormal(dx.win, 1)
				for i := range dx.win {
					if r.Intn(4) == 0 {
						dx.win[i] = math.Copysign(0, -1)
					}
				}
				low.InputGrad(dx.win, w, dY, m)
				dx.check(t, "InputGrad")
				wantBits(t, fmt.Sprintf("InputGrad dx (group %d, images %d..)", group, i0), dx.win, want[i0*inFeat:(i0+m)*inFeat])
				wantBits(t, "InputGrad dY", dY, kept)
			}
			wGrad.check(t, "WeightGrad")
			wantBits(t, fmt.Sprintf("WeightGrad (group %d)", group), wGrad.win, wantW)
		}
	})
}
