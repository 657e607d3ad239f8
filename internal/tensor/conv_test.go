package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
)

func TestConvGeomDerived(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-padding 3x3: out %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if g2.OutH() != 4 || g2.OutW() != 4 {
		t.Fatalf("stride-2: out %dx%d", g2.OutH(), g2.OutW())
	}
	if g.ColRows() != 64 || g.ColCols() != 27 {
		t.Fatalf("col dims %dx%d", g.ColRows(), g.ColCols())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

// naiveConv performs direct convolution of one image with one filter for
// cross-checking the im2col path.
func naiveConv(img []float64, w []float64, g ConvGeom) []float64 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float64, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := 0.0
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						iy := oy*g.Stride - g.Pad + ky
						ix := ox*g.Stride - g.Pad + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						s += img[c*g.InH*g.InW+iy*g.InW+ix] * w[c*g.KH*g.KW+ky*g.KW+kx]
					}
				}
			}
			out[oy*outW+ox] = s
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
	}
	for gi, g := range geoms {
		r := rng.New(uint64(gi) + 100)
		img := make([]float64, g.InC*g.InH*g.InW)
		w := make([]float64, g.ColCols())
		r.FillNormal(img, 1)
		r.FillNormal(w, 1)
		col := make([]float64, g.ColRows()*g.ColCols())
		Im2Col(col, img, g)
		// conv = wᵀ @ panel (treat w as a single output filter): the panel
		// is channel-major [ColCols, ColRows].
		panel := FromSlice(col, g.ColCols(), g.ColRows())
		wT := FromSlice(w, g.ColCols(), 1)
		got := mulTA(wT, panel)
		want := naiveConv(img, w, g)
		for i := range want {
			if math.Abs(got.Data[i]-want[i]) > 1e-10 {
				t.Fatalf("geom %d: im2col conv mismatch at %d: %v vs %v", gi, i, got.Data[i], want[i])
			}
		}
	}
}

// TestCol2ImIsAdjoint checks <Im2Col(x), y> == <x, Col2Im(y)> — the defining
// property of an adjoint pair, which is exactly what backprop requires. The
// inner product is layout-blind, so the geometries cover what the layout
// touches: padding, stride, a pad-free kernel and a non-square image.
func TestCol2ImIsAdjoint(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 1, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 0},
	}
	f := func(seed uint64) bool {
		g := geoms[seed%uint64(len(geoms))]
		r := rng.New(seed)
		x := make([]float64, g.InC*g.InH*g.InW)
		y := make([]float64, g.ColRows()*g.ColCols())
		r.FillNormal(x, 1)
		r.FillNormal(y, 1)

		colX := make([]float64, len(y))
		Im2Col(colX, x, g)
		lhs := 0.0
		for i := range y {
			lhs += colX[i] * y[i]
		}

		imY := make([]float64, len(x))
		Col2Im(imY, y, g)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * imY[i]
		}
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := make([]float64, g.ColRows()*g.ColCols())
	for i := range col {
		col[i] = 1
	}
	dst := make([]float64, 16)
	dst[0] = 5 // pre-existing content must be preserved (accumulation)
	Col2Im(dst, col, g)
	// Corner pixel participates in 4 kernel positions; center in all 9.
	if dst[0] != 5+4 {
		t.Fatalf("Col2Im must accumulate, got dst[0]=%v, want 9", dst[0])
	}
	if center := dst[1*4+1]; center != 9 {
		t.Fatalf("center accumulation = %v, want 9", center)
	}
	// Row r of the channel-major panel is one tap: the centre tap (1,1)
	// reads pixel p at output pixel p, so its row alone scatters back as the
	// identity.
	for i := range col {
		col[i] = 0
	}
	hw := g.ColRows()
	for p := 0; p < hw; p++ {
		col[4*hw+p] = float64(p + 1)
	}
	for i := range dst {
		dst[i] = 0
	}
	Col2Im(dst, col, g)
	for p, v := range dst {
		if v != float64(p+1) {
			t.Fatalf("centre-tap row scattered to dst[%d]=%v, want %d", p, v, p+1)
		}
	}
}

// TestConvLoweringGroupLayout pins the group panel's layout against the
// single-image entries: column block i of the [ColCols, n*HW] panel is image
// i's own panel, the group scatter is Col2Im image by image, and WeightGrad
// adds each image's panel·dYᵀ in batch order (reading x, with dY given
// transposed).
func TestConvLoweringGroupLayout(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n, outC = 3, 4
	k, hw, inFeat := g.ColCols(), g.ColRows(), g.InC*g.InH*g.InW
	cols := n * hw
	r := rng.New(41)
	x := make([]float64, n*inFeat)
	r.FillNormal(x, 1)
	low := NewConvLowering(g, outC)

	panel := make([]float64, k*cols)
	low.tab.lower(panel, x, n, g)
	single := make([]float64, k*hw)
	for i := 0; i < n; i++ {
		Im2Col(single, x[i*inFeat:(i+1)*inFeat], g)
		for row := 0; row < k; row++ {
			for p := 0; p < hw; p++ {
				if got, want := panel[row*cols+i*hw+p], single[row*hw+p]; got != want {
					t.Fatalf("panel[%d, image %d pixel %d] = %v, want %v", row, i, p, got, want)
				}
			}
		}
	}

	dPanel := make([]float64, k*cols)
	r.FillNormal(dPanel, 1)
	dx := make([]float64, n*inFeat)
	low.tab.scatter(dx, dPanel, n, g)
	want := make([]float64, inFeat)
	for i := 0; i < n; i++ {
		for row := 0; row < k; row++ {
			copy(single[row*hw:(row+1)*hw], dPanel[row*cols+i*hw:][:hw])
		}
		for j := range want {
			want[j] = 0
		}
		Col2Im(want, single, g)
		for j, w := range want {
			if got := dx[i*inFeat+j]; got != w {
				t.Fatalf("Scatter image %d pixel %d = %v, want %v", i, j, got, w)
			}
		}
	}

	dY := make([]float64, outC*cols)
	r.FillNormal(dY, 1)
	wGrad := make([]float64, k*outC)
	r.FillNormal(wGrad, 1)
	wantW := append([]float64(nil), wGrad...)
	for i := 0; i < n; i++ {
		for row := 0; row < k; row++ {
			for oc := 0; oc < outC; oc++ {
				s := 0.0
				for p := 0; p < hw; p++ {
					s += panel[row*cols+i*hw+p] * dY[oc*cols+i*hw+p]
				}
				wantW[row*outC+oc] += s
			}
		}
	}
	dYT := make([]float64, cols*outC)
	for oc := 0; oc < outC; oc++ {
		for q := 0; q < cols; q++ {
			dYT[q*outC+oc] = dY[oc*cols+q]
		}
	}
	low.WeightGrad(wGrad, x, dYT, n)
	for j, w := range wantW {
		if wGrad[j] != w {
			t.Fatalf("WeightGrad[%d] = %v, want %v", j, wGrad[j], w)
		}
	}
}

// TestConvTableSharedPerGeometry: lowerings of one geometry share one index
// table, whatever their layer's width.
func TestConvTableSharedPerGeometry(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	a, b := NewConvLowering(g, 4), NewConvLowering(g, 9)
	if a.tab != b.tab {
		t.Fatal("two lowerings of one geometry built two tables")
	}
	g.Pad = 0
	if c := NewConvLowering(g, 4); c.tab == a.tab {
		t.Fatal("different geometries share a table")
	}
}

// TestIm2ColPanicsOnBadSizes: a panel or image of the wrong length, and a
// group wider than the table (which would read the next tap's offsets),
// panic before anything is written.
func TestIm2ColPanicsOnBadSizes(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	tab := convTableFor(g)
	n := tab.width + 1
	// dst starts at zero and src at one, so any store shows.
	for name, c := range map[string]struct {
		call     func(dst, src []float64)
		dst, src int
	}{
		"short panel":            {func(dst, src []float64) { Im2Col(dst, src, g) }, 3, 16},
		"lower past the table":   {func(dst, src []float64) { tab.lower(dst, src, n, g) }, n * g.ColRows() * g.ColCols(), n * 16},
		"scatter past the table": {func(dst, src []float64) { tab.scatter(dst, src, n, g) }, n * 16, n * g.ColRows() * g.ColCols()},
	} {
		dst, src := make([]float64, c.dst), make([]float64, c.src)
		for i := range src {
			src[i] = 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			c.call(dst, src)
		}()
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("%s: dst[%d] written before the panic", name, i)
			}
		}
	}
}
