package tensor

import (
	"fmt"
	"math"
	"sync"
)

// ConvGeom describes the geometry of a 2-D convolution: input channels and
// spatial size, kernel size, stride, and zero padding. Output spatial size is
// derived. Kernels and inputs may be rectangular (the paper's networks use
// square 3×3/1×1 kernels on square feature maps; FuzzConvLowering covers
// the rest).
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride        int
	Pad           int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// ColRows returns the number of output pixels of one image, OutH*OutW: the
// panel columns one image contributes.
func (g ConvGeom) ColRows() int { return g.OutH() * g.OutW() }

// ColCols returns the number of kernel taps, InC*KH*KW: the panel rows.
func (g ConvGeom) ColCols() int { return g.InC * g.KH * g.KW }

// Validate checks the geometry is self-consistent.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive dims: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("tensor: conv pad must be non-negative, got %d", g.Pad)
	}
	if g.InH+2*g.Pad < g.KH || g.InW+2*g.Pad < g.KW {
		return fmt.Errorf("tensor: kernel larger than padded input: %+v", g)
	}
	return nil
}

// Convolution lowers to matrix products over a channel-major panel
// [ColCols, n*ColRows]: row r = (c, ky, kx) is one kernel tap, column
// (i, oy, ox) is one output pixel of image i of a group of n images, and
// the entry is the input pixel that tap reads there (0 where it falls in
// the padding). With W [ColCols, OutC]:
//
//	forward          Y  [OutC, n*HW]   += Wᵀ @ panel    (Forward)
//	input gradient   dx                 ← W @ dY        (InputGrad)
//	weight gradient  W.Grad[r, oc]     += panel[r]·dY[oc], image by image (WeightGrad)
//
// Rows of Y are already the layer's channel-major output, and every inner
// loop of the products runs along a row n*HW long. Which loops form the
// panel's operands is the lowering's decision, made from the geometry
// alone; its callers pass the same arguments for every geometry. Only a
// gather geometry's Forward and InputGrad write a panel. A same-size
// geometry reads panel row (c, tap) as channel c's staged row at the tap's
// shift, its padding lanes masked to +0, and adds each tap's W·dY straight
// into the staged input gradient. WeightGrad reads panel entry (r, p) of
// image i at rowOff[r]+pOff[p] in image i's channels copied into planes
// with a +0 border Pad wide.

// convPanelFloats bounds the panel of a group (64 KiB; a gather-geometry
// lowering holds one, for the forward's lowered input and then the input
// gradient's W @ dY). Budgets of 4-16 Ki measured alike end to end on both
// quick profiles — rows are long enough from about 64 columns on — so the
// budget is set by memory per replica, not speed.
const convPanelFloats = 8 * 1024

// convTable is what a geometry's lowering derives from it, built once and
// shared.
//
// lower and scatter move a panel row — one tap (c, ky, kx) over a group's
// output pixels — with one loop that knows nothing of padding, through
// idx, [KH*KW][width*HW]: the offset the pixel column (i, p) reads,
// relative to channel c of the group's first image. A padding entry holds
// the offset of its image's plane, so it is always in bounds. pad[tap]
// lists the tap's padding columns for width images, image by image
// (npad[tap] per image), so a narrower group uses a prefix: lower stores +0
// there after the fill, which makes the panel bytes those of the
// definition.
//
// A same-size geometry (Stride 1, output plane = input plane: every 3×3
// pad-1 conv) has shift != nil: output pixel p of tap (ky, kx) reads input
// pixel p + shift[tap], shift = (ky−Pad)·InW + (kx−Pad), so an image's
// stretch of a panel row is its channel plane shifted, and the whole row
// the group's planes of that channel, side by side, shifted. Forward and
// InputGrad work on that layout and write no panel:
//
//   - InputGrad's masked dY moves, taps descending, from the padding
//     columns of one tap that reaches a pixel to the next one's: maskOn[tap]
//     lists the columns to zero and maskOff[tap] those to restore, for one
//     image (every image has the same).
//   - Forward stages x channel-major, channel c's group row at
//     c*rowStride+guard with guard floats before and after it, where guard
//     = Pad*InW+Pad bounds every |shift|; fwdTab holds mmKernelShift's row
//     pairs for p = (c, tap) ascending — the staged row at the tap's shift
//     and the tap's row of lanes, width*HW lane masks that are all ones but
//     +0 on pad[tap].
//
// WeightGrad (every geometry) reads one image at a time from planes of
// (InH+2Pad)×(InW+2Pad), pp floats each, whose border holds +0: wRows's
// row r = (c, ky, kx) starts at c*pp + ky*pw + kx and output pixel
// p = (oy, ox) adds oy*Stride*pw + ox*Stride, pw = InW+2Pad, which lands
// on input pixel (oy*Stride−Pad+ky, ox*Stride−Pad+kx) or on the border
// exactly where that pixel is padding.
type convTable struct {
	width int     // images idx and pad cover: the panel budget's group
	idx   []int32 // every geometry
	pad   [][]int32
	npad  []int

	shift            []int // same-size geometries only, as the rest below
	maskOn, maskOff  [][]int32
	guard, rowStride int
	lanes            []uint64
	fwdTab           []int

	wRows *rowTable // every geometry
}

// shiftRange returns the positions [lo, hi) of a block of n elements that
// stay inside it when shifted by d, |d| < n.
func shiftRange(d, n int) (lo, hi int) { return max(0, -d), min(n, n-d) }

// Tables depend on the geometry alone, so replicas and eval nets of one
// model share them the way data.GenerateCached shares datasets.
var (
	convMu     sync.Mutex
	convTables = map[ConvGeom]*convTable{}
)

func convTableFor(g ConvGeom) *convTable {
	convMu.Lock()
	defer convMu.Unlock()
	if t := convTables[g]; t != nil {
		return t
	}
	outH, outW := g.OutH(), g.OutW()
	hw, kk, plane := outH*outW, g.KH*g.KW, g.InH*g.InW
	t := &convTable{
		width: max(convPanelFloats/(g.ColCols()*hw), 1),
		pad:   make([][]int32, kk),
		npad:  make([]int, kk),
	}
	t.idx = make([]int32, kk*t.width*hw)
	if g.Stride == 1 && outH == g.InH && outW == g.InW {
		t.shift = make([]int, kk)
	}
	for ky := 0; ky < g.KH; ky++ {
		for kx := 0; kx < g.KW; kx++ {
			tap := ky*g.KW + kx
			if t.shift != nil {
				// A shift of a plane or more (a kernel wider than the
				// image) meets no pixel; the row is all padding, so any
				// in-bounds shift does and 0 stays.
				if d := (ky-g.Pad)*g.InW + kx - g.Pad; -hw < d && d < hw {
					t.shift[tap] = d
				}
			}
			for i := 0; i < t.width; i++ {
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride - g.Pad + ky
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride - g.Pad + kx
						q := i*hw + oy*outW + ox
						off := i * g.InC * plane
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							t.pad[tap] = append(t.pad[tap], int32(q))
						} else {
							off += iy*g.InW + ix
						}
						t.idx[tap*t.width*hw+q] = int32(off)
					}
				}
			}
			t.npad[tap] = len(t.pad[tap]) / t.width
		}
	}
	if t.shift != nil {
		t.maskOn, t.maskOff = make([][]int32, kk), make([][]int32, kk)
		was := make([]bool, hw)
		for tap := kk - 1; tap >= 0; tap-- {
			if t.npad[tap] == hw {
				continue // reaches no pixel: InputGrad skips it
			}
			is := make([]bool, hw)
			for _, q := range t.pad[tap][:t.npad[tap]] {
				is[q] = true
			}
			for p := range is {
				if is[p] && !was[p] {
					t.maskOn[tap] = append(t.maskOn[tap], int32(p))
				} else if was[p] && !is[p] {
					t.maskOff[tap] = append(t.maskOff[tap], int32(p))
				}
			}
			was = is
		}
		lw := t.width * hw
		t.guard = g.Pad*g.InW + g.Pad
		t.rowStride = lw + t.guard
		t.lanes = make([]uint64, kk*lw)
		for tap := range kk {
			lanes := t.lanes[tap*lw:][:lw]
			for q := range lanes {
				lanes[q] = ^uint64(0)
			}
			for _, q := range t.pad[tap] {
				lanes[q] = 0
			}
		}
		t.fwdTab = make([]int, 0, 2*g.ColCols())
		for c := 0; c < g.InC; c++ {
			for tap := range kk {
				t.fwdTab = append(t.fwdTab, c*t.rowStride+t.guard+t.shift[tap], tap*lw)
			}
		}
	}
	pw := g.InW + 2*g.Pad
	pp := (g.InH + 2*g.Pad) * pw
	rowOff, pOff := make([]int, 0, g.ColCols()), make([]int, 0, hw)
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				rowOff = append(rowOff, c*pp+ky*pw+kx)
			}
		}
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			pOff = append(pOff, oy*g.Stride*pw+ox*g.Stride)
		}
	}
	t.wRows = newRowTable(rowOff, pOff)
	convTables[g] = t
	return t
}

// ConvLowering is one convolution layer's handle on the lowering: the
// shared table, the group size and the scratch its calls work in. It is
// single-owner state like the layer that holds it.
type ConvLowering struct {
	g    ConvGeom
	outC int
	tab  *convTable
	// Same-size geometry: stage lays a group's planes side by side, every
	// channel of dx for InputGrad and every channel of x between guards for
	// Forward, and dYm is InputGrad's masked copy of dY, [OutC, group*HW].
	stage, dYm []float64
	// Gather geometry: the panel [ColCols, group*HW], Forward's lowered x
	// and then InputGrad's W @ dY. No call reads what an earlier one left.
	dPanel []float64
	// wStage is WeightGrad's, one image's channels in zero-bordered planes
	// (nil at Pad 0, where x is read in place). Nothing else writes it, and
	// WeightGrad writes only inside the border, so the border stays +0.
	wStage []float64
}

// NewConvLowering returns the lowering of geometry g for a layer with outC
// output channels. g must be valid.
func NewConvLowering(g ConvGeom, outC int) *ConvLowering {
	l := &ConvLowering{g: g, outC: outC, tab: convTableFor(g)}
	if g.Pad > 0 {
		l.wStage = make([]float64, g.InC*(g.InH+2*g.Pad)*(g.InW+2*g.Pad))
	}
	cols := l.tab.width * g.ColRows()
	if t := l.tab; t.shift != nil {
		// Forward's guarded rows span a table width of planes each, which
		// holds InputGrad's stage too.
		l.stage = make([]float64, g.InC*t.rowStride+t.guard)
		l.dYm = make([]float64, outC*cols)
	} else {
		l.dPanel = make([]float64, g.ColCols()*cols)
	}
	return l
}

// Group returns the number of images lowered into one panel, the table's
// width: a function of the geometry alone.
func (l *ConvLowering) Group() int { return l.tab.width }

// Forward adds Wᵀ @ panel, the product [OutC, n*HW], to y for n ≤ Group()
// images x [n, InC, InH, InW], from w [ColCols, OutC]: row oc of the
// product joins y[oc*ldy:][:n*HW], ldy ≥ n*HW. Each element is order 1 of
// nn.Conv2D: the taps (c, ky, kx) ascending from +0, every product rounded
// before it is added, a padding tap multiplying W by +0, and the chain
// joins y once — so a y seeded with the bias ends as bias + chain. x may
// hold anything.
//
// A gather geometry lowers x into the lowering's panel and runs the
// transposed-A product. A same-size geometry forms no panel: it stages x
// once, channel-major with the images side by side between guards, and
// makes one mmKernelShift call whose row p = (c, tap) is channel c's staged
// row at the tap's shift, masked by the tap's lanes. A masked lane
// multiplies W by the +0 the panel holds on a padding entry, whatever a
// guard, a wrapped row or the next image held there, NaN included, so both
// paths have the panel product's bits.
func (l *ConvLowering) Forward(y []float64, ldy int, w, x []float64, n int) {
	t := l.tab
	k, hw, inC := l.g.ColCols(), l.g.ColRows(), l.g.InC
	cols, plane := n*hw, l.g.InH*l.g.InW
	if n < 1 || n > l.tab.width || ldy < cols || !reaches(len(y), l.outC, ldy, cols) || len(w) != k*l.outC || len(x) != n*inC*plane {
		panic(fmt.Sprintf("tensor: Forward lens y %d stride %d w %d x %d for n %d (group %d) k %d outC %d",
			len(y), ldy, len(w), len(x), n, l.tab.width, k, l.outC))
	}
	if t.shift == nil {
		p := l.dPanel[:k*cols]
		t.lower(p, x, n, l.g)
		matMulTransA(y, ldy, w, p, k, l.outC, cols)
		return
	}
	for c := 0; c < inC; c++ {
		row := l.stage[c*t.rowStride+t.guard:][:cols]
		for i := 0; i < n; i++ {
			copy(row[i*hw:][:hw], x[(i*inC+c)*hw:])
		}
	}
	mmKernelShift(y, ldy, w, 1, l.outC, l.stage, t.lanes, t.fwdTab, l.outC, k, cols)
}

// InputGrad writes dx, the gradients [InC, InH, InW] of n ≤ Group() images,
// from w [ColCols, OutC] and their output gradient dY [OutC, n*HW]; w must
// be finite. Whatever dx held, each pixel ends as order 4 of nn.Conv2D:
// starting from +0 it adds its patch contributions in ascending (oy, ox),
// each contribution Σ_oc w[(c, tap), oc]·dY[oc, q] summed oc ascending from
// +0 (mmKernel's chain). dY is only read.
//
// A gather geometry forms every contribution in the panel W @ dY and
// scatters it into a cleared dx. A same-size geometry needs no panel: for
// each tap, descending, one mmKernel call (rows = input channels, lanes =
// the group row) adds the contributions straight into the group's input
// gradient, held channel-major with the images side by side as Forward
// stages x, at the tap's shift. A lane on a padding column must add
// nothing, so the call reads dY with the tap's padding columns zeroed: that
// chain is +0, and x + (+0) has the bits of x for every pixel here, since a
// pixel built from +0 by adding chains that also began at +0 is never −0.
// What a shifted lane carries across an image boundary is always such a
// column. A tap that reaches no pixel is skipped.
func (l *ConvLowering) InputGrad(dx, w, dY []float64, n int) {
	k, hw, kk := l.g.ColCols(), l.g.ColRows(), l.g.KH*l.g.KW
	inC, outC, cols := l.g.InC, l.outC, n*hw
	if n < 1 || n > l.tab.width || len(dx) != n*inC*l.g.InH*l.g.InW || len(w) != k*outC || len(dY) != outC*cols {
		panic(fmt.Sprintf("tensor: InputGrad lens dx %d w %d dY %d for n %d (group %d) k %d outC %d",
			len(dx), len(w), len(dY), n, l.tab.width, k, outC))
	}
	if l.tab.shift == nil {
		p := l.dPanel[:k*cols]
		clear(p)
		mmKernel(p, cols, w, outC, 1, dY, cols, k, outC, cols)
		clear(dx)
		l.tab.scatter(dx, p, n, l.g)
		return
	}
	st := l.stage[:inC*cols]
	if n == 1 || inC == 1 {
		st = dx // the channel planes lie side by side already
	}
	clear(st)
	m := l.dYm[:outC*cols]
	copy(m, dY)
	for tap := kk - 1; tap >= 0; tap-- {
		if l.tab.npad[tap] == hw {
			continue
		}
		for i := 0; i < n; i++ {
			for _, p := range l.tab.maskOff[tap] {
				for j := i*hw + int(p); j < len(m); j += cols {
					m[j] = dY[j]
				}
			}
			for _, p := range l.tab.maskOn[tap] {
				for j := i*hw + int(p); j < len(m); j += cols {
					m[j] = 0
				}
			}
		}
		d := l.tab.shift[tap]
		lo, hi := shiftRange(d, cols)
		mmKernel(st[lo+d:], cols, w[tap*outC:], kk*outC, 1, m[lo:], cols, inC, outC, hi-lo)
	}
	if &st[0] != &dx[0] {
		for i := 0; i < n; i++ {
			for c := 0; c < inC; c++ {
				copy(dx[(i*inC+c)*hw:][:hw], st[c*cols+i*hw:])
			}
		}
	}
}

// WeightGrad accumulates the weight gradient of n images x [n, InC, InH,
// InW] into wGrad [ColCols, OutC], from dYT [n*HW, OutC], their output
// gradients transposed (row i*HW+p is pixel p of image i, one float per
// output channel). x and dYT are only read.
//
// Accumulation order (part of the float-bits contract): wGrad[r, oc]
// receives one addend per image, in batch order, and each addend is that
// image's sum over p ascending formed from +0 — order 2 of nn.Conv2D. Per
// image that addend matrix is panel_i [ColCols, HW] @ dY_iᵀ [HW, OutC],
// which one mmKernelRows call adds straight into wGrad: its lanes are
// output elements (oc), never p, and each element's chain starts from +0
// and joins wGrad once. The call reads panel_i[r, p] at
// wRows.rowOff[r]+wRows.pOff[p] in the image's channels staged in
// zero-bordered planes, which is x's bits where lower would copy a pixel
// and the +0 it stores on a padding entry — so every product has the
// panel GEMM's operands, whatever x and dYT hold. At Pad 0 there is no
// border and the image itself is read.
func (l *ConvLowering) WeightGrad(wGrad, x, dYT []float64, n int) {
	g, outC := l.g, l.outC
	k, hw, plane := g.ColCols(), g.ColRows(), g.InH*g.InW
	inFeat := g.InC * plane
	if n < 1 || len(wGrad) != k*outC || len(x) != n*inFeat || len(dYT) != n*hw*outC {
		panic(fmt.Sprintf("tensor: WeightGrad lens wGrad %d x %d dYT %d for n %d k %d outC %d",
			len(wGrad), len(x), len(dYT), n, k, outC))
	}
	pw := g.InW + 2*g.Pad
	pp := (g.InH + 2*g.Pad) * pw
	for i := 0; i < n; i++ {
		a := x[i*inFeat:][:inFeat]
		if l.wStage != nil {
			for c := 0; c < g.InC; c++ {
				dst := l.wStage[c*pp+g.Pad*pw+g.Pad:]
				for y, src := 0, a[c*plane:]; y < g.InH; y++ {
					copy(dst[y*pw:][:g.InW], src[y*g.InW:])
				}
			}
			a = l.wStage
		}
		mmKernelRows(wGrad, outC, a, l.tab.wRows, dYT[i*hw*outC:], outC, k, hw, outC)
	}
}

// checkLens panics unless panel and x hold n ≤ width images of g: a
// longer group would read the next tap's idx.
func (t *convTable) checkLens(op string, panel, x []float64, n int, g ConvGeom) {
	if n > t.width {
		panic(fmt.Sprintf("tensor: %s of %d images, table width %d", op, n, t.width))
	}
	if want := n * g.ColRows() * g.ColCols(); len(panel) != want {
		panic(fmt.Sprintf("tensor: %s panel len %d, want %d", op, len(panel), want))
	}
	if want := n * g.InC * g.InH * g.InW; len(x) != want {
		panic(fmt.Sprintf("tensor: %s image len %d, want %d", op, len(x), want))
	}
}

// lower fills panel [ColCols, n*HW] from x, n ≤ width images of [InC, InH,
// InW], tap row by tap row, then zeroes each row's padding entries.
func (t *convTable) lower(panel, x []float64, n int, g ConvGeom) {
	t.checkLens("lower", panel, x, n, g)
	hw, kk, plane := g.ColRows(), g.KH*g.KW, g.InH*g.InW
	cols := n * hw
	for c := 0; c < g.InC; c++ {
		xc := x[c*plane:]
		for tap := 0; tap < kk; tap++ {
			row := panel[(c*kk+tap)*cols:][:cols]
			for q, j := range t.idx[tap*t.width*hw:][:cols] {
				row[q] = xc[j]
			}
			for _, q := range t.pad[tap][:n*t.npad[tap]] {
				row[q] = 0
			}
		}
	}
}

// scatter is the adjoint of lower: it accumulates dPanel [ColCols, n*HW]
// into dx, n ≤ width image gradients that may hold anything. Accumulation
// order (part of the float-bits contract): every input-gradient pixel
// receives its patch contributions in ascending (oy, ox). A pixel meets tap
// (ky, kx) at oy = (iy+Pad-ky)/Stride, ox = (ix+Pad-kx)/Stride — at most
// one output pixel per tap, and a larger tap means a smaller (oy, ox) — so
// walking the panel rows of a channel with (ky, kx) descending, and each
// row left to right, is that order.
//
// The row loop is lower's run backwards, dx[idx[q]] += row[q], and knows as
// little of padding: the row's padding entries are first overwritten with
// −0, the one addend that leaves every float as it is (x + −0 has the bits
// of x for every x, −0 and +0 included; +0 would turn a −0 in dx into +0).
// So the pixel a padding entry's dummy offset lands on is not moved, and dx
// need not have been built up from +0.
func (t *convTable) scatter(dx, dPanel []float64, n int, g ConvGeom) {
	t.checkLens("scatter", dPanel, dx, n, g)
	hw, kk, plane := g.ColRows(), g.KH*g.KW, g.InH*g.InW
	cols := n * hw
	negZero := math.Copysign(0, -1)
	for c := 0; c < g.InC; c++ {
		dxc := dx[c*plane:]
		for tap := kk - 1; tap >= 0; tap-- {
			row := dPanel[(c*kk+tap)*cols:][:cols]
			for _, q := range t.pad[tap][:n*t.npad[tap]] {
				row[q] = negZero
			}
			for q, j := range t.idx[tap*t.width*hw:][:cols] {
				dxc[j] += row[q]
			}
		}
	}
}

// Im2Col lowers one image (shape [InC, InH, InW] flattened) into its
// channel-major panel [InC*KH*KW, OutH*OutW], so convolution becomes the
// product of the transposed [InC*KH*KW, OutC] weight matrix with it. It is
// the single-image entry to the code Conv2D runs on groups of images. dst
// must have ColRows()*ColCols() elements.
func Im2Col(dst []float64, img []float64, g ConvGeom) {
	convTableFor(g).lower(dst, img, 1, g)
}

// Col2Im scatters a panel's gradient back into image layout, accumulating
// overlapping patches — the adjoint of Im2Col. dst (the image gradient,
// [InC, InH, InW] flattened) is accumulated into, not zeroed, and may hold
// anything; col's padding entries contribute nothing and hold −0
// afterwards, its other entries are only read.
func Col2Im(dst []float64, col []float64, g ConvGeom) {
	convTableFor(g).scatter(dst, col, 1, g)
}
