package tensor

import (
	"fmt"
	"sync"
)

// ConvGeom describes the geometry of a 2-D convolution: input channels and
// spatial size, kernel size, stride, and zero padding. Output spatial size is
// derived. Square kernels and inputs are assumed (all the paper's networks
// use square 3×3/1×1 kernels on square feature maps).
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
//	forward          Y  [OutC, n*HW]    = Wᵀ @ panel    (MatMulTransAInto)
//	input gradient   dP [ColCols, n*HW] = W @ dY        (InputGrad: MatMulInto), then Scatter
//	weight gradient  W.Grad[r, oc]     += panel[r]·dY[oc], image by image (WeightGrad)
//
// Rows of Y are already the layer's channel-major output, and every inner
// loop of the two products runs along a row n*HW long.

// convPanelFloats bounds one panel of a group (64 KiB; a layer holds two,
// the lowered input and its gradient). Budgets of 4-16 Ki measured alike
// end to end on both quick profiles — rows are long enough from about 64
// columns on — so the budget is set by memory per replica, not speed.
const convPanelFloats = 8 * 1024

// convOperandFloats bounds the [OutC, n*HW] operand of a group's two
// products (Y forward, dY backward) at 128 KiB, so that it stays
// L2-resident while the kernel streams it once per strip of four rows.
const convOperandFloats = 16 * 1024

// convTable holds the gather offsets of one geometry. idx is [KH*KW][HW]:
// for tap (ky, kx) and output pixel p, the offset of the input pixel inside
// a staged channel — the InH*InW plane followed by one zero slot, which is
// where every padding entry points, so lowering needs no bounds test.
type convTable struct {
	idx   []int32
	stage sync.Pool // *[]float64 staged channels for the single-image entries
}

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
	hw, plane := outH*outW, g.InH*g.InW
	t := &convTable{idx: make([]int32, g.KH*g.KW*hw)}
	t.stage.New = func() any { s := make([]float64, plane+1); return &s }
	k := 0
	for ky := 0; ky < g.KH; ky++ {
		for kx := 0; kx < g.KW; kx++ {
			for oy := 0; oy < outH; oy++ {
				iy := oy*g.Stride - g.Pad + ky
				for ox := 0; ox < outW; ox++ {
					ix := ox*g.Stride - g.Pad + kx
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						t.idx[k] = int32(plane)
					} else {
						t.idx[k] = int32(iy*g.InW + ix)
					}
					k++
				}
			}
		}
	}
	convTables[g] = t
	return t
}

// ConvLowering is one convolution layer's handle on the lowering: the
// shared table, the group size, a private staging buffer and WeightGrad's
// scratch. It is single-owner state like the layer that holds it.
type ConvLowering struct {
	g     ConvGeom
	outC  int
	group int
	tab   *convTable
	stage []float64 // one staged channel: plane + zero slot
	dYT   []float64 // WeightGrad: one image's dY transposed, [HW, OutC] ...
	img   []float64 // ... and its addend to the weight gradient, [ColCols, OutC]
}

// NewConvLowering returns the lowering of geometry g for a layer with outC
// output channels. g must be valid.
func NewConvLowering(g ConvGeom, outC int) *ConvLowering {
	// The group is the largest image count whose panel and whose
	// [OutC, n*HW] operand both fit their budgets.
	k, hw := g.ColCols(), g.ColRows()
	group := min(convPanelFloats/(k*hw), convOperandFloats/(outC*hw))
	return &ConvLowering{
		g: g, outC: outC, group: max(group, 1),
		tab:   convTableFor(g),
		stage: make([]float64, g.InH*g.InW+1),
		dYT:   make([]float64, hw*outC),
		img:   make([]float64, k*outC),
	}
}

// Group returns the number of images lowered into one panel. It is a
// function of the geometry and outC alone.
func (l *ConvLowering) Group() int { return l.group }

// Lower fills panel [ColCols, n*HW] from x, n images of [InC, InH, InW].
func (l *ConvLowering) Lower(panel, x []float64, n int) {
	convLower(panel, x, n, l.g, l.tab.idx, l.stage)
}

// InputGrad computes dPanel [ColCols, n*HW] = w [ColCols, OutC] @ dY
// [OutC, n*HW], each element summing oc ascending from +0.
func (l *ConvLowering) InputGrad(dPanel, w, dY *Tensor) {
	MatMulInto(dPanel, w, dY)
}

// Scatter accumulates dPanel [ColCols, n*HW] into dx, n image gradients
// [InC, InH, InW] — the adjoint of Lower. dx is accumulated into.
func (l *ConvLowering) Scatter(dx, dPanel []float64, n int) {
	convScatter(dx, dPanel, n, l.g, l.tab.idx)
}

// WeightGrad accumulates the weight gradient of a group into wGrad
// [ColCols, OutC] from panel [ColCols, n*HW] and dY [OutC, n*HW].
//
// Accumulation order (part of the float-bits contract): wGrad[r, oc]
// receives one addend per image, in batch order, and each addend is that
// image's sum over p ascending formed from +0. Per image that addend matrix
// is panel_i [ColCols, HW] @ dY_iᵀ [HW, OutC] from a zeroed scratch: the
// micro-kernel's lanes are output elements (oc), never p, so each element's
// chain is the scalar one.
func (l *ConvLowering) WeightGrad(wGrad, panel, dY []float64, n int) {
	k, hw := l.g.ColCols(), l.g.ColRows()
	cols := n * hw
	outC := l.outC
	if len(wGrad) != k*outC || len(panel) != k*cols || len(dY) != outC*cols {
		panic(fmt.Sprintf("tensor: WeightGrad lens wGrad %d panel %d dY %d for k %d outC %d cols %d",
			len(wGrad), len(panel), len(dY), k, outC, cols))
	}
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for p, v := range dY[oc*cols+i*hw:][:hw] {
				l.dYT[p*outC+oc] = v
			}
		}
		clear(l.img)
		mmKernel(l.img, outC, panel[i*hw:], cols, 1, l.dYT, outC, k, hw, outC)
		for j, v := range l.img {
			wGrad[j] += v
		}
	}
}

func convCheckLens(op string, panel, x []float64, n int, g ConvGeom) {
	if want := n * g.ColRows() * g.ColCols(); len(panel) != want {
		panic(fmt.Sprintf("tensor: %s panel len %d, want %d", op, len(panel), want))
	}
	if want := n * g.InC * g.InH * g.InW; len(x) != want {
		panic(fmt.Sprintf("tensor: %s image len %d, want %d", op, len(x), want))
	}
}

// convLower is the gather: a channel is staged in front of its zero slot,
// then each of its taps is one branch-free table-driven row segment.
func convLower(panel, x []float64, n int, g ConvGeom, idx []int32, stage []float64) {
	convCheckLens("Lower", panel, x, n, g)
	hw, kk, plane := g.ColRows(), g.KH*g.KW, g.InH*g.InW
	cols := n * hw
	stage = stage[:plane+1]
	for i := 0; i < n; i++ {
		for c := 0; c < g.InC; c++ {
			copy(stage, x[(i*g.InC+c)*plane:(i*g.InC+c+1)*plane])
			for tap := 0; tap < kk; tap++ {
				row := panel[(c*kk+tap)*cols+i*hw:][:hw]
				for p, j := range idx[tap*hw:][:hw] {
					row[p] = stage[j]
				}
			}
		}
	}
}

// convScatter is the adjoint gather. Accumulation order (part of the
// float-bits contract): every input-gradient pixel receives its patch
// contributions in ascending (oy, ox). A pixel meets tap (ky, kx) at
// oy = (iy+Pad-ky)/Stride, ox = (ix+Pad-kx)/Stride — at most one output
// pixel per tap, and a larger tap means a smaller (oy, ox) — so walking the
// panel rows of a channel with (ky, kx) descending, and each row left to
// right, is that order.
func convScatter(dx, dPanel []float64, n int, g ConvGeom, idx []int32) {
	convCheckLens("Scatter", dPanel, dx, n, g)
	hw, kk, plane := g.ColRows(), g.KH*g.KW, g.InH*g.InW
	cols := n * hw
	for i := 0; i < n; i++ {
		for c := 0; c < g.InC; c++ {
			dst := dx[(i*g.InC+c)*plane:][:plane]
			for tap := kk - 1; tap >= 0; tap-- {
				row := dPanel[(c*kk+tap)*cols+i*hw:][:hw]
				for p, j := range idx[tap*hw:][:hw] {
					// Padding entries (j == plane) have no pixel. The
					// pattern repeats every row, so the branch predicts; a
					// trash slot measured no faster and costs a staging
					// pass each way.
					if uint(j) < uint(len(dst)) {
						dst[j] += row[p]
					}
				}
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
	t := convTableFor(g)
	stage := t.stage.Get().(*[]float64)
	convLower(dst, img, 1, g, t.idx, *stage)
	t.stage.Put(stage)
}

// Col2Im scatters a panel's gradient back into image layout, accumulating
// overlapping patches — the adjoint of Im2Col. dst (the image gradient,
// [InC, InH, InW] flattened) is accumulated into, not zeroed.
func Col2Im(dst []float64, col []float64, g ConvGeom) {
	convScatter(dst, col, 1, g, convTableFor(g).idx)
}
