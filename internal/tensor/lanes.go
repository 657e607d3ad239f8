package tensor

import (
	"fmt"
	"math"
)

// Epilogue lanes: the element-wise passes around the products — ReLU and
// its backward mask, the residual Add and add+ReLU, and the three passes of
// a convolution unit's batch norm (normalize, inference, input gradient),
// each with the rectifier folded in where the unit has one. Each is one
// call per layer pass with two implementations of one loop, chosen as
// mmKernel's strips are (level, from levelAVX2 up): AVX2 assembly
// (lanes_amd64.s) and the Go loops below, which are the reference and what
// every build without the assembly runs. A vector lane is one element and
// performs the Go loop's IEEE operations on the same operands in the same
// order — no FMA, no reassociation, a channel's constants broadcast — so it
// ends on the same bits, NaN payloads included. The batch-norm passes walk
// rows of S elements, one per image and channel, the assembly finishing
// each row with a VMASKMOVPD tail; they take a channel's constants from
// slices of length C.

// ReLU computes dst = max(a, 0). It is branch-free — pre-activations are
// sign-random, so an `if v > 0` mispredicts half the time — and agrees
// with the branch bit for bit on every non-NaN input (-0 and negatives
// give +0); a NaN propagates instead of becoming 0, with its sign bit
// cleared as the builtin returns it. The assembly keeps a lane where v is
// not <= 0 (VCMPPD NLE_UQ: v > 0, or unordered), clears it otherwise and
// clears the sign bit (VANDPD with both masks): max(v, 0) bit for bit.
func ReLU(dst, a *Tensor) {
	checkSameLen("ReLU", dst, a)
	if n := len(a.Data); level >= levelAVX2 && n > 0 {
		reluAVX2(&dst.Data[0], &a.Data[0], n)
		return
	}
	reluGo(dst.Data, a.Data)
}

func reluGo(dst, a []float64) {
	d := dst[:len(a)]
	for i, v := range a {
		d[i] = max(v, 0)
	}
}

// ReLUBackward computes dst = grad where x > 0, else +0, as a bit mask so
// the sign-random x costs no branch: x > 0 exactly when its bit pattern b,
// read as an int64, is positive — ^b & -b has the sign bit set only then
// (-0 is MinInt64, whose negation keeps the sign); the assembly compares
// the bits with VPCMPGTQ. A NaN x with a clear sign bit passes grad
// through where the branch gave 0; inputs are finite.
func ReLUBackward(dst, grad, x *Tensor) {
	checkSameLen("ReLUBackward", dst, grad, x)
	if n := len(x.Data); level >= levelAVX2 && n > 0 {
		reluBackwardAVX2(&dst.Data[0], &grad.Data[0], &x.Data[0], n)
		return
	}
	reluBackwardGo(dst.Data, grad.Data, x.Data)
}

func reluBackwardGo(dst, grad, x []float64) {
	d, g := dst[:len(x)], grad[:len(x)]
	for i, v := range x {
		d[i] = reluMask(g[i], v)
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkSameLen("Add", dst, a, b)
	if n := len(a.Data); level >= levelAVX2 && n > 0 {
		addAVX2(&dst.Data[0], &a.Data[0], &b.Data[0], n)
		return
	}
	addGo(dst.Data, a.Data, b.Data)
}

func addGo(dst, a, b []float64) {
	d, bb := dst[:len(a)], b[:len(a)]
	for i, v := range a {
		d[i] = v + bb[i]
	}
}

// AddReLU computes dst = max(a + b, 0): Add then ReLU in one pass, the
// residual join. dst may alias a or b.
func AddReLU(dst, a, b *Tensor) {
	checkSameLen("AddReLU", dst, a, b)
	if n := len(a.Data); level >= levelAVX2 && n > 0 {
		addReLUAVX2(&dst.Data[0], &a.Data[0], &b.Data[0], n)
		return
	}
	addReLUGo(dst.Data, a.Data, b.Data)
}

func addReLUGo(dst, a, b []float64) {
	d, bb := dst[:len(a)], b[:len(a)]
	for i, v := range a {
		d[i] = max(v+bb[i], 0)
	}
}

// FillRows sets row r of dst, dst[r*ld:][:w], to vals[r] for every r <
// len(vals): a convolution's product rows seeded with the bias.
func FillRows(dst []float64, ld, w int, vals []float64) {
	rows := len(vals)
	if rows == 0 || w <= 0 {
		return
	}
	if ld < w || !reaches(len(dst), rows, ld, w) {
		panic(fmt.Sprintf("tensor: FillRows len %d for %d rows of %d at stride %d", len(dst), rows, w, ld))
	}
	if level >= levelAVX2 {
		fillRowsAVX2(&dst[0], ld, w, &vals[0], rows)
		return
	}
	for r, v := range vals {
		row := dst[r*ld:][:w]
		for j := range row {
			row[j] = v
		}
	}
}

// A convolution unit (nn.ConvBN) keeps its pre-activation channel-major:
// x [C, ld], image i's S elements of channel c at x[c*ld+i*S:], the images
// of a channel side by side in batch order. Its output and the incoming
// gradient dy are image-major, [n, C*S]. The passes below read a row
// (i, c) of S elements from each layout; relu folds the rectifier after
// the normalize in, forward and backward.

// bnRows checks a pass over n images of C channels of S elements: x at row
// stride ld, each image-major operand n*C*S long, each channel constant C
// long. It reports whether there is anything to do.
func bnRows(op string, x []float64, ld, n, C, S int, rows [][]float64, consts ...[]float64) bool {
	if n < 0 || C <= 0 || S <= 0 || ld < n*S || n > 0 && len(x) < (C-1)*ld+n*S {
		panic(fmt.Sprintf("tensor: %s x len %d stride %d for n %d C %d S %d", op, len(x), ld, n, C, S))
	}
	for _, r := range rows {
		if len(r) != n*C*S {
			panic(fmt.Sprintf("tensor: %s operand len %d, want %d", op, len(r), n*C*S))
		}
	}
	for _, k := range consts {
		if len(k) != C {
			panic(fmt.Sprintf("tensor: %s channel constants len %d, want %d", op, len(k), C))
		}
	}
	return n > 0
}

// BNTrainRows is the training normalize: out = gamma[c]·xhat + beta[c],
// xhat = (x − mean[c])·inv[c], then max(·, 0) if relu — BatchNorm's
// normalize followed by ReLU, written image-major.
func BNTrainRows(out, x []float64, ld, n, C, S int, relu bool, mean, inv, gamma, beta []float64) {
	if !bnRows("BNTrainRows", x, ld, n, C, S, [][]float64{out}, mean, inv, gamma, beta) {
		return
	}
	if level >= levelAVX2 {
		bnTrainAVX2(&out[0], &x[0], ld, n, C, S, relu, &mean[0], &inv[0], &gamma[0], &beta[0])
		return
	}
	bnTrainGo(out, x, ld, n, C, S, relu, mean, inv, gamma, beta)
}

func bnTrainGo(out, x []float64, ld, n, C, S int, relu bool, mean, inv, gamma, beta []float64) {
	for i := 0; i < n; i++ {
		for c := 0; c < C; c++ {
			mu, iv, g, b := mean[c], inv[c], gamma[c], beta[c]
			o := out[(i*C+c)*S:][:S]
			for s, v := range x[c*ld+i*S:][:S] {
				h := (v - mu) * iv
				o[s] = g*h + b
			}
			if relu {
				reluGo(o, o)
			}
		}
	}
}

// BNInferRows is the inference pass: out = gamma[c]·(x − mean[c])·inv[c] +
// beta[c], left to right, then max(·, 0) if relu.
func BNInferRows(out, x []float64, ld, n, C, S int, relu bool, gamma, mean, inv, beta []float64) {
	if !bnRows("BNInferRows", x, ld, n, C, S, [][]float64{out}, gamma, mean, inv, beta) {
		return
	}
	if level >= levelAVX2 {
		bnInferAVX2(&out[0], &x[0], ld, n, C, S, relu, &gamma[0], &mean[0], &inv[0], &beta[0])
		return
	}
	bnInferGo(out, x, ld, n, C, S, relu, gamma, mean, inv, beta)
}

func bnInferGo(out, x []float64, ld, n, C, S int, relu bool, gamma, mean, inv, beta []float64) {
	for i := 0; i < n; i++ {
		for c := 0; c < C; c++ {
			g, mu, iv, b := gamma[c], mean[c], inv[c], beta[c]
			o := out[(i*C+c)*S:][:S]
			for s, v := range x[c*ld+i*S:][:S] {
				o[s] = g*(v-mu)*iv + b
			}
			if relu {
				reluGo(o, o)
			}
		}
	}
}

// BNGrad holds the per-channel constants of a backward pass: the forward's
// mean and inv, from which xhat = (x − mean)·inv is recomputed, gamma and
// beta, from which the rectifier's input gamma·xhat + beta is, and the
// input gradient's k = gamma·inv/m, sumDy = Σ dy and sumDyXhat = Σ dy·xhat
// (dy masked by the rectifier), each C long; m is the element count of a
// channel.
type BNGrad struct {
	Mean, Inv, Gamma, Beta []float64
	K, SumDy, SumDyXhat    []float64
	M                      float64

	// pack is the assembly's copy of the constants (lanes_amd64.s): per
	// channel eight vectors of one constant — the seven above and the
	// rectifier's OR mask — grown on first use, so a BNGrad kept across
	// passes allocates once. BNGradSums begins a backward pass and packs
	// what it reads; the first BNGradRows after it packs all eight and
	// sets rows, and the next ones of the pass reuse the pack — so the
	// constants are set before that first call and stay as they are until
	// the next BNGradSums.
	pack []float64
	rows bool
}

// packed fills pack for C channels and returns it; K, SumDy and SumDyXhat
// are packed only if all.
func (k *BNGrad) packed(C int, relu, all bool) []float64 {
	if len(k.pack) < 32*C {
		k.pack = make([]float64, 32*C)
	}
	or := math.Float64frombits(^uint64(0)) // without the rectifier every lane passes
	if relu {
		or = 0
	}
	for c := 0; c < C; c++ {
		v := [8]float64{k.Mean[c], k.Inv[c], k.Gamma[c], k.Beta[c], 0, 0, 0, or}
		if all {
			v[4], v[5], v[6] = k.K[c], k.SumDy[c], k.SumDyXhat[c]
		}
		for j, x := range v {
			p := k.pack[(c*8+j)*4:][:4]
			p[0], p[1], p[2], p[3] = x, x, x, x
		}
	}
	return k.pack
}

// hiLanes[f:f+4] is the mask of a four-channel block's last f lanes: the
// channels that are the block's own when a count that is not a multiple of
// four ends in a block overlapping the one before it.
var hiLanes = [8]uint64{0, 0, 0, 0, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// BNGradSums is the backward pass's reductions: k.SumDy[c] = Σ d and
// k.SumDyXhat[c] = Σ d·xhat over channel c's elements, images in batch
// order and positions ascending, from +0, with d and xhat formed as
// BNGradRows forms them; K is not read. Channels never meet, so several
// run side by side: the Go loop two channels, four chains in flight (an
// odd count repeats channel C−1 in the last pair, which stores the same
// sums again), the assembly blocks of four, each chain in a lane.
func BNGradSums(k *BNGrad, x []float64, ld int, dy []float64, n, C, S int, relu bool) {
	if !bnRows("BNGradSums", x, ld, n, C, S, [][]float64{dy}, k.Mean, k.Inv, k.Gamma, k.Beta, k.SumDy, k.SumDyXhat) {
		clear(k.SumDy)
		clear(k.SumDyXhat)
		return
	}
	if level < levelAVX2 || C < 4 {
		bnGradSumsGo(k, x, ld, dy, n, C, S, relu)
		return
	}
	// The last block of a count that is not a multiple of four stores the
	// sums of the channels it shares with the one before again, the same
	// bits.
	pack := k.packed(C, relu, false)
	k.rows = false
	for c0 := 0; c0 < C; c0 += 4 {
		b := min(c0, C-4)
		bnGradSumsAVX2(&k.SumDy[b], &k.SumDyXhat[b], &x[b*ld], &dy[b*S], &pack[b*32], ld, n, C, S)
	}
}

func bnGradSumsGo(k *BNGrad, x []float64, ld int, dy []float64, n, C, S int, relu bool) {
	for c0 := 0; c0 < C; c0 += 2 {
		c1 := min(c0+1, C-1)
		mu0, iv0, g0, b0 := k.Mean[c0], k.Inv[c0], k.Gamma[c0], k.Beta[c0]
		mu1, iv1, g1, b1 := k.Mean[c1], k.Inv[c1], k.Gamma[c1], k.Beta[c1]
		var s0, s1, t0, t1 float64
		for i := 0; i < n; i++ {
			x0, x1 := x[c0*ld+i*S:][:S], x[c1*ld+i*S:][:S]
			y0, y1 := dy[(i*C+c0)*S:][:S], dy[(i*C+c1)*S:][:S]
			for p, v := range x0 {
				h0 := (v - mu0) * iv0
				h1 := (x1[p] - mu1) * iv1
				d0, d1 := y0[p], y1[p]
				if relu {
					d0 = reluMask(d0, g0*h0+b0)
					d1 = reluMask(d1, g1*h1+b1)
				}
				s0 += d0
				t0 += d0 * h0
				s1 += d1
				t1 += d1 * h1
			}
		}
		k.SumDy[c0], k.SumDy[c1] = s0, s1
		k.SumDyXhat[c0], k.SumDyXhat[c1] = t0, t1
	}
}

// BNGradRows is the input-gradient pass of a unit, writing what the
// convolution's backward reads: for every element, d = dy masked by the
// rectifier's input (if relu, as ReLUBackward masks), then
// k[c]·((m·d − sumDy[c]) − xhat·sumDyXhat[c]), stored to dY [C, n*S]
// (channel-major, row stride n*S) and to dYT [n*S, C] (pixel-major), and
// each image's sum of a channel over its S elements ascending from +0 added
// to bGrad[c], images in batch order.
func BNGradRows(dY, dYT, bGrad, x []float64, ld int, dy []float64, n, C, S int, relu bool, k *BNGrad) {
	if !bnRows("BNGradRows", x, ld, n, C, S, [][]float64{dY, dYT, dy}, bGrad,
		k.Mean, k.Inv, k.Gamma, k.Beta, k.K, k.SumDy, k.SumDyXhat) {
		return
	}
	if level < levelAVX2 || C < 4 {
		bnGradGo(dY, dYT, bGrad, x, ld, dy, n, C, S, relu, k)
		return
	}
	// Blocks of four channels; a count that is not a multiple of four ends
	// in the block of the last four, whose channels before c0 are written
	// again with the same bits and join bGrad only once.
	if !k.rows {
		k.packed(C, relu, true)
		k.rows = true
	}
	pack := k.pack
	for c0 := 0; c0 < C; c0 += 4 {
		b := min(c0, C-4)
		bnGradRowsAVX2(&dY[b*n*S], &dYT[b], &x[b*ld], &dy[b*S], &pack[b*32], &bGrad[b], &hiLanes[min(C-c0, 4)],
			ld, n*S, n, C, S, k.M)
	}
}

func bnGradGo(dY, dYT, bGrad, x []float64, ld int, dy []float64, n, C, S int, relu bool, k *BNGrad) {
	m := k.M
	for i := 0; i < n; i++ {
		t := dYT[i*S*C:][:S*C]
		for c := 0; c < C; c++ {
			mu, iv, g, b := k.Mean[c], k.Inv[c], k.Gamma[c], k.Beta[c]
			kc, sd, sdx := k.K[c], k.SumDy[c], k.SumDyXhat[c]
			row, src := dY[c*n*S+i*S:][:S], dy[(i*C+c)*S:][:S]
			s := 0.0
			for p, v := range x[c*ld+i*S:][:S] {
				h := (v - mu) * iv
				d := src[p]
				if relu {
					d = reluMask(d, g*h+b)
				}
				o := kc * (m*d - sd - h*sdx)
				row[p] = o
				t[p*C+c] = o
				s += o
			}
			bGrad[c] += s
		}
	}
}

// reluMask is ReLUBackward's element: g where x > 0, else +0.
func reluMask(g, x float64) float64 {
	b := int64(math.Float64bits(x))
	return math.Float64frombits(math.Float64bits(g) & uint64((^b&-b)>>63))
}
