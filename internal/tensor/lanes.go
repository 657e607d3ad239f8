package tensor

import (
	"fmt"
	"math"
)

// Epilogue lanes: the element-wise passes around the products — ReLU and
// its backward mask, the residual Add, the conv bias copy-out and batch
// norm's normalize, inference and input-gradient passes. Each is one call
// per layer pass with two implementations of one loop, chosen as mmKernel's
// strips are (level, from levelAVX2 up): AVX2 assembly (lanes_amd64.s) and
// the Go loops below, which are the reference and what every build without
// the assembly runs. A vector lane is one element and performs the Go loop's
// IEEE operations on the same operands in the same order — no FMA, no
// reassociation, a channel's constants broadcast — so it ends on the same
// bits, NaN payloads included. The batch-norm and bias passes walk rows of
// S elements, row r of channel r mod C, the assembly finishing each row
// with a VMASKMOVPD tail; they take a channel's constants from slices of
// length C.

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
		b := int64(math.Float64bits(v))
		d[i] = math.Float64frombits(math.Float64bits(g[i]) & uint64((^b&-b)>>63))
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

// AddChannelBias writes n images of C channels of S elements,
// dst[(i*C+c)*S+s] = src[c*srcStride+i*S+s] + bias[c]: a convolution's
// [C, n*S] product, images side by side, copied out to image rows with the
// bias added after the sum.
func AddChannelBias(dst, src []float64, n, C, S, srcStride int, bias []float64) {
	if n <= 0 || C <= 0 || S <= 0 {
		return
	}
	if len(dst) != n*C*S || len(bias) != C || srcStride < 0 || len(src) < (C-1)*srcStride+n*S {
		panic(fmt.Sprintf("tensor: AddChannelBias lens dst %d src %d bias %d for n %d C %d S %d stride %d",
			len(dst), len(src), len(bias), n, C, S, srcStride))
	}
	if level >= levelAVX2 {
		addChannelBiasAVX2(&dst[0], &src[0], n, C, S, srcStride, &bias[0])
		return
	}
	addChannelBiasGo(dst, src, n, C, S, srcStride, bias)
}

func addChannelBiasGo(dst, src []float64, n, C, S, srcStride int, bias []float64) {
	for i := 0; i < n; i++ {
		for c, b := range bias {
			row := dst[(i*C+c)*S:][:S]
			for s, v := range src[c*srcStride+i*S:][:S] {
				row[s] = v + b
			}
		}
	}
}

// bnRows checks the [n, C*S] operands of a batch-norm pass and the
// per-channel constants, and returns the row count n*C (0: nothing to do).
func bnRows(op string, C, S int, rows [][]float64, consts ...[]float64) int {
	if C <= 0 || S <= 0 || len(rows[0])%(C*S) != 0 {
		panic(fmt.Sprintf("tensor: %s len %d for C %d S %d", op, len(rows[0]), C, S))
	}
	for _, r := range rows[1:] {
		if len(r) != len(rows[0]) {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(rows[0]), len(r)))
		}
	}
	for _, k := range consts {
		if len(k) != C {
			panic(fmt.Sprintf("tensor: %s channel constants len %d, want %d", op, len(k), C))
		}
	}
	return len(rows[0]) / S
}

// BatchNormTrain is batch norm's training normalize over x [n, C*S]:
// xhat = (x − mean[c])·inv[c] and out = gamma[c]·xhat + beta[c].
func BatchNormTrain(xhat, out, x []float64, C, S int, mean, inv, gamma, beta []float64) {
	rows := bnRows("BatchNormTrain", C, S, [][]float64{x, xhat, out}, mean, inv, gamma, beta)
	if level >= levelAVX2 && rows > 0 {
		bnTrainAVX2(&xhat[0], &out[0], &x[0], rows, C, S, &mean[0], &inv[0], &gamma[0], &beta[0])
		return
	}
	bnTrainGo(xhat, out, x, rows, C, S, mean, inv, gamma, beta)
}

func bnTrainGo(xhat, out, x []float64, rows, C, S int, mean, inv, gamma, beta []float64) {
	for r := 0; r < rows; r++ {
		c := r % C
		mu, iv, g, b := mean[c], inv[c], gamma[c], beta[c]
		xh, o := xhat[r*S:][:S], out[r*S:][:S]
		for s, v := range x[r*S:][:S] {
			h := (v - mu) * iv
			xh[s] = h
			o[s] = g*h + b
		}
	}
}

// BatchNormInfer is batch norm's inference pass over x [n, C*S]:
// out = gamma[c]·(x − mean[c])·inv[c] + beta[c], left to right.
func BatchNormInfer(out, x []float64, C, S int, gamma, mean, inv, beta []float64) {
	rows := bnRows("BatchNormInfer", C, S, [][]float64{x, out}, gamma, mean, inv, beta)
	if level >= levelAVX2 && rows > 0 {
		bnInferAVX2(&out[0], &x[0], rows, C, S, &gamma[0], &mean[0], &inv[0], &beta[0])
		return
	}
	bnInferGo(out, x, rows, C, S, gamma, mean, inv, beta)
}

func bnInferGo(out, x []float64, rows, C, S int, gamma, mean, inv, beta []float64) {
	for r := 0; r < rows; r++ {
		c := r % C
		g, mu, iv, b := gamma[c], mean[c], inv[c], beta[c]
		o := out[r*S:][:S]
		for s, v := range x[r*S:][:S] {
			o[s] = g*(v-mu)*iv + b
		}
	}
}

// BatchNormInputGrad is batch norm's input gradient over dy [n, C*S]:
// dx = k[c]·(m·dy − sumDy[c] − xhat·sumDyXhat[c]), left to right.
func BatchNormInputGrad(dx, dy, xhat []float64, C, S int, m float64, k, sumDy, sumDyXhat []float64) {
	rows := bnRows("BatchNormInputGrad", C, S, [][]float64{dy, dx, xhat}, k, sumDy, sumDyXhat)
	if level >= levelAVX2 && rows > 0 {
		bnInputGradAVX2(&dx[0], &dy[0], &xhat[0], rows, C, S, m, &k[0], &sumDy[0], &sumDyXhat[0])
		return
	}
	bnInputGradGo(dx, dy, xhat, rows, C, S, m, k, sumDy, sumDyXhat)
}

func bnInputGradGo(dx, dy, xhat []float64, rows, C, S int, m float64, k, sumDy, sumDyXhat []float64) {
	for r := 0; r < rows; r++ {
		c := r % C
		kc, sd, sdx := k[c], sumDy[c], sumDyXhat[c]
		d, xh := dx[r*S:][:S], xhat[r*S:][:S]
		for s, v := range dy[r*S:][:S] {
			d[s] = kc * (m*v - sd - xh[s]*sdx)
		}
	}
}
