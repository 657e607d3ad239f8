//go:build !amd64 || race

package tensor

// No assembly in this build: the epilogue lanes always take the Go loops.

func reluAVX2(dst, a *float64, n int) { panic("tensor: no assembly lanes in this build") }

func reluBackwardAVX2(dst, grad, x *float64, n int) {
	panic("tensor: no assembly lanes in this build")
}

func addAVX2(dst, a, b *float64, n int) { panic("tensor: no assembly lanes in this build") }

func addChannelBiasAVX2(dst, src *float64, n, c, s, srcStride int, bias *float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnTrainAVX2(xhat, out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnInferAVX2(out, x *float64, rows, c, s int, gamma, mean, inv, beta *float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnInputGradAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64) {
	panic("tensor: no assembly lanes in this build")
}
