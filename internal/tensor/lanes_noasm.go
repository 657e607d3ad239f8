//go:build !amd64 || race

package tensor

// No assembly in this build: the epilogue lanes always take the Go loops.

func reluAVX2(dst, a *float64, n int) { panic("tensor: no assembly lanes in this build") }

func reluBackwardAVX2(dst, grad, x *float64, n int) {
	panic("tensor: no assembly lanes in this build")
}

func addAVX2(dst, a, b *float64, n int) { panic("tensor: no assembly lanes in this build") }

func addReLUAVX2(dst, a, b *float64, n int) { panic("tensor: no assembly lanes in this build") }

func bnTrainAVX2(out, x *float64, ld, n, c, s int, relu bool, mean, inv, gamma, beta *float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnInferAVX2(out, x *float64, ld, n, c, s int, relu bool, gamma, mean, inv, beta *float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnGradRowsAVX2(dY, dYT, x, dy, pack, bGrad *float64, fresh *uint64, ld, dyld, n, c, s int, m float64) {
	panic("tensor: no assembly lanes in this build")
}

func bnGradSumsAVX2(sumDy, sumDyXhat, x, dy, pack *float64, ld, n, c, s int) {
	panic("tensor: no assembly lanes in this build")
}

func fillRowsAVX2(dst *float64, ld, w int, vals *float64, rows int) {
	panic("tensor: no assembly lanes in this build")
}
