//go:build amd64 && !race

package tensor

//go:noescape
func reluAVX2(dst, a *float64, n int)

//go:noescape
func reluBackwardAVX2(dst, grad, x *float64, n int)

//go:noescape
func addAVX2(dst, a, b *float64, n int)

//go:noescape
func addReLUAVX2(dst, a, b *float64, n int)

//go:noescape
func bnTrainAVX2(out, x *float64, ld, n, c, s int, relu bool, mean, inv, gamma, beta *float64)

//go:noescape
func bnInferAVX2(out, x *float64, ld, n, c, s int, relu bool, gamma, mean, inv, beta *float64)

//go:noescape
func bnGradRowsAVX2(dY, dYT, x, dy, pack, bGrad *float64, fresh *uint64, ld, dyld, n, c, s int, m float64)

//go:noescape
func bnGradSumsAVX2(sumDy, sumDyXhat, x, dy, pack *float64, ld, n, c, s int)

//go:noescape
func fillRowsAVX2(dst *float64, ld, w int, vals *float64, rows int)
