//go:build amd64 && !race

package tensor

//go:noescape
func reluAVX2(dst, a *float64, n int)

//go:noescape
func reluBackwardAVX2(dst, grad, x *float64, n int)

//go:noescape
func addAVX2(dst, a, b *float64, n int)

//go:noescape
func addChannelBiasAVX2(dst, src *float64, n, c, s, srcStride int, bias *float64)

//go:noescape
func bnTrainAVX2(xhat, out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)

//go:noescape
func bnInferAVX2(out, x *float64, rows, c, s int, gamma, mean, inv, beta *float64)

//go:noescape
func bnInputGradAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64)
