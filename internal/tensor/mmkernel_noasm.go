//go:build !amd64 || race

package tensor

// No assembly in this build: mmKernel always takes the Go strips.
var useAVX2 = false

func mmStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}

func mmStrip1AVX2(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}

func mmShiftStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}

func mmShiftStrip1AVX2(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}

func mmRowsStrip4AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}

func mmRowsStrip1AVX2(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int) {
	panic("tensor: no assembly kernel in this build")
}
