//go:build amd64 && !race

package tensor

// useAVX2 selects the assembly strips. It is a variable only so in-package
// tests can compare the two implementations.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func mmStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip1AVX2(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmShiftStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmShiftStrip1AVX2(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmRowsStrip4AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmRowsStrip1AVX2(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int)
