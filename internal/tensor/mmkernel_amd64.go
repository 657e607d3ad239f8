//go:build amd64 && !race

package tensor

// level is the highest implementation level this CPU runs, read once at
// init from CPUID and XCR0. It is a variable only so in-package tests can
// lower it to compare the implementations. cpuFMA is whether CPUID reports
// FMA, which both assembly levels need (TestKernelLevel logs it).
var level, cpuFMA = cpuLevel()

func cpuLevel() (l int, fma bool)

//go:noescape
func mmStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip2AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip1AVX2(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmShiftStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmShiftStrip2AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmShiftStrip1AVX2(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmRowsStrip4AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmRowsStrip2AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmRowsStrip1AVX2(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip2AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmStrip1AVX512(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int)

//go:noescape
func mmShiftStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmShiftStrip2AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmShiftStrip1AVX512(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int)

//go:noescape
func mmRowsStrip4AVX512(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmRowsStrip2AVX512(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int)

//go:noescape
func mmRowsStrip1AVX512(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int)
