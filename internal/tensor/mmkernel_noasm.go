//go:build !amd64 || race

package tensor

// No assembly in this build: every kernel runs its Go strips.
var level = levelGo

func noAsm() { panic("tensor: no assembly kernel in this build") }

func mmStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int) {
	noAsm()
}

func mmStrip1AVX2(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int) { noAsm() }

func mmShiftStrip4AVX2(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	noAsm()
}

func mmShiftStrip1AVX2(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	noAsm()
}

func mmRowsStrip4AVX2(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int) {
	noAsm()
}

func mmRowsStrip1AVX2(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int) { noAsm() }

func mmStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, bstride, kw, jw int) {
	noAsm()
}

func mmStrip1AVX512(out *float64, a *float64, aK int, b *float64, bstride, kw, jw int) { noAsm() }

func mmShiftStrip4AVX512(out *float64, ostride int, a *float64, aRow, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	noAsm()
}

func mmShiftStrip1AVX512(out *float64, a *float64, aK int, b *float64, mask *uint64, tab *int, kw, jw int) {
	noAsm()
}

func mmRowsStrip4AVX512(out *float64, ostride int, a *float64, rowOff, pOff *int, b *float64, bstride, kw, jw int) {
	noAsm()
}

func mmRowsStrip1AVX512(out *float64, a *float64, pOff *int, b *float64, bstride, kw, jw int) {
	noAsm()
}
