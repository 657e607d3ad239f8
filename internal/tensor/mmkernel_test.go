package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lcasgd/internal/rng"
)

// The assembly and Go strips implement one contract and must be
// interchangeable bit for bit. These tests run the same call at each
// assembly level and on the Go strips by lowering level (the detection
// result) in-package; a level this build or CPU lacks is skipped with the
// reason logged.

var levelNames = [...]string{levelGo: "go", levelAVX2: "avx2", levelAVX512: "avx512"}

// needLevel skips t unless this build and CPU run level l.
func needLevel(t testing.TB, l int) {
	if level < l {
		t.Skipf("no %s kernel in this build or on this CPU (it runs %s)", levelNames[l], levelNames[level])
	}
}

func needAsm(t testing.TB) { needLevel(t, levelAVX2) }

// atLevel runs f with the kernels lowered to level l.
func atLevel(l int, f func()) {
	old := level
	level = min(l, old)
	defer func() { level = old }()
	f()
}

// withGoKernel runs f on the Go strips.
func withGoKernel(f func()) { atLevel(levelGo, f) }

// eachAsmLevel runs f as one subtest per assembly level, at that level;
// the subtest of a level this build or CPU lacks skips.
func eachAsmLevel(t *testing.T, f func(t *testing.T)) {
	for l := levelAVX2; l <= levelAVX512; l++ {
		t.Run(levelNames[l], func(t *testing.T) {
			needLevel(t, l)
			atLevel(l, func() { f(t) })
		})
	}
}

// TestKernelLevel logs the level the kernels run at in this build on this
// CPU, so a CI log shows which strips a runner exercised.
func TestKernelLevel(t *testing.T) {
	if level < levelGo || level > levelAVX512 {
		t.Fatalf("level %d is not a kernel level", level)
	}
	t.Logf("GEMM micro-kernel level: %s (GOARCH %s)", levelNames[level], runtime.GOARCH)
}

// hostile fills s with normals salted with what a vector kernel could get
// wrong if lanes were not independent IEEE operations: about a third exact
// zeros of both signs, and denormals.
func hostile(g *rng.RNG, s []float64) {
	g.FillNormal(s, 1)
	for i := range s {
		switch u := g.Float64(); {
		case u < 0.30:
			s[i] = 0
		case u < 0.34:
			s[i] = math.Copysign(0, -1)
		case u < 0.40:
			s[i] *= math.SmallestNonzeroFloat64 * 1024
		}
	}
}

// bitsEqual returns the first index where a and b differ as bit patterns
// (so -0 != +0), or -1.
func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMMKernelAsmMatchesGoGrid compares mmKernel's strips at each
// assembly level with the Go strips bit for bit over rows 1-9 × k × jw
// 1-40 (every opmask and VMASKMOVPD tail width and block edge) and wider,
// both A layouts, on a dirty out. Strides exceed jw, so the kernels must
// leave the gaps (another tile's columns) alone; the windows of out and b
// end where a poisoned guard band begins, so a masked lane that loaded or
// stored past the last row would show.
func TestMMKernelAsmMatchesGoGrid(t *testing.T) {
	eachAsmLevel(t, func(t *testing.T) {
		ks := []int{108, 216, 432}
		ws := []int{63, 64, 65, 128, 1152}
		for i := 1; i <= 40; i++ {
			ks = append(ks, i)
			ws = append(ws, i)
		}
		const maxRows, maxK, maxW, pad = 9, 432, 1152, 3
		g := rng.New(211)
		aPool := make([]float64, maxRows*maxK)
		oPool := make([]float64, maxRows*(maxW+pad))
		hostile(g, aPool)
		hostile(g, oPool)
		b := newGuarded(maxK * (maxW + pad))
		hostile(g, b.win)
		outAsm, outGo := newGuarded(len(oPool)), newGuarded(len(oPool))
		for rows := 1; rows <= maxRows; rows++ {
			for _, k := range ks {
				for _, jw := range ws {
					ostride, bstride := jw+pad, jw+pad-1
					nOut, nB := (rows-1)*ostride+jw, (k-1)*bstride+jw
					bw := b.win[len(b.win)-nB:]
					oa, og := outAsm.win[len(outAsm.win)-nOut:], outGo.win[len(outGo.win)-nOut:]
					for _, transA := range []bool{false, true} {
						aRow, aK := k, 1 // row-major a [rows, k]
						if transA {
							aRow, aK = 1, rows // a [k, rows], read transposed
						}
						a := aPool[:rows*k]
						copy(oa, oPool)
						copy(og, oPool)
						mmKernel(oa, ostride, a, aRow, aK, bw, bstride, rows, k, jw)
						withGoKernel(func() { mmKernel(og, ostride, a, aRow, aK, bw, bstride, rows, k, jw) })
						what := fmt.Sprintf("rows=%d k=%d jw=%d transA=%v", rows, k, jw, transA)
						outAsm.check(t, what)
						b.check(t, what+" (b)")
						if i := bitsEqual(oa, og); i >= 0 {
							t.Fatalf("%s: out[%d] asm %x go %x", what, i, math.Float64bits(oa[i]), math.Float64bits(og[i]))
						}
						for r := 0; r < rows-1; r++ {
							if i := bitsEqual(oa[r*ostride+jw:(r+1)*ostride], oPool[r*ostride+jw:(r+1)*ostride]); i >= 0 {
								t.Fatalf("%s: wrote past jw in row %d", what, r)
							}
						}
					}
				}
			}
		}
	})
}

// TestMMKernelShiftAsmMatchesGo compares mmKernelShift's strips at each
// assembly level with the Go strips bit for bit over a rows × kw × jw grid
// (jw 1-40 and wider) on a dirty out. Each b row sits at a random offset
// in its own stretch of b — the last one flush against b's guard band —
// and each mask row is one of three shared lane masks at a random offset;
// every b lane its mask clears holds NaN, ±Inf or −0, which must reach the
// chain as +0. out's window ends at its guard band.
func TestMMKernelShiftAsmMatchesGo(t *testing.T) {
	eachAsmLevel(t, func(t *testing.T) {
		kws := []int{27, 54, 108, 216}
		jws := []int{63, 64, 65, 128, 300}
		for i := 1; i <= 40; i++ {
			kws = append(kws, i)
			jws = append(jws, i)
		}
		const maxRows, maxK, maxW, slack = 9, 216, 300, 5
		g := rng.New(229)
		aPool := make([]float64, maxRows*maxK)
		oPool := make([]float64, maxRows*(maxW+slack))
		hostile(g, aPool)
		hostile(g, oPool)
		mask := make([]uint64, 3*(maxW+slack))
		for i := range mask {
			if g.Intn(3) > 0 {
				mask[i] = ^uint64(0)
			}
		}
		poison := []float64{math.NaN(), math.Float64frombits(0xfff4_0000_0bad_0001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		tab := make([]int, 2*maxK)
		for _, kw := range kws {
			for _, jw := range jws {
				b := newGuarded(kw * (jw + slack))
				hostile(g, b.win)
				for p := 0; p < kw; p++ {
					o, m := p*(jw+slack)+g.Intn(slack+1), g.Intn(3)*(jw+slack)+g.Intn(slack+1)
					if p == kw-1 {
						o = len(b.win) - jw
					}
					tab[2*p], tab[2*p+1] = o, m
					for j := 0; j < jw; j++ {
						if mask[m+j] == 0 {
							b.win[o+j] = poison[g.Intn(len(poison))]
						}
					}
				}
				ostride := jw + slack
				for rows := 1; rows <= maxRows; rows++ {
					for _, transA := range []bool{false, true} {
						aRow, aK := kw, 1
						if transA {
							aRow, aK = 1, rows
						}
						a := aPool[:rows*kw]
						n := (rows-1)*ostride + jw
						oa, og := newGuarded(n), newGuarded(n)
						copy(oa.win, oPool)
						copy(og.win, oPool)
						mmKernelShift(oa.win, ostride, a, aRow, aK, b.win, mask, tab, rows, kw, jw)
						withGoKernel(func() { mmKernelShift(og.win, ostride, a, aRow, aK, b.win, mask, tab, rows, kw, jw) })
						what := fmt.Sprintf("rows=%d kw=%d jw=%d transA=%v", rows, kw, jw, transA)
						oa.check(t, what)
						b.check(t, what+" (b)")
						if i := bitsEqual(oa.win, og.win); i >= 0 {
							t.Fatalf("%s: out[%d] asm %x go %x", what, i, math.Float64bits(oa.win[i]), math.Float64bits(og.win[i]))
						}
						for i, v := range og.win {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s: out[%d] = %v, a masked lane reached the chain", what, i, v)
							}
						}
						for r := 0; r < rows-1; r++ {
							if i := bitsEqual(oa.win[r*ostride+jw:(r+1)*ostride], oPool[r*ostride+jw:(r+1)*ostride]); i >= 0 {
								t.Fatalf("%s: wrote past jw in row %d", what, r)
							}
						}
					}
				}
			}
		}
	})
}

// nanFamilies are the operands besides finite normals that a rows-kernel
// test salts a with, one family per case: quiet NaN, signalling NaN, and
// ±Inf (whose products with zero and sums of opposite signs make the
// default NaN). IEEE 754 leaves open which payload an operation returns
// when both operands are NaN, and the Go compiler may swap the operands of
// a commutative add, so a chain that meets two different payloads has no
// defined bits; within one family every NaN a chain can meet has the same
// payload. −0 and subnormals join every family.
var nanFamilies = [][]float64{
	{math.NaN()},
	{math.Float64frombits(0xfff4_0000_0bad_0001)},
	{math.Inf(1), math.Inf(-1)},
}

// salt fills s with hostile normals and about one in eight entries from
// family, −0 or a subnormal.
func salt(g *rng.RNG, s, family []float64) {
	hostile(g, s)
	extra := append([]float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64}, family...)
	for i := range s {
		if g.Intn(8) == 0 {
			s[i] = extra[g.Intn(len(extra))]
		}
	}
}

// TestMMKernelRowsAsmMatchesGo compares mmKernelRows' strips at each
// assembly level with the Go strips bit for bit over rows 1-9 × kw × jw
// 1-40 (and wider) on a dirty out whose rows have guard gaps between them
// and whose window, like b's, ends at a guard band, and the Go strips with
// the contract's scalar loop. Row and step offsets are random, so rows and steps overlap
// the way a convolution's taps do; a holds each NaN family in turn, and
// nothing outside out's window may be written.
func TestMMKernelRowsAsmMatchesGo(t *testing.T) {
	eachAsmLevel(t, func(t *testing.T) {
		kws := []int{1, 2, 3, 4, 7, 16, 36, 64, 144}
		jws := []int{63, 64, 65, 128}
		for i := 1; i <= 40; i++ {
			jws = append(jws, i)
		}
		const maxRows, maxK, maxW, gap, aLen = 9, 144, 128, 3, 700
		g := rng.New(233)
		a := make([]float64, aLen)
		bPool := make([]float64, maxK*maxW)
		hostile(g, bPool)
		oPool := make([]float64, maxRows*(maxW+gap))
		hostile(g, oPool)
		rowOff, pOff := make([]int, maxRows), make([]int, maxK)
		for ci, kw := range kws {
			salt(g, a, nanFamilies[ci%len(nanFamilies)])
			for i := range rowOff {
				rowOff[i] = g.Intn(aLen / 2)
			}
			for i := range pOff {
				pOff[i] = g.Intn(aLen / 2)
			}
			tab := newRowTable(rowOff, pOff[:kw])
			for _, jw := range jws {
				ostride, bstride := jw+gap, jw
				bg := newGuarded(kw * bstride)
				b := bg.win
				copy(b, bPool)
				for rows := 1; rows <= maxRows; rows++ {
					n := (rows-1)*ostride + jw
					oa, og := newGuarded(n), newGuarded(n)
					copy(oa.win, oPool)
					copy(og.win, oPool)
					mmKernelRows(oa.win, ostride, a, tab, b, bstride, rows, kw, jw)
					withGoKernel(func() { mmKernelRows(og.win, ostride, a, tab, b, bstride, rows, kw, jw) })
					what := fmt.Sprintf("rows=%d kw=%d jw=%d", rows, kw, jw)
					oa.check(t, what+" (asm)")
					og.check(t, what+" (go)")
					bg.check(t, what+" (b)")
					if i := bitsEqual(oa.win, og.win); i >= 0 {
						t.Fatalf("%s: out[%d] asm %x go %x", what, i, math.Float64bits(oa.win[i]), math.Float64bits(og.win[i]))
					}
					for r := 0; r < rows; r++ {
						for j := 0; j < ostride && r*ostride+j < n; j++ {
							want := oPool[r*ostride+j]
							if j < jw {
								s := 0.0
								for p := 0; p < kw; p++ {
									s += a[rowOff[r]+pOff[p]] * b[p*bstride+j]
								}
								want += s
							}
							if got := og.win[r*ostride+j]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: out[%d][%d] = %x, want %x", what, r, j,
									math.Float64bits(got), math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	})
}

// TestMMKernelEmptyExtents: the assembly loops are do-while, so the wrapper
// must return before them when there is nothing to do.
func TestMMKernelEmptyExtents(t *testing.T) {
	for _, goKernel := range []bool{false, true} {
		run := func() {
			out := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			want := append([]float64(nil), out...)
			a, b := []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 2, 3, 4}
			mmKernel(out, 2, a, 2, 1, b, 2, 0, 2, 2) // rows == 0
			mmKernel(out, 2, a, 2, 1, b, 2, 4, 0, 2) // kw == 0
			mmKernel(out, 2, a, 2, 1, b, 2, 4, 2, 0) // jw == 0
			mmKernel(nil, 0, nil, 0, 1, nil, 0, 0, 0, 0)
			if i := bitsEqual(out, want); i >= 0 {
				t.Fatalf("goKernel=%v: empty extent wrote out[%d]", goKernel, i)
			}
		}
		if goKernel {
			withGoKernel(run)
		} else {
			run()
		}
	}
	for _, dims := range [][3]int{{0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {0, 300, 130}, {0, 0, 0}} {
		m, k, n := dims[0], dims[1], dims[2]
		MatMulInto(New(m, n), New(m, k), New(k, n))
		MatMulTransAInto(New(m, n), New(k, m), New(k, n))
	}
}

// wrapStride returns a stride s ≥ 0 at which m·s, m ≥ 1, or m·s plus a
// few floats overflows int, so that a far-corner check that multiplies
// first sees a small index: m·s wraps to [0, m) for m ≥ 3 and to −2 at
// m = 2, and m·s + 1 to MinInt at m = 1.
func wrapStride(m int) int {
	if m < 3 {
		return math.MaxInt
	}
	return int(uint(math.MaxUint)/uint(m) + 1)
}

// TestMMKernelBoundsPanics: a far corner past any operand must panic in the
// Go wrapper — before a pointer reaches assembly — and leave out untouched,
// also where the corner's offset wraps past MaxInt to a small index.
func TestMMKernelBoundsPanics(t *testing.T) {
	const rows, k, jw = 5, 3, 9
	wrapR, wrapK := wrapStride(rows-1), wrapStride(k-1)
	ok := func() (out, a, b []float64) {
		return make([]float64, rows*jw), make([]float64, rows*k), make([]float64, k*jw)
	}
	for name, call := range map[string]func(out, a, b []float64){
		"out short":      func(out, a, b []float64) { mmKernel(out[:len(out)-1], jw, a, k, 1, b, jw, rows, k, jw) },
		"a short":        func(out, a, b []float64) { mmKernel(out, jw, a[:len(a)-1], k, 1, b, jw, rows, k, jw) },
		"a short transA": func(out, a, b []float64) { mmKernel(out, jw, a[:len(a)-1], 1, rows, b, jw, rows, k, jw) },
		"b short":        func(out, a, b []float64) { mmKernel(out, jw, a, k, 1, b[:len(b)-1], jw, rows, k, jw) },
		"out stride":     func(out, a, b []float64) { mmKernel(out, jw+1, a, k, 1, b, jw, rows, k, jw) },
		"b stride":       func(out, a, b []float64) { mmKernel(out, jw, a, k, 1, b, jw+1, rows, k, jw) },
		"negative":       func(out, a, b []float64) { mmKernel(out, -jw, a, k, 1, b, jw, rows, k, jw) },
		"out stride wraps": func(out, a, b []float64) {
			mmKernel(out, wrapStride(3), a, k, 1, b, jw, 4, k, 1) // 3·stride ≡ 2: out[2] is in bounds
		},
		"out stride wraps, 5 rows": func(out, a, b []float64) { mmKernel(out, wrapR, a, k, 1, b, jw, rows, k, jw) },
		"a row stride wraps":       func(out, a, b []float64) { mmKernel(out, jw, a, wrapR, 1, b, jw, rows, k, jw) },
		"a k stride wraps":         func(out, a, b []float64) { mmKernel(out, jw, a, 1, wrapK, b, jw, rows, k, jw) },
		"b stride wraps":           func(out, a, b []float64) { mmKernel(out, jw, a, k, 1, b, wrapK, rows, k, jw) },
	} {
		out, a, b := ok()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call(out, a, b)
		}()
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%s: out[%d] written before the panic", name, i)
			}
		}
	}
	// mmKernelShift: every row's b and mask offsets are checked, so a table
	// entry past its slice panics instead of loading.
	okShift := func() (out, a, b []float64, mask []uint64, tab []int) {
		tab = make([]int, 2*k)
		for p := 0; p < k; p++ {
			tab[2*p], tab[2*p+1] = p*jw, jw
		}
		return make([]float64, rows*jw), make([]float64, rows*k), make([]float64, k*jw), make([]uint64, 2*jw), tab
	}
	for name, call := range map[string]func(out, a, b []float64, mask []uint64, tab []int){
		"shift out short": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out[:len(out)-1], jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift a short": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, jw, a[:len(a)-1], k, 1, b, mask, tab, rows, k, jw)
		},
		"shift tab short": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, jw, a, k, 1, b, mask, tab[:2*k-1], rows, k, jw)
		},
		"shift b offset past b": func(out, a, b []float64, mask []uint64, tab []int) {
			tab[2*(k-1)]++
			mmKernelShift(out, jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift b offset negative": func(out, a, b []float64, mask []uint64, tab []int) {
			tab[0] = -1
			mmKernelShift(out, jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift b offset huge": func(out, a, b []float64, mask []uint64, tab []int) {
			tab[2] = math.MaxInt - 2
			mmKernelShift(out, jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift mask offset past mask": func(out, a, b []float64, mask []uint64, tab []int) {
			tab[3] = jw + 1
			mmKernelShift(out, jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift mask offset negative": func(out, a, b []float64, mask []uint64, tab []int) {
			tab[1] = -1
			mmKernelShift(out, jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift negative stride": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, -jw, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift out stride wraps": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, wrapR, a, k, 1, b, mask, tab, rows, k, jw)
		},
		"shift a row stride wraps": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, jw, a, wrapR, 1, b, mask, tab, rows, k, jw)
		},
		"shift a k stride wraps": func(out, a, b []float64, mask []uint64, tab []int) {
			mmKernelShift(out, jw, a, 1, wrapK, b, mask, tab, rows, k, jw)
		},
	} {
		out, a, b, mask, tab := okShift()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call(out, a, b, mask, tab)
		}()
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%s: out[%d] written before the panic", name, i)
			}
		}
	}

	// mmKernelRows: the tables' lengths and span are checked against the
	// call, so a short table or an a shorter than the span panics instead
	// of loading.
	okRows := func() (out, a, b []float64, tab *rowTable) {
		rowOff, pOff := make([]int, rows), make([]int, k)
		for r := range rowOff {
			rowOff[r] = 2 * r
		}
		for p := range pOff {
			pOff[p] = p
		}
		tab = newRowTable(rowOff, pOff)
		return make([]float64, rows*jw), make([]float64, tab.span), make([]float64, k*jw), tab
	}
	for name, call := range map[string]func(out, a, b []float64, tab *rowTable){
		"rows span past a": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a[:tab.span-1], tab, b, jw, rows, k, jw)
		},
		"rows rowOff short": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, b, jw, rows+1, k, jw)
		},
		"rows pOff short": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, make([]float64, (k+1)*jw), jw, rows, k+1, jw)
		},
		"rows out short": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out[:len(out)-1], jw, a, tab, b, jw, rows, k, jw)
		},
		"rows out stride": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw+1, a, tab, b, jw, rows, k, jw)
		},
		"rows b short": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, b[:len(b)-1], jw, rows, k, jw)
		},
		"rows b stride": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, b, jw+1, rows, k, jw)
		},
		"rows negative out stride": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, -jw, a, tab, b, jw, rows, k, jw)
		},
		"rows negative b stride": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, b, -jw, rows, k, jw)
		},
		"rows out stride wraps": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, wrapR, a, tab, b, jw, rows, k, jw)
		},
		"rows b stride wraps": func(out, a, b []float64, tab *rowTable) {
			mmKernelRows(out, jw, a, tab, b, wrapK, rows, k, jw)
		},
	} {
		out, a, b, tab := okRows()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call(out, a, b, tab)
		}()
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%s: out[%d] written before the panic", name, i)
			}
		}
	}
	// The table's constructor refuses what would let span understate an
	// index: a negative offset, or a span past MaxInt.
	for name, tabs := range map[string][2][]int{
		"negative row offset":  {{0, -1}, {0}},
		"negative step offset": {{0}, {3, -2}},
		"span past MaxInt":     {{math.MaxInt / 2}, {math.MaxInt/2 + 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newRowTable %s: expected panic", name)
				}
			}()
			newRowTable(tabs[0], tabs[1])
		}()
	}
}

// resnetConvs lists the (geometry, OutC) of every convolution of a
// model.Config-shaped ResNetLite: stem, then per block c1, c2 and the 1x1
// projection where the shape changes (mirrors model.Config.Build, which
// this package cannot import).
func resnetConvs(in, stem int, reps []int) (geoms []ConvGeom, outCs []int) {
	add := func(g ConvGeom, outC int) { geoms, outCs = append(geoms, g), append(outCs, outC) }
	add(ConvGeom{InC: 3, InH: in, InW: in, KH: 3, KW: 3, Stride: 1, Pad: 1}, stem)
	h, ch := in, stem
	for si, n := range reps {
		outCh := stem << si
		for r := 0; r < n; r++ {
			stride := 1
			if si > 0 && r == 0 {
				stride = 2
			}
			g1 := ConvGeom{InC: ch, InH: h, InW: h, KH: 3, KW: 3, Stride: stride, Pad: 1}
			add(g1, outCh)
			add(ConvGeom{InC: outCh, InH: g1.OutH(), InW: g1.OutW(), KH: 3, KW: 3, Stride: 1, Pad: 1}, outCh)
			if stride != 1 || ch != outCh {
				add(ConvGeom{InC: ch, InH: h, InW: h, KH: 1, KW: 1, Stride: stride, Pad: 0}, outCh)
			}
			h, ch = g1.OutH(), outCh
		}
	}
	return geoms, outCs
}

// TestMMKernelProfileShapes drives every GEMM the four experiment profiles
// emit — per conv layer the forward Y [OutC, G*HW] = Wᵀ @ panel (the
// transposed-A product, or its masked-row form on a same-size layer), the
// input gradient (W @ dY, or one W_tap @ dY per tap on a same-size layer)
// and the weight gradient (one row-table call per image), at the full group
// and at the batch's short last group, plus the dense head's forward
// product and weight gradient — through the exported entry points at each
// assembly level and on the Go strips.
func TestMMKernelProfileShapes(t *testing.T) {
	eachAsmLevel(t, func(t *testing.T) {
		g := rng.New(223)
		mat := func(r, c int) *Tensor {
			m := New(r, c)
			hostile(g, m.Data)
			return m
		}
		both := func(what string, dst *Tensor, f func()) {
			dst.Fill(99)
			f()
			asm := append([]float64(nil), dst.Data...)
			dst.Fill(99)
			withGoKernel(f)
			if i := bitsEqual(asm, dst.Data); i >= 0 {
				t.Fatalf("%s: element %d asm %x go %x", what, i, math.Float64bits(asm[i]), math.Float64bits(dst.Data[i]))
			}
		}
		for _, p := range []struct {
			name              string
			in, stem          int
			reps              []int
			batch, hid, class int
		}{
			{"cifar-quick", 8, 6, []int{1, 1, 1}, 20, 24, 10},
			{"cifar-full", 8, 8, []int{2, 2, 2}, 50, 32, 10},
			{"imagenet-quick", 12, 8, []int{1, 1, 1}, 27, 32, 27},
			{"imagenet-full", 12, 12, []int{3, 4, 3}, 50, 48, 27},
		} {
			geoms, outCs := resnetConvs(p.in, p.stem, p.reps)
			for li, geom := range geoms {
				outC, k, hw := outCs[li], geom.ColCols(), geom.ColRows()
				low := NewConvLowering(geom, outC)
				w := mat(k, outC)
				for _, n := range []int{low.Group(), p.batch % low.Group()} {
					if n == 0 {
						continue
					}
					cols := n * hw
					what := fmt.Sprintf("%s conv %d (%+v outC %d) n=%d", p.name, li, geom, outC, n)
					x, dY := mat(n, geom.InC*geom.InH*geom.InW), mat(outC, cols)
					y, dx := New(outC, cols), New(n, geom.InC*geom.InH*geom.InW)
					both(what+" forward", y, func() { low.Forward(y.Data, cols, w.Data, x.Data, n) })
					both(what+" input grad", dx, func() { low.InputGrad(dx.Data, w.Data, dY.Data, n) })
					dYT, wGrad := mat(cols, outC), New(k, outC)
					both(what+" weight grad", wGrad, func() { low.WeightGrad(wGrad.Data, x.Data, dYT.Data, n) })
				}
			}
			x, w, dY := mat(p.batch, p.hid), mat(p.hid, p.class), mat(p.batch, p.class)
			y, dW := New(p.batch, p.class), New(p.hid, p.class)
			both(p.name+" head forward", y, func() { MatMulInto(y, x, w) })
			both(p.name+" head weight grad", dW, func() { MatMulTransAInto(dW, x, dY) })
		}
	})
}
