package tensor

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
)

// FuzzMMKernel is the differential fuzz target over the micro-kernel
// contract and its two table-addressed variants: mmKernel (form 0),
// mmKernelShift (1) and mmKernelRows (2), at random extents, strides,
// A layouts and table offsets, each operand a window at a random
// alignment in a backing slice whose margins hold a poisoned guard band.
// A well-formed call must give the same bits at every implementation level
// this build and CPU have as on the Go strips, change nothing in out but its
// rows' first jw lanes, and store nothing outside out's window. bad != 0
// turns the call into one malformation the wrapper is meant to reject — a
// short operand or table, an offset past its slice, a negative stride or
// table offset, or (bad 9) one of the form's strides, drawn, at which the
// far corner wraps past MaxInt to a small offset — which must panic on both
// kernels before out is touched.
func FuzzMMKernel(f *testing.F) {
	for form := uint8(0); form < 3; form++ {
		f.Add(form, uint8(5), uint8(7), uint8(6), uint8(3), uint8(0), uint64(form))
		f.Add(form, uint8(9), uint8(33), uint8(71), uint8(0x25), uint8(0), uint64(10+form))
		f.Add(form, uint8(4), uint8(1), uint8(13), uint8(0x81), uint8(0), uint64(20+form))
		for bad := uint8(1); bad <= 9; bad++ {
			f.Add(form, uint8(6), uint8(5), uint8(9), uint8(0x12), bad, uint64(30+form))
		}
		for which := uint64(1); which < 4; which++ { // the other strides bad 9 can wrap
			f.Add(form, uint8(6), uint8(5), uint8(9), uint8(0x12), uint8(9), which<<32|uint64(30+form))
		}
	}
	// Column counts at the AVX-512 level's edges: an eight-lane tail step,
	// a 16-column block and its neighbours, a 32-column block (the LSTM's
	// 4H) and its neighbours, a block plus a tail.
	for form := uint8(0); form < 3; form++ {
		for i, jw := range []uint8{8, 15, 16, 17, 31, 32, 33, 40} {
			f.Add(form, uint8(1+i%9), uint8(3+i), jw, uint8(i*0x13), uint8(0), uint64(50+i))
		}
	}
	// Row counts whose dispatch ends in the two-row strip (2, 3, 6, 7) at
	// block, tail and block-plus-tail widths of both assembly levels.
	for form := uint8(0); form < 3; form++ {
		for i, rows := range []uint8{2, 3, 6, 7} {
			for k, jw := range []uint8{5, 16, 33} {
				f.Add(form, rows, uint8(2+3*i+k), jw, uint8(i*0x29+k), uint8(0), uint64(70+4*i+k))
			}
		}
	}
	f.Fuzz(func(t *testing.T, form, rows8, kw8, jw8, shape, bad uint8, seed uint64) {
		form %= 3
		rows, kw, jw := int(rows8)%12, int(kw8)%48, int(jw8)%80
		slack, transA, off := int(shape)&7, shape&8 != 0, int(shape>>4)&3
		if bad%10 != 0 && (rows == 0 || kw == 0 || jw == 0) {
			t.Skip() // an empty extent returns before any check
		}
		bad %= 10
		r := rng.New(seed)
		family := nanFamilies[int(seed%uint64(len(nanFamilies)))]
		ostride, bstride := jw+slack, jw+(slack+1)%4
		farOut := max(rows-1, 0)*ostride + jw
		farB := max(kw-1, 0)*bstride + jw
		aRow, aK := kw+slack, 1
		if transA {
			aRow, aK = 1, rows+slack
		}
		farA := max(rows-1, 0)*aRow + max(kw-1, 0)*aK + 1

		outInit := make([]float64, farOut)
		hostile(r, outInit)
		a := newGuardedAt(farA, off)
		salt(r, a.win, family)
		b := newGuardedAt(farB+8*jw, (off+1)&3) // room for shift rows anywhere
		salt(r, b.win, family)

		var mask []uint64
		var tab []int
		var rt *rowTable
		var rowOff, pOff []int
		switch form {
		case 1:
			mask = make([]uint64, 3*jw+8)
			for i := range mask {
				if r.Intn(3) > 0 {
					mask[i] = ^uint64(0)
				}
			}
			tab = make([]int, 2*kw)
			for p := 0; p < kw; p++ {
				tab[2*p], tab[2*p+1] = r.Intn(len(b.win)-jw+1), r.Intn(len(mask)-jw+1)
			}
		case 2:
			rowOff, pOff = make([]int, rows), make([]int, kw)
			span := max(farA, 1)
			for i := range rowOff {
				rowOff[i] = r.Intn(span/2 + 1)
			}
			for i := range pOff {
				pOff[i] = r.Intn(span - span/2)
			}
		}

		// bad 9 wraps one stride: out's or a's row stride over rows, a's k
		// stride or b's over kw, among those the form has and whose extent
		// is at least 2.
		wrap := -1
		if bad == 9 {
			var can []int
			for i, ok := range []bool{rows >= 2, rows >= 2 && form != 2, kw >= 2 && form != 2, kw >= 2 && form != 1} {
				if ok {
					can = append(can, i)
				}
			}
			if len(can) == 0 {
				t.Skip()
			}
			wrap = can[int(seed>>32%uint64(len(can)))]
		}

		// call runs the form on out with the (possibly malformed) operands.
		call := func(out []float64) {
			aw, bw, ost, bst, ar, ak := a.win, b.win, ostride, bstride, aRow, aK
			switch wrap {
			case 0:
				ost = wrapStride(rows - 1)
			case 1:
				ar = wrapStride(rows - 1)
			case 2:
				ak = wrapStride(kw - 1)
			case 3:
				bst = wrapStride(kw - 1)
			}
			switch form {
			case 0:
				switch bad {
				case 1:
					out = out[:len(out)-1]
				case 2:
					aw = aw[:len(aw)-1]
				case 3:
					bw = bw[:farB-1]
				case 4:
					ost = -ost
				case 5:
					bst = -bst - 1
				case 6:
					ar = -ar - 1
				case 7:
					ak = -ak - 1
				}
				n := rows
				if bad == 8 {
					n++ // an extent past out (and a)
				}
				mmKernel(out, ost, aw, ar, ak, bw, bst, n, kw, jw)
			case 1:
				tb := append([]int(nil), tab...)
				switch bad {
				case 1:
					out = out[:len(out)-1]
				case 2:
					aw = aw[:len(aw)-1]
				case 3:
					tb = tb[:2*kw-1]
				case 4:
					tb[2*(kw-1)] = len(bw) - jw + 1
				case 5:
					tb[0] = -1
				case 6:
					tb[2*kw-1] = len(mask) - jw + 1
				case 7:
					tb[1] = -1
				case 8:
					ost = -ost
				}
				mmKernelShift(out, ost, aw, ar, ak, bw, mask, tb, rows, kw, jw)
			case 2:
				rtab := rt
				switch bad {
				case 1:
					out = out[:len(out)-1]
				case 2:
					aw = aw[:rtab.span-1]
				case 3:
					bw = bw[:farB-1]
				case 4:
					rtab = newRowTable(rowOff[:rows-1], pOff)
				case 5:
					rtab = newRowTable(rowOff, pOff[:kw-1])
				case 6:
					ost = -ost
				case 7:
					bst = -bst - 1
				case 8:
					ro := append([]int(nil), rowOff...)
					ro[rows-1] = -1
					rtab = newRowTable(ro, pOff) // must refuse the table itself
				}
				mmKernelRows(out, ost, aw, rtab, bw, bst, rows, kw, jw)
			}
		}
		if form == 2 {
			rt = newRowTable(rowOff, pOff)
			if rt.span > len(a.win) {
				t.Fatalf("span %d past a %d", rt.span, len(a.win))
			}
		}

		// run calls on a guarded copy of outInit at one kernel level and
		// checks what a call of its kind may and may not do.
		run := func(l int) guarded {
			out := newGuardedAt(len(outInit), (off+2)&3)
			copy(out.win, outInit)
			panicked := false
			func() {
				defer func() { panicked = recover() != nil }()
				atLevel(l, func() { call(out.win) })
			}()
			what := fmt.Sprintf("form %d rows %d kw %d jw %d bad %d level %s", form, rows, kw, jw, bad, levelNames[l])
			out.check(t, what)
			a.check(t, what+" (a)")
			b.check(t, what+" (b)")
			if bad != 0 {
				if !panicked {
					t.Fatalf("%s: malformed call did not panic", what)
				}
				if i := bitsEqual(out.win, outInit); i >= 0 {
					t.Fatalf("%s: out[%d] written before the panic", what, i)
				}
				return out
			}
			if panicked {
				t.Fatalf("%s: well-formed call panicked", what)
			}
			for row := 0; row < rows; row++ {
				for j := jw; j < ostride && row*ostride+j < len(outInit); j++ {
					if k := row*ostride + j; math.Float64bits(out.win[k]) != math.Float64bits(outInit[k]) {
						t.Fatalf("%s: wrote past jw in row %d", what, row)
					}
				}
			}
			return out
		}
		og := run(levelGo)
		for l := levelAVX2; l <= level; l++ {
			oa := run(l)
			if bad == 0 {
				if i := bitsEqual(oa.win, og.win); i >= 0 {
					t.Fatalf("form %d rows %d kw %d jw %d: out[%d] %s %x go %x", form, rows, kw, jw, i,
						levelNames[l], math.Float64bits(oa.win[i]), math.Float64bits(og.win[i]))
				}
			}
		}
	})
}
