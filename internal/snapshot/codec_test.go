package snapshot

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// encodeSample writes a fixed value sequence and returns the encoded stream.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	writeSample(w)
	return w.Bytes()
}

func writeSample(w *Writer) {
	w.U64(42)
	w.I64(-7)
	w.Int(123456)
	w.Bool(true)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(math.Copysign(0, -1))
	w.String("lc-asgd")
	w.F64s([]float64{1.5, -2.25, 0, math.MaxFloat64})
	w.Ints([]int{3, -1, 4})
	w.U64s([]uint64{9, 0, math.MaxUint64})
}

func TestCodecRoundTripBitExact(t *testing.T) {
	data := encodeSample(t)
	r := NewReader(data)
	if v := r.U64(); v != 42 {
		t.Fatalf("u64 %d", v)
	}
	if v := r.I64(); v != -7 {
		t.Fatalf("i64 %d", v)
	}
	if v := r.Int(); v != 123456 {
		t.Fatalf("int %d", v)
	}
	if !r.Bool() {
		t.Fatal("bool")
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("f64 %v", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Fatalf("-inf became %v", v)
	}
	// -0.0 must survive as exactly -0.0: bit-identity, not value equality.
	if bits := math.Float64bits(r.F64()); bits != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0.0 bits %x", bits)
	}
	if s := r.String(); s != "lc-asgd" {
		t.Fatalf("string %q", s)
	}
	f := r.F64s()
	if len(f) != 4 || f[0] != 1.5 || f[1] != -2.25 || f[2] != 0 || f[3] != math.MaxFloat64 {
		t.Fatalf("f64s %v", f)
	}
	if i := r.Ints(); len(i) != 3 || i[0] != 3 || i[1] != -1 || i[2] != 4 {
		t.Fatalf("ints %v", i)
	}
	if u := r.U64s(); len(u) != 3 || u[2] != math.MaxUint64 {
		t.Fatalf("u64s %v", u)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWriterResetStartsTheSameStream: a writer that encoded something else
// first and was Reset produces the bytes a fresh writer does, in the buffer it
// already had.
func TestWriterResetStartsTheSameStream(t *testing.T) {
	want := encodeSample(t)
	w := NewWriter()
	w.F64s(make([]float64, 100))
	before := &w.Bytes()[0]
	w.Reset()
	writeSample(w)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("a Reset writer's stream differs from a fresh writer's")
	}
	if &w.Bytes()[0] != before {
		t.Fatal("Reset dropped the writer's buffer")
	}
}

func TestCodecNaNPayloadPreserved(t *testing.T) {
	// A NaN with a nonstandard payload must round-trip bit-exactly.
	nan := math.Float64frombits(0x7ff80000deadbeef)
	w := NewWriter()
	w.F64(nan)
	r := NewReader(w.Bytes())
	if got := math.Float64bits(r.F64()); got != 0x7ff80000deadbeef {
		t.Fatalf("NaN payload %x", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	data := encodeSample(t)
	// Cut mid-payload: some read must report corruption, and Close with it.
	r := NewReader(data[:len(data)/2])
	for i := 0; i < 64 && r.Err() == nil; i++ {
		r.U64()
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err %v, want ErrCorrupt", r.Err())
	}
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("close err %v, want ErrCorrupt", err)
	}
}

// TestReaderRejectsTrailingBytes: a stream is exactly what its decoder
// reads. Bytes left over mean the two disagree about the format.
func TestReaderRejectsTrailingBytes(t *testing.T) {
	r := NewReader(append(encodeSample(t), 0, 0, 0, 0, 0, 0, 0, 0))
	if err := drainSample(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("close err %v, want ErrCorrupt for eight unread bytes", err)
	}
}

// TestReaderRejectsImplausibleLength: a length prefix is checked against the
// bytes the stream really has left, before anything is allocated from it —
// a small lie (a thousand elements in a 24-byte stream) fails like a big one.
func TestReaderRejectsImplausibleLength(t *testing.T) {
	for _, n := range []uint64{2, 1000, 1 << 40, math.MaxUint64} {
		w := NewWriter()
		w.U64(n) // masquerades as a length prefix
		w.U64(7)
		r := NewReader(w.Bytes())
		if v := r.F64s(); v != nil {
			t.Fatalf("decoded %d elements from a length prefix of %d", len(v), n)
		}
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("length %d: err %v, want ErrCorrupt", n, r.Err())
		}
	}
}

func TestF64sIntoValidatesLength(t *testing.T) {
	w := NewWriter()
	w.F64s([]float64{1, 2, 3})
	r := NewReader(w.Bytes())
	dst := make([]float64, 2)
	r.F64sInto(dst)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err %v, want ErrCorrupt on length mismatch", r.Err())
	}
}

// drainSample consumes the sample sequence and returns Close's verdict.
func drainSample(r *Reader) error {
	r.U64()
	r.I64()
	r.Int()
	r.Bool()
	r.F64()
	r.F64()
	r.F64()
	_ = r.String()
	r.F64s()
	r.Ints()
	r.U64s()
	return r.Close()
}

// codecCase is one walker under the Codec contract (see walkerCase).
type codecCase struct {
	name string
	run  func(t *testing.T)
}

// walkerCase checks one walker against the Writer method put that encodes
// its values: a writing walk of v emits exactly put's bytes and assigns
// nothing; a reading walk, into a value that starts as old, brings back v
// bit for bit (compared by re-encoding, so −0 and NaN payloads count) and
// stops where put's bytes end; and a read cut anywhere inside those bytes
// fails with ErrCorrupt and leaves the value as old. Each stream carries a
// two-word tail after the value, so a walker that checks a length against
// the bytes left sees some.
func walkerCase[T any](name string, v, old func() T, walk func(Codec, *T), put func(*Writer, T)) codecCase {
	encode := func(x T) []byte {
		w := NewWriter()
		put(w, x)
		return bytes.Clone(w.Bytes())
	}
	return codecCase{name, func(t *testing.T) {
		want := encode(v())
		w := NewWriter()
		x := v()
		walk(w.Codec(), &x)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%s: writing walk emits %x, the Writer %x", name, w.Bytes(), want)
		}
		if !bytes.Equal(encode(x), want) || w.Codec().Reading() || w.Codec().Err() != nil {
			t.Fatalf("%s: writing walk changed its value, reads or failed", name)
		}

		tail := NewWriter()
		tail.U64(0xfeed)
		tail.U64(0xbeef)
		r := NewReader(append(bytes.Clone(want), tail.Bytes()...))
		got := old()
		walk(r.Codec(), &got)
		if a, b := r.U64(), r.U64(); a != 0xfeed || b != 0xbeef || r.Close() != nil || !r.Codec().Reading() {
			t.Fatalf("%s: reading walk ended off the value's bytes: tail %#x %#x, %v", name, a, b, r.Err())
		}
		if !bytes.Equal(encode(got), want) {
			t.Fatalf("%s: round trip re-encodes to %x, want %x", name, encode(got), want)
		}

		unchanged := encode(old())
		for cut := 0; cut < len(want); cut++ {
			r := NewReader(want[:cut])
			got := old()
			walk(r.Codec(), &got)
			if err := r.Codec().Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at byte %d: err %v, want ErrCorrupt", name, cut, err)
			}
			if !bytes.Equal(encode(got), unchanged) {
				t.Fatalf("%s cut at byte %d: the failed read changed its value", name, cut)
			}
		}
	}}
}

// val returns a constructor of fresh copies of v.
func val[T any](v T) func() T { return func() T { return v } }

// TestCodecContract runs every walker through walkerCase, at the values a
// bit-exact codec is most likely to lose: −0, a NaN with a payload, both
// infinities, the extremes of each integer type.
func TestCodecContract(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff80000deadbeef)
	floats := func() []float64 { return []float64{negZero, nan, math.Inf(1), math.Inf(-1), math.MaxFloat64} }
	cases := []codecCase{
		walkerCase("U64", val(uint64(math.MaxUint64)), val(uint64(1)), Codec.U64, (*Writer).U64),
		walkerCase("I64", val(int64(math.MinInt64)), val(int64(1)), Codec.I64, (*Writer).I64),
		walkerCase("Int", val(-123456), val(1), Codec.Int, (*Writer).Int),
		walkerCase("Bool", val(true), val(false), Codec.Bool, (*Writer).Bool),
		walkerCase("F64 -0", val(negZero), val(1.5), Codec.F64, (*Writer).F64),
		walkerCase("F64 NaN payload", val(nan), val(1.5), Codec.F64, (*Writer).F64),
		walkerCase("F64 +Inf", val(math.Inf(1)), val(1.5), Codec.F64, (*Writer).F64),
		walkerCase("F64 -Inf", val(math.Inf(-1)), val(1.5), Codec.F64, (*Writer).F64),
		walkerCase("String", val("lc-asgd ✓"), val("old"), Codec.String, (*Writer).String),
		walkerCase("F64s", floats, val([]float64{9}), Codec.F64s, (*Writer).F64s),
		walkerCase("Ints", val([]int{3, -1, math.MaxInt}), val([]int{}), Codec.Ints, (*Writer).Ints),
		walkerCase("U64s", val([]uint64{0, math.MaxUint64}), val([]uint64{7, 7}), Codec.U64s, (*Writer).U64s),
		walkerCase("F64sInto", floats, func() []float64 { return []float64{1, 2, 3, 4, 5} },
			func(c Codec, p *[]float64) { c.F64sInto(*p) }, (*Writer).F64s),
		walkerCase("Len", val(2), val(0), func(c Codec, p *int) { c.Len(p, 8) }, (*Writer).Int),
	}
	for _, tc := range cases {
		tc.run(t)
	}

	// The two checks of a length: F64sInto's against the slice it fills, Len's
	// against the bytes left.
	w := NewWriter()
	w.F64s([]float64{1, 2, 3})
	r := NewReader(w.Bytes())
	dst := []float64{7, 7}
	r.Codec().F64sInto(dst)
	if !errors.Is(r.Err(), ErrCorrupt) || dst[0] != 7 || dst[1] != 7 {
		t.Fatalf("F64sInto of 3 values into 2: err %v, dst %v", r.Err(), dst)
	}
	w.Reset()
	w.Int(3)
	w.U64(1)
	w.U64(2)
	r = NewReader(w.Bytes())
	n := -1
	r.Codec().Len(&n, 8)
	if !errors.Is(r.Err(), ErrCorrupt) || n != -1 {
		t.Fatalf("Len of 3 words with 2 left: err %v, n %d", r.Err(), n)
	}
}
