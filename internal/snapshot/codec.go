// Package snapshot is the run-persistence layer of the reproduction: a
// versioned, deterministic binary codec for freezing training state
// (weights, RNG stream positions, predictor windows, clock time) with
// float64 values written as exact IEEE-754 bits, the sectioned checkpoint
// container built on it (container.go), and an on-disk experiment store
// (store.go) that keeps configs, checkpoints, learning curves and
// robustness tables in content-addressed run directories.
//
// The codec's contract is bit-exactness, not schema evolution: a snapshot
// restored into the engine that wrote it replays the remaining run
// float-bit-identically (see DESIGN.md "Persistence & resume"). A stream is
// a byte slice in memory — the bare body of one container section. The
// container owns everything around it: its magic and its one format version
// make foreign bytes and other formats fail loudly instead of corrupting a
// resume, and it checksums every section body against bit rot.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

var (
	// ErrBadMagic marks bytes that are not a checkpoint container at all.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion marks a container written in a format version other than
	// this build's — older or newer. Nothing reads one format under
	// another's layout; a resume that meets one re-runs its cell.
	ErrVersion = errors.New("snapshot: container format version this build does not read")
	// ErrChecksum marks bytes whose checksum does not match.
	ErrChecksum = errors.New("snapshot: checksum mismatch (corrupted snapshot)")
	// ErrCorrupt marks a structurally implausible stream (truncation, a
	// length prefix larger than the stream, an impossible value).
	ErrCorrupt = errors.New("snapshot: corrupted snapshot")
)

// Writer serializes values little-endian by appending to a byte slice, which
// cannot fail: call sites stay linear and take Bytes at the end.
type Writer struct{ b []byte }

// NewWriter starts an empty snapshot stream.
func NewWriter() *Writer { return &Writer{b: make([]byte, 0, 64)} }

// Reset starts the stream over in the buffer the writer already has — so
// whatever Bytes returned before is overwritten by what is written next,
// and a caller keeping it copies it out first.
func (w *Writer) Reset() { w.b = w.b[:0] }

// Bytes returns the stream written so far.
func (w *Writer) Bytes() []byte { return w.b }

// U64 writes a fixed 8-byte little-endian unsigned integer.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 writes a signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes a platform int as i64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one u64 (compactness is not a goal; determinism
// and simplicity are).
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// F64 writes a float64 as its exact IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// prefix writes a slice's length prefix and makes room for its n words, so a
// worker's whole weight vector costs one growth, not a doubling series.
func (w *Writer) prefix(n int) {
	w.b = slices.Grow(w.b, 8+8*n)
	w.U64(uint64(n))
}

// F64s writes a length-prefixed float64 slice, each element bit-exact.
func (w *Writer) F64s(v []float64) {
	w.prefix(len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(v []int) {
	w.prefix(len(v))
	for _, x := range v {
		w.Int(x)
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.prefix(len(v))
	for _, x := range v {
		w.U64(x)
	}
}

// Reader deserializes a snapshot stream held in memory. Errors are sticky:
// the first failure is remembered, every later read returns a zero value,
// and Close reports it — so decoders stay linear too. The bytes are not
// trusted: every count is checked against the bytes actually left before
// anything is allocated from it, so a hostile length prefix costs an error,
// never memory.
type Reader struct {
	b   []byte // the unread rest of the stream
	err error
}

// NewReader returns a reader positioned at the first value of stream b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// U64 reads a fixed 8-byte little-endian unsigned integer.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = fmt.Errorf("%w: truncated stream", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// I64 reads a signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a platform int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// F64 reads a float64 from its exact bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads the element count of a list whose elements take at least
// width bytes each and checks that the rest of the stream can hold them; it
// returns 0 (and fails the reader) when it cannot. The slice readers below
// go through it, and so should a decoder that sizes anything from a count
// it wrote with Int.
func (r *Reader) Count(width int) int {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.b)/width) {
		r.err = fmt.Errorf("%w: %d elements promised, %d bytes left", ErrCorrupt, n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// words reads a length-prefixed slice of 8-byte values.
func words[T any](r *Reader, from func(uint64) T) []T {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = from(r.U64())
	}
	return v
}

// F64s reads a length-prefixed float64 slice.
func (r *Reader) F64s() []float64 { return words(r, math.Float64frombits) }

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int { return words(r, func(v uint64) int { return int(int64(v)) }) }

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 { return words(r, func(v uint64) uint64 { return v }) }

// F64sInto reads a length-prefixed float64 slice into dst, requiring the
// stored length to match — the shape-validated restore path for buffers the
// engine has already allocated.
func (r *Reader) F64sInto(dst []float64) {
	n := r.Count(8)
	if r.err == nil && n != len(dst) {
		r.err = fmt.Errorf("%w: stored %d values, want %d", ErrCorrupt, n, len(dst))
	}
	if r.err != nil {
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Fail injects err as the sticky error (used by callers that detect a
// semantic inconsistency — wrong worker count, mismatched layer shapes —
// while decoding).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Close must be called after the last payload value. It returns the sticky
// error, or ErrCorrupt when the stream holds bytes no decoder asked for.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	return r.err
}

// Codec is one pass over a value's fields that writes them when built on a
// Writer and reads them back when built on a Reader, so a type states its
// format once, in a single walk, instead of in an encoder and a restorer
// kept in step by hand. Each walker takes a pointer: writing reads through
// it, reading stores through it — unless the read fails, which leaves the
// pointee unchanged. Whatever only a restore does (checking the bytes,
// rebuilding derived state) sits under Reading; a writing walk assigns
// nothing, so taking a snapshot leaves the value exactly as it was.
//
// Codec is a value of two pointers, one of them nil: passing it allocates
// nothing.
type Codec struct {
	w *Writer
	r *Reader
}

// Codec returns the writing side of a walk over w.
func (w *Writer) Codec() Codec { return Codec{w: w} }

// Codec returns the reading side of a walk over r.
func (r *Reader) Codec() Codec { return Codec{r: r} }

// walk is every scalar and slice walker: put *p, or get it back.
func walk[T any](c Codec, p *T, put func(*Writer, T), get func(*Reader) T) {
	if c.w != nil {
		put(c.w, *p)
		return
	}
	if v := get(c.r); c.r.err == nil {
		*p = v
	}
}

// The walkers below each walk one value the way the Writer and Reader
// methods of the same name encode it.

func (c Codec) U64(p *uint64)     { walk(c, p, (*Writer).U64, (*Reader).U64) }
func (c Codec) I64(p *int64)      { walk(c, p, (*Writer).I64, (*Reader).I64) }
func (c Codec) Int(p *int)        { walk(c, p, (*Writer).Int, (*Reader).Int) }
func (c Codec) Bool(p *bool)      { walk(c, p, (*Writer).Bool, (*Reader).Bool) }
func (c Codec) F64(p *float64)    { walk(c, p, (*Writer).F64, (*Reader).F64) }
func (c Codec) String(p *string)  { walk(c, p, (*Writer).String, (*Reader).String) }
func (c Codec) F64s(p *[]float64) { walk(c, p, (*Writer).F64s, (*Reader).F64s) }
func (c Codec) Ints(p *[]int)     { walk(c, p, (*Writer).Ints, (*Reader).Ints) }
func (c Codec) U64s(p *[]uint64)  { walk(c, p, (*Writer).U64s, (*Reader).U64s) }

// Len walks the length of a list whose elements take at least width bytes
// each; reading checks it against the bytes left, as Reader.Count does.
func (c Codec) Len(p *int, width int) {
	walk(c, p, (*Writer).Int, func(r *Reader) int { return r.Count(width) })
}

// F64sInto walks a float64 slice of a length both sides know: reading fills
// dst in place and fails on a stored length that differs.
func (c Codec) F64sInto(dst []float64) {
	if c.w != nil {
		c.w.F64s(dst)
	} else {
		c.r.F64sInto(dst)
	}
}

// Reading reports whether the walk restores, and so checks what it reads.
func (c Codec) Reading() bool { return c.r != nil }

// Err is the reading side's sticky error; a writing walk cannot fail.
func (c Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// Fail makes err the reading side's sticky error (see Reader.Fail). Only a
// reading walk checks anything, so only it may fail.
func (c Codec) Fail(err error) { c.r.Fail(err) }
