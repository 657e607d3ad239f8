//go:build amd64 && !race

package lstm

// cpuHasGateAsm reports whether the CPU and OS support the assembly: AVX,
// FMA and AVX2 with the YMM state saved.
func cpuHasGateAsm() bool

// gateAVX2 applies op to src[0:n] into dst four lanes at a time and returns
// how many elements it wrote: a multiple of four, stopping before the first
// group with a lane outside op's fast domain or when fewer than four remain
// (gates_amd64.s).
//
//go:noescape
func gateAVX2(op gateOp, dst, src *float64, n int) int

// cellAVX2 runs the step's non-linearities and state update (see
// Cell.activate) for units 0..n−1 from the cursors, four at a time, and
// returns how many units it finished: a multiple of four, stopping before
// the first group with a lane outside a fast domain or when fewer than four
// remain. pre and act are gate-major with stride h; cs, hs and tc are the
// state's C, H and tanh(c) (gates_amd64.s).
//
//go:noescape
func cellAVX2(pre, act, tc, cs, hs *float64, h, n int) int
