//go:build amd64 && !race

package lstm

// cpuHasGateAsm reports whether the CPU and OS support gateAVX2: AVX, FMA
// and AVX2 with the YMM state saved.
func cpuHasGateAsm() bool

// gateAVX2 applies op to src[0:n] into dst four lanes at a time and returns
// how many elements it wrote: a multiple of four, stopping before the first
// group with a lane outside op's fast domain or when fewer than four remain
// (gates_amd64.s).
//
//go:noescape
func gateAVX2(op gateOp, dst, src *float64, n int) int
