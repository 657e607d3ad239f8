//go:build !amd64 || race

package lstm

// No assembly in this build (another GOARCH, or -race, whose detector
// cannot see assembly loads and stores): the gates are always scalar math.

func cpuHasGateAsm() bool { return false }

func gateAVX2(op gateOp, dst, src *float64, n int) int {
	panic("lstm: no assembly gates in this build")
}
