//go:build !amd64 || race

package lstm

// No assembly in this build (another GOARCH, or -race, whose detector
// cannot see assembly loads and stores): the gates are always scalar math.

func cpuHasGateAsm() bool { return false }

func cellAVX2(pre, act, tc, cs, hs *float64, h, n int) int {
	panic("lstm: no assembly cell step in this build")
}
