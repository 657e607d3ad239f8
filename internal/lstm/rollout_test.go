package lstm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lcasgd/internal/rng"
)

// steppedRollout is PredictAhead by its definition: every step of the
// roll-out through Cell.Step, on recurrent states of its own. It returns
// the outputs and the final states.
func steppedRollout(n *Network, input []float64, k int, feedback func(float64) []float64) ([]float64, []State) {
	st := make([]State, len(n.Cells))
	for li, c := range n.Cells {
		st[li] = NewState(c.H)
	}
	run := func(x []float64) float64 {
		for li, c := range n.Cells {
			c.Step(x, st[li], nil)
			x = st[li].H
		}
		return n.head(x)
	}
	for t := 0; t < n.count; t++ {
		run(n.rows[t])
	}
	outs := make([]float64, k)
	outs[0] = run(input)
	for i := 1; i < k; i++ {
		outs[i] = run(feedback(outs[i-1]))
	}
	return outs, st
}

// rolloutFeedback maps an output to an X-wide input: the output, then
// fixed features. Calls from, from+1 and from+2 (counting from 1, the call
// before step 1) add 0.5 to the output instead, an input that changes
// mid-roll-out; from ≤ 0 never does.
func rolloutFeedback(x, from int) func(float64) []float64 {
	buf, calls := make([]float64, x), 0
	return func(out float64) []float64 {
		calls++
		if from > 0 && calls >= from && calls < from+3 {
			out += 0.5
		}
		buf[0] = out
		for j := 1; j < x; j++ {
			buf[j] = 0.25 * float64(j)
		}
		return buf
	}
}

// Bias modes of rolloutNet.
const (
	biasTrained   = iota // the biases NewNetwork draws, forget gate at 1
	biasSaturated        // every gate saturated so the roll-out settles
	biasMixed            // each bias saturated either way, or moderate
)

// rolloutNet builds a network of input width x and the given hidden sizes
// with a full window of random rows, then sets its biases by mode. Under
// biasSaturated the input gate is σ(60) = 1, the forget gate 1 or σ(−60)
// and the candidate ±1, unit by unit, so each c either climbs by one a step
// until it holds past 45 or sits at ±1 from the first step.
func rolloutNet(seed uint64, x int, hidden []int, mode int) *Network {
	g := rng.New(seed)
	n := NewNetwork(x, hidden, g)
	n.Window = 12
	row := make([]float64, x)
	for t := 0; t < n.Window; t++ {
		g.FillNormal(row, 1)
		n.Observe(row, 0)
	}
	sign := func() float64 { return float64(1 - 2*g.Intn(2)) }
	for _, c := range n.Cells {
		h := c.H
		for j := 0; j < h; j++ {
			switch mode {
			case biasSaturated:
				c.B[gateI*h+j] = 60
				c.B[gateF*h+j] = 60 * sign()
				c.B[gateG*h+j] = 60 * sign()
				c.B[gateO*h+j] = 60 * sign()
			case biasMixed:
				for gate := 0; gate < numGates; gate++ {
					if g.Intn(3) == 0 {
						c.B[gate*h+j] = g.Normal()
					} else {
						c.B[gate*h+j] = 60 * sign()
					}
				}
			}
		}
	}
	return n
}

// checkRollout holds PredictAhead's roll-out to steppedRollout, outputs and
// final states bit for bit, and returns the step it absorbed at.
func checkRollout(t testing.TB, n *Network, k, from int) int {
	t.Helper()
	x := n.InputSize()
	input := make([]float64, x)
	for j := range input {
		input[j] = 0.1 * float64(j+1)
	}
	want, wantSt := steppedRollout(n, input, k, rolloutFeedback(x, from))
	got, first := n.rollout(input, k, rolloutFeedback(x, from))
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("k=%d change at %d (absorbed at %d): output %d = %v, stepped gives %v", k, from, first, i, got[i], want[i])
		}
	}
	for li, st := range wantSt {
		for j := range st.H {
			if !sameBits(n.states[li].H[j], st.H[j]) || !sameBits(n.states[li].C[j], st.C[j]) {
				t.Fatalf("k=%d change at %d (absorbed at %d): layer %d unit %d ends at h=%v c=%v, stepped gives h=%v c=%v",
					k, from, first, li, j, n.states[li].H[j], n.states[li].C[j], st.H[j], st.C[j])
			}
		}
	}
	return first
}

// TestPredictAheadAbsorbed checks the absorbed roll-out against the loop
// that steps the cells every step, at H from 1 to 13, one to three layers
// and X of 1 and 3: on saturated networks, where it must absorb, also with
// an input that changes after absorbing, and on the other bias modes,
// where it may or may not. It also pins the absorbed path to 0 allocs.
func TestPredictAheadAbsorbed(t *testing.T) {
	ks := []int{2000, 400, 97}
	cases := 0
	for h := 1; h <= 13; h++ {
		for layers := 1; layers <= 3; layers++ {
			for _, x := range []int{1, 3} {
				hidden := make([]int, layers)
				for li := range hidden {
					hidden[li] = h + li%2
				}
				k := ks[cases%len(ks)]
				seed := uint64(100*h + 10*layers + x)
				cases++
				name := fmt.Sprintf("H%d_L%d_X%d_k%d", h, layers, x, k)
				n := rolloutNet(seed, x, hidden, biasSaturated)
				first := checkRollout(t, n, k, 0)
				if first >= k {
					t.Fatalf("%s: saturated roll-out never absorbed", name)
				}
				if first+5 < k {
					checkRollout(t, n, k, first+2)
				}
				for _, mode := range []int{biasTrained, biasMixed} {
					checkRollout(t, rolloutNet(seed, x, hidden, mode), k, k/3)
				}
			}
		}
	}
	n := rolloutNet(1, 1, []int{8, 8}, biasSaturated)
	in, feedback := []float64{0.5}, rolloutFeedback(1, 0)
	n.PredictAhead(in, 1023, feedback)
	if a := testing.AllocsPerRun(5, func() { n.PredictAhead(in, 1023, feedback) }); a != 0 {
		t.Fatalf("absorbed PredictAhead allocates %v times, want 0", a)
	}
}

// TestContinueOnPrimedCopy holds the split roll-out — Prime on the
// network, CopyPrimed, Continue on the copy — to PredictAhead bit for bit,
// outputs and final states, with one copy reused across networks of the
// same shape whose weights, windows and biases differ, and with an input
// that changes mid-roll-out. A reused copy costs no allocation.
func TestContinueOnPrimedCopy(t *testing.T) {
	const k = 400
	for _, shape := range []struct {
		x      int
		hidden []int
	}{{1, []int{8, 8}}, {3, []int{5, 6, 5}}} {
		var cp *Network
		for seed := uint64(1); seed <= 6; seed++ {
			mode, from := int(seed%3), int(seed%2)*150
			n := rolloutNet(seed, shape.x, shape.hidden, mode)
			in := make([]float64, shape.x)
			in[0] = 0.3
			want := slices.Clone(n.PredictAhead(in, k, rolloutFeedback(shape.x, from)))
			wantSt := make([]State, len(n.states))
			for li, st := range n.states {
				wantSt[li] = st.Clone()
			}
			out := n.Prime(in)
			cp = n.CopyPrimed(cp)
			got := cp.Continue(out, k, rolloutFeedback(shape.x, from))
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("X%d %v seed %d: output %d = %v on the copy, PredictAhead gives %v", shape.x, shape.hidden, seed, i, got[i], want[i])
				}
			}
			for li, st := range wantSt {
				for j := range st.H {
					if !sameBits(cp.states[li].H[j], st.H[j]) || !sameBits(cp.states[li].C[j], st.C[j]) {
						t.Fatalf("X%d %v seed %d: layer %d unit %d ends at h=%v c=%v on the copy, PredictAhead gives h=%v c=%v",
							shape.x, shape.hidden, seed, li, j, cp.states[li].H[j], cp.states[li].C[j], st.H[j], st.C[j])
					}
				}
			}
			if a := testing.AllocsPerRun(5, func() { n.CopyPrimed(cp) }); a != 0 {
				t.Fatalf("CopyPrimed into a built copy allocates %v times, want 0", a)
			}
		}
	}
}

// TestHoldsKeepsTanh iterates the state update on units that holds accepts,
// at the edge of its bound: tanh(c) must not move.
func TestHoldsKeepsTanh(t *testing.T) {
	for _, u := range []struct{ i, f, g, c float64 }{
		{1, 1, 1, 45},
		{1, 1, -1, -45},
		{1e-12, 1, 1, 45},
		{1, 1 - 1.0/45 + 1e-12, 1, 45},
		{0.5, 0.995, 0.5, math.Nextafter(45, 50)},
		{1, 1, -1, math.Inf(-1)},
		{1, 0.5, 1, 2},
		{0, 0.3, 0, 0},
	} {
		if !holds(u.i, u.f, u.g, u.c) {
			t.Fatalf("holds(%v) = false", u)
		}
		c, tc := u.c, math.Tanh(u.c)
		for step := 0; step < 10000; step++ {
			if c = cellUpdate(u.f, c, u.i, u.g); !sameBits(math.Tanh(c), tc) {
				t.Fatalf("%v: tanh(c) moved at step %d: c = %v", u, step, c)
			}
		}
	}
	for _, u := range []struct{ i, f, g, c float64 }{
		{1, 1, 1, 44.5},             // tanh is ±1 here, but c < 45
		{1, 1, -1, 45},              // pulled inward
		{1, 0.9, 1, 45},             // f takes away more than i·g adds
		{1, 0, 1, math.Inf(1)},      // not finite, and 0·Inf is NaN
		{1, 1, 1, math.NaN()},       // a fixed point, but NaN
		{1e-13, 1, 1, 45},           // i·g below the 1e−12 margin
		{1, 1 - 1.0/40, 1, 1e300},   // far out, but shrinking
		{0.5, 0.5, 0.5, 0.25 + 0.1}, // converging, not yet there
	} {
		if holds(u.i, u.f, u.g, u.c) {
			t.Fatalf("holds(%v) = true", u)
		}
	}
}

// FuzzPredictAhead holds the absorbed roll-out to steppedRollout bit for
// bit on arbitrary seeds, shapes (H in [1, 13], one to three layers, X in
// [1, 3]), lengths up to 2000, bias modes and a change of input at any
// step.
func FuzzPredictAhead(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(2), uint8(1), uint16(1023), uint8(biasSaturated), uint16(0))
	f.Add(uint64(2), uint8(5), uint8(3), uint8(3), uint16(400), uint8(biasSaturated), uint16(60))
	f.Add(uint64(3), uint8(13), uint8(1), uint8(1), uint16(2000), uint8(biasMixed), uint16(700))
	f.Add(uint64(4), uint8(1), uint8(2), uint8(3), uint16(97), uint8(biasTrained), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, hb, lb, xb uint8, kb uint16, mb uint8, from uint16) {
		h, layers, x := 1+int(hb)%13, 1+int(lb)%3, 1+int(xb)%3
		k, mode := 1+int(kb)%2000, int(mb)%3
		hidden := make([]int, layers)
		for li := range hidden {
			hidden[li] = h
		}
		checkRollout(t, rolloutNet(seed, x, hidden, mode), k, int(from)%(k+1))
	})
}
