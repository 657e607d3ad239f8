package lstm

import (
	"fmt"
	"math"

	"lcasgd/internal/rng"
	"lcasgd/internal/snapshot"
)

// Network is a stack of LSTM cells with a scalar linear head — the
// architecture both of the paper's predictors use ("two LSTM layers ... and
// a linear layer at the end", Sections 4.3–4.4). It trains online: every
// observed (input, target) pair is appended to a sliding window, and each
// TrainStep runs truncated BPTT over the window.
//
// All working storage — the window, recurrent states, per-timestep caches
// and BPTT scratch — is owned by the Network and reused, so steady-state
// TrainStep/Predict/PredictAhead calls are allocation-free. Set Window
// before the first Observe/TrainStep.
type Network struct {
	Cells  []*Cell
	HeadW  []float64 // [H of last cell]
	HeadB  float64
	dHeadW []float64
	dHeadB float64

	Window int // truncated-BPTT window length
	LR     float64
	Clip   float64

	// Sliding window: rows[0:count] in oldest-first order. Rows are
	// allocated once and recycled when the window slides.
	rows    [][]float64
	targets []float64
	count   int

	// Reused compute workspaces (see ensureScratch).
	states []State        // one recurrent state per layer, updated in place
	caches [][]*stepCache // [layer][timestep], grown on demand
	outs   []float64      // per-step head outputs of the last forward
	dOuts  []float64
	dhTop  []float64   // head gradient entering the top layer at step t
	hTop   []float64   // recomputed top hidden vector (o ⊙ tanh c)
	dh, dc [][]float64 // per-layer through-time gradients
	dx     [][]float64 // per-layer input gradients
	ahead  []float64   // PredictAhead output buffer (reused across calls)
}

// NewNetwork builds a stack with the given input size and hidden sizes
// (one per cell). Defaults: window 16, learning rate 0.05, clip 1.
func NewNetwork(inputSize int, hidden []int, g *rng.RNG) *Network {
	if len(hidden) == 0 {
		panic("lstm: need at least one hidden layer")
	}
	n := &Network{Window: 16, LR: 0.05, Clip: 1}
	in := inputSize
	for _, h := range hidden {
		n.Cells = append(n.Cells, NewCell(in, h, g))
		in = h
	}
	last := hidden[len(hidden)-1]
	n.HeadW = make([]float64, last)
	n.dHeadW = make([]float64, last)
	g.FillNormal(n.HeadW, 0.1)
	n.states = make([]State, len(n.Cells))
	n.caches = make([][]*stepCache, len(n.Cells))
	n.dh = make([][]float64, len(n.Cells))
	n.dc = make([][]float64, len(n.Cells))
	n.dx = make([][]float64, len(n.Cells))
	for li, c := range n.Cells {
		n.states[li] = NewState(c.H)
		n.dh[li] = make([]float64, c.H)
		n.dc[li] = make([]float64, c.H)
		n.dx[li] = make([]float64, c.X)
	}
	n.dhTop = make([]float64, last)
	n.hTop = make([]float64, last)
	return n
}

// InputSize returns the expected input width.
func (n *Network) InputSize() int { return n.Cells[0].X }

// head applies the linear output layer to the top cell's hidden state.
func (n *Network) head(h []float64) float64 {
	s := n.HeadB
	for j, w := range n.HeadW {
		s += float64(w * h[j])
	}
	return s
}

// cacheFor returns the (layer, timestep) cache slot, growing the pool on
// first use of a new timestep index.
func (n *Network) cacheFor(li, t int) *stepCache {
	for len(n.caches[li]) <= t {
		n.caches[li] = append(n.caches[li], newStepCache(n.Cells[li].X, n.Cells[li].H))
	}
	return n.caches[li][t]
}

// outsFor returns the reused head-output buffer resized to T steps.
func (n *Network) outsFor(T int) []float64 {
	if cap(n.outs) < T {
		n.outs = make([]float64, T)
	}
	n.outs = n.outs[:T]
	return n.outs
}

// forwardWindow runs the stack from zero state over the window rows,
// recording the step caches BPTT needs and writing per-step head outputs
// into the reused outs buffer.
func (n *Network) forwardWindow() []float64 {
	for li := range n.states {
		n.states[li].Zero()
	}
	outs := n.outsFor(n.count)
	for t, cur := range n.rows[:n.count] {
		for li, cell := range n.Cells {
			cell.Step(cur, n.states[li], n.cacheFor(li, t))
			cur = n.states[li].H
		}
		outs[t] = n.head(cur)
	}
	return outs
}

// Observe appends an (input, target) pair to the training window without
// updating weights. Used to warm the window before training begins.
func (n *Network) Observe(input []float64, target float64) {
	if len(input) != n.InputSize() {
		panic(fmt.Sprintf("lstm: input width %d, want %d", len(input), n.InputSize()))
	}
	if n.Window <= 0 {
		return // degenerate: nothing can be retained
	}
	for n.count > n.Window { // Window was shrunk after observations
		n.slide()
		n.count--
	}
	if n.count == n.Window {
		// Slide: recycle the oldest row as the newest.
		n.slide()
		copy(n.rows[n.count-1], input)
		n.targets[n.count-1] = target
		return
	}
	if n.count == len(n.rows) {
		n.rows = append(n.rows, make([]float64, len(input)))
		n.targets = append(n.targets, 0)
	}
	copy(n.rows[n.count], input)
	n.targets[n.count] = target
	n.count++
}

// slide rotates the oldest row to the end of the window (its contents are
// dead; the caller overwrites or drops it).
func (n *Network) slide() {
	first := n.rows[0]
	copy(n.rows[:n.count-1], n.rows[1:n.count])
	copy(n.targets[:n.count-1], n.targets[1:n.count])
	n.rows[n.count-1] = first
}

// TrainStep performs one online update: the pair is appended to the window
// and one truncated-BPTT pass over the window minimizes the mean squared
// one-step-ahead error. It returns the window loss before the update.
func (n *Network) TrainStep(input []float64, target float64) float64 {
	n.Observe(input, target)
	return n.fitWindow()
}

// fitWindow runs forward+backward over the current window and applies SGD.
func (n *Network) fitWindow() float64 {
	T := n.count
	if T == 0 {
		return 0
	}
	outs := n.forwardWindow()
	loss := 0.0
	if cap(n.dOuts) < T {
		n.dOuts = make([]float64, T)
	}
	dOuts := n.dOuts[:T]
	for t := 0; t < T; t++ {
		d := outs[t] - n.targets[t]
		loss += float64(d * d)
		dOuts[t] = 2 * d / float64(T)
	}
	loss /= float64(T)

	for _, c := range n.Cells {
		c.ZeroGrad()
	}
	zero(n.dHeadW)
	n.dHeadB = 0

	L := len(n.Cells)
	// dh/dc flowing backward through time, one per layer. Each layer's
	// buffer is consumed at step t (merged into the gradient from above)
	// just before its Backward overwrites it with the step-t-1 value.
	for li := range n.Cells {
		zero(n.dh[li])
		zero(n.dc[li])
	}
	for t := T - 1; t >= 0; t-- {
		// Head gradient at step t enters the top layer's dh.
		top := L - 1
		hTop := n.caches[top][t]
		dhTop := n.dhTop
		copy(dhTop, n.dh[top])
		g := dOuts[t]
		n.dHeadB += g
		topH := n.hTop
		for j := range topH {
			// Recompute o ⊙ tanh(c) from the cache instead of storing the
			// hidden vector twice.
			topH[j] = hTop.o[j] * hTop.tanhC[j]
		}
		for j := range n.HeadW {
			n.dHeadW[j] += float64(g * topH[j])
			dhTop[j] += float64(g * n.HeadW[j])
		}
		dh := dhTop
		dc := n.dc[top]
		for li := L - 1; li >= 0; li-- {
			if li < L-1 {
				// Lower layers receive dx from the layer above plus
				// their own through-time gradient.
				for j := range dh {
					dh[j] += n.dh[li][j]
				}
				dc = n.dc[li]
			}
			// dcPrev aliasing dc is safe (see Cell.Backward); dhPrev lands in
			// n.dh[li], which was read above before this overwrite.
			n.Cells[li].Backward(dh, dc, n.caches[li][t], n.dx[li], n.dh[li], n.dc[li])
			dh = n.dx[li]
		}
	}
	for _, c := range n.Cells {
		c.SGDStep(n.LR, n.Clip)
	}
	apply(n.HeadW, n.dHeadW, n.LR, n.Clip)
	db := n.dHeadB
	if db > n.Clip {
		db = n.Clip
	} else if db < -n.Clip {
		db = -n.Clip
	}
	n.HeadB -= float64(n.LR * db)
	return loss
}

// Predict returns the one-step-ahead output after replaying the window and
// feeding the given input.
func (n *Network) Predict(input []float64) float64 {
	return n.PredictAhead(input, 1, nil)[0]
}

// PredictAhead forecasts future values: it replays the window, feeds input,
// then recursively feeds each prediction back through feedback (which maps
// a scalar prediction to the next input vector) for a total of k outputs.
// This is exactly Algorithm 3's "forward-propagating goes on k iterations".
// The returned slice is a reused buffer, valid until the next PredictAhead
// call. It is Prime followed by Continue.
//
// A roll-out often settles: the fed-back input repeats bit for bit, and so
// does every layer's h, while each unit's c either stays put or sits past
// the point where tanh(c) is exactly ±1 and keeps moving outward (see
// holds). From there every output is the last one, so the roll-out stops
// stepping the cells: each remaining step still calls feedback, checks that
// the input still repeats, and advances every c by its scalar update, so
// the outputs and the state are the stepped loop's, bit for bit. An input
// that changes sends it back to full steps.
func (n *Network) PredictAhead(input []float64, k int, feedback func(out float64) []float64) []float64 {
	outs, _ := n.rollout(input, k, feedback)
	return outs
}

// rollout is PredictAhead. It also returns the first step that the
// absorbed update served instead of the cells, or k if there was none.
func (n *Network) rollout(input []float64, k int, feedback func(out float64) []float64) ([]float64, int) {
	if k <= 0 {
		return nil, 0
	}
	return n.advance(n.Prime(input), k, feedback)
}

// Prime is a roll-out's first step: it replays the window from zero state,
// feeds input and returns the head's output, the one-step forecast. It
// leaves the stack primed: Continue takes the roll-out on from there, on
// this network or on a CopyPrimed of it.
func (n *Network) Prime(input []float64) float64 {
	for li := range n.states {
		n.states[li].Zero()
	}
	for t := 0; t < n.count; t++ {
		n.step(n.rows[t])
	}
	return n.step(input)
}

// Continue takes a primed roll-out whose first output was out on to k
// outputs in all, out included, and returns them in a reused buffer, valid
// until the next Continue or PredictAhead. Nothing may run on the stack
// between the Prime (or CopyPrimed) and the Continue.
func (n *Network) Continue(out float64, k int, feedback func(out float64) []float64) []float64 {
	outs, _ := n.advance(out, k, feedback)
	return outs
}

// advance is Continue. It also returns the first step that the absorbed
// update served instead of the cells, or k if there was none.
func (n *Network) advance(out float64, k int, feedback func(out float64) []float64) ([]float64, int) {
	if k <= 0 {
		return nil, 0
	}
	if cap(n.ahead) < k {
		n.ahead = make([]float64, k)
	}
	outs := n.ahead[:k]
	outs[0] = out
	absorbed, first := false, k
	for i := 1; i < k; i++ {
		x := feedback(out)
		// Once absorbed, settled stays true for as long as the input
		// repeats: the gates repeat, and a c that holds keeps holding.
		absorbed = n.repeats(x) && (absorbed || n.settled())
		if absorbed {
			for li, cell := range n.Cells {
				cell.hold(n.states[li])
			}
			first = min(first, i)
		} else {
			out = n.step(x)
		}
		outs[i] = out
	}
	return outs, first
}

// CopyPrimed copies everything Continue reads of a primed stack into dst
// and returns it: every cell's weights and biases, the input row and gates
// of its last step (which settled and hold read), every layer's h and c,
// and the head. A nil dst is built first, holding only that: no window and
// no training storage, so it can continue a roll-out and do nothing else.
// A non-nil dst must come from an earlier CopyPrimed of a network of this
// shape.
func (n *Network) CopyPrimed(dst *Network) *Network {
	if dst == nil {
		dst = &Network{HeadW: make([]float64, len(n.HeadW)), states: make([]State, len(n.Cells))}
		for li, c := range n.Cells {
			dst.Cells = append(dst.Cells, &Cell{
				X: c.X, H: c.H,
				W: make([]float64, len(c.W)), B: make([]float64, len(c.B)),
				xh: make([]float64, len(c.xh)), pre: make([]float64, len(c.pre)),
				act: make([]float64, len(c.act)), tc: make([]float64, len(c.tc)),
			})
			dst.states[li] = NewState(c.H)
		}
	}
	for li, c := range n.Cells {
		d := dst.Cells[li]
		copy(d.W, c.W)
		copy(d.B, c.B)
		copy(d.xh, c.xh)
		copy(d.act, c.act)
		copy(dst.states[li].H, n.states[li].H)
		copy(dst.states[li].C, n.states[li].C)
	}
	copy(dst.HeadW, n.HeadW)
	dst.HeadB = n.HeadB
	return dst
}

// step runs one prediction timestep through the stack and returns the
// head's output.
func (n *Network) step(x []float64) float64 {
	for li, cell := range n.Cells {
		cell.Step(x, n.states[li], nil)
		x = n.states[li].H
	}
	return n.head(x)
}

// repeats reports whether x is, bit for bit, the input of the last step.
func (n *Network) repeats(x []float64) bool {
	c := n.Cells[0]
	if len(x) != c.X {
		return false
	}
	for j, v := range x {
		if math.Float64bits(v) != math.Float64bits(c.xh[j]) {
			return false
		}
	}
	return true
}

// settled reports whether every layer is settled after the last step
// (Cell.settled). With an input that repeats, each layer's input then
// repeats too, since the layer below leaves its h as it is.
func (n *Network) settled() bool {
	for li, cell := range n.Cells {
		if !cell.settled(n.states[li]) {
			return false
		}
	}
	return true
}

// Walk walks everything that survives across online-training calls: every
// cell's packed weights, the linear head, and the sliding window (inputs,
// targets, fill count). Recurrent states and BPTT scratch are deliberately
// excluded — forwardWindow re-derives them from zero state on every call, so
// they carry no information between calls. It restores into a network of
// the identical architecture (same layer stack and sizes — the restore
// target is always freshly built from the run configuration); a shape
// mismatch fails the walk.
func (n *Network) Walk(c snapshot.Codec) {
	reading := c.Reading()
	cells := len(n.Cells)
	c.Int(&cells)
	if reading && c.Err() == nil && cells != len(n.Cells) {
		c.Fail(fmt.Errorf("lstm: snapshot has %d cells, network has %d", cells, len(n.Cells)))
		return
	}
	for _, cell := range n.Cells {
		x, h := cell.X, cell.H
		c.Int(&x)
		c.Int(&h)
		if reading && c.Err() == nil && (x != cell.X || h != cell.H) {
			c.Fail(fmt.Errorf("lstm: snapshot cell %dx%d, network cell %dx%d", x, h, cell.X, cell.H))
			return
		}
		c.F64sInto(cell.W)
		c.F64sInto(cell.B)
	}
	c.F64sInto(n.HeadW)
	c.F64(&n.HeadB)
	count := n.count
	c.Int(&count)
	if reading && c.Err() == nil {
		if count < 0 || count > n.Window {
			c.Fail(fmt.Errorf("lstm: snapshot window fill %d exceeds window %d", count, n.Window))
			return
		}
		n.count = 0
	}
	for t := 0; t < count && c.Err() == nil; t++ {
		var row []float64
		var target float64
		if !reading {
			row, target = n.rows[t], n.targets[t]
		}
		c.F64s(&row)
		c.F64(&target)
		if reading && c.Err() == nil {
			if len(row) != n.InputSize() {
				c.Fail(fmt.Errorf("lstm: snapshot row width %d, want %d", len(row), n.InputSize()))
				return
			}
			n.Observe(row, target)
		}
	}
}
