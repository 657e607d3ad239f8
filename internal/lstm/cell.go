// Package lstm implements a small LSTM recurrent network with a linear
// head and truncated-BPTT online training. It is the substrate for the two
// predictors that constitute LC-ASGD's contribution: the loss predictor
// (Algorithm 3) and the step predictor (Algorithm 4), both of which the
// paper describes as "two LSTM layers in the front of the network and a
// linear layer at the end", trained online on the parameter server.
//
// The package is built for the zero-allocation hot path: a Network owns
// every buffer its train/predict calls need (step caches, recurrent
// states, BPTT scratch, the sliding window itself), so steady-state
// TrainStep/Predict/PredictAhead calls perform no heap allocations. This
// matters doubly here: the predictors run on the parameter server once per
// worker iteration, and their REAL measured wall time is a paper artifact
// (Tables 2–3) that allocation noise would distort.
package lstm

import (
	"fmt"
	"math"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// gate index layout inside the packed 4H pre-activation vector.
const (
	gateI = iota // input gate
	gateF        // forget gate
	gateG        // candidate
	gateO        // output gate
	numGates
)

// Cell is a single LSTM layer with input size X and hidden size H. The
// weights are one packed matrix W [(X+H), 4H]: row j < X multiplies input
// j, row X+j multiplies hidden unit j, and column r is gate row r of the 4H
// pre-activation vector — so a step's pre-activations are the row vector
// [x; h] times W, and the micro-kernel's lanes are gates.
type Cell struct {
	X, H   int
	W, B   []float64
	dW, dB []float64

	xh   []float64 // [X+H] the step's input row [x; h], reused every Step/Backward
	pre  []float64 // [4H] pre-activation scratch, reused every Step
	act  []float64 // [4H] gate values [i; f; g; o], reused every Step
	dAct []float64 // [4H] gate-gradient scratch, reused every Backward
}

// NewCell allocates a cell with Xavier-scaled weights and the forget-gate
// bias initialized to 1 (the standard trick that stabilizes early training).
func NewCell(x, h int, g *rng.RNG) *Cell {
	c := &Cell{
		X: x, H: h,
		W:    make([]float64, (x+h)*numGates*h),
		B:    make([]float64, numGates*h),
		dW:   make([]float64, (x+h)*numGates*h),
		dB:   make([]float64, numGates*h),
		xh:   make([]float64, x+h),
		pre:  make([]float64, numGates*h),
		act:  make([]float64, numGates*h),
		dAct: make([]float64, numGates*h),
	}
	// The draw order is the serialized one (input weights, then hidden).
	wx, wh := make([]float64, numGates*h*x), make([]float64, numGates*h*h)
	g.FillNormal(wx, math.Sqrt(1/float64(x+h)))
	g.FillNormal(wh, math.Sqrt(1/float64(x+h)))
	c.setSerialWeights(wx, wh)
	for i := 0; i < h; i++ {
		c.B[gateF*h+i] = 1
	}
	return c
}

// serialWeights returns the weights in the order snapshots (and the seed
// stream) use: the input weights [4H, X], then the hidden weights [4H, H],
// both gate-row major — the transposes of W's two row blocks.
func (c *Cell) serialWeights() (wx, wh []float64) {
	n4, split := numGates*c.H, c.X*numGates*c.H
	return tensor.Transpose(tensor.FromSlice(c.W[:split], c.X, n4)).Data,
		tensor.Transpose(tensor.FromSlice(c.W[split:], c.H, n4)).Data
}

// setSerialWeights loads weights given in serialWeights order.
func (c *Cell) setSerialWeights(wx, wh []float64) {
	n4, split := numGates*c.H, c.X*numGates*c.H
	copy(c.W[:split], tensor.Transpose(tensor.FromSlice(wx, n4, c.X)).Data)
	copy(c.W[split:], tensor.Transpose(tensor.FromSlice(wh, n4, c.H)).Data)
}

// State is the recurrent state (h, c) of one cell.
type State struct{ H, C []float64 }

// NewState returns a zero state for hidden size h.
func NewState(h int) State {
	return State{H: make([]float64, h), C: make([]float64, h)}
}

// Clone deep-copies the state.
func (s State) Clone() State {
	return State{H: append([]float64(nil), s.H...), C: append([]float64(nil), s.C...)}
}

// Zero resets the state in place.
func (s State) Zero() {
	zero(s.H)
	zero(s.C)
}

// stepCache records everything the backward pass needs for one timestep.
// All slices are cache-owned copies so the recurrent state can be updated
// in place between steps.
type stepCache struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64 // post-activation gate values
	c, tanhC        []float64
}

// newStepCache allocates one cache slot for a cell of input size x and
// hidden size h.
func newStepCache(x, h int) *stepCache {
	return &stepCache{
		x: make([]float64, x), hPrev: make([]float64, h), cPrev: make([]float64, h),
		i: make([]float64, h), f: make([]float64, h), g: make([]float64, h), o: make([]float64, h),
		c: make([]float64, h), tanhC: make([]float64, h),
	}
}

// Step advances the cell one timestep, updating s in place. When cache is
// non-nil it records everything Backward needs (including copies of the
// input and incoming state, so in-place state reuse is safe). Passing a nil
// cache is the prediction-only fast path.
func (c *Cell) Step(x []float64, s State, cache *stepCache) {
	if len(x) != c.X {
		panic(fmt.Sprintf("lstm: input size %d, want %d", len(x), c.X))
	}
	h := c.H
	xh, pre, act := c.xh, c.pre, c.act
	copy(xh, x)
	copy(xh[c.X:], s.H)
	// Each gate's chain runs over [x; h] ascending from +0, and the bias
	// joins once, after the sum.
	copy(pre, c.B)
	tensor.VecMatMulAdd(pre, xh, c.W)
	if cache != nil {
		copy(cache.x, x)
		copy(cache.hPrev, s.H)
		copy(cache.cPrev, s.C)
	}
	gateInto(opSigmoid, act[:gateG*h], pre[:gateG*h]) // i and f
	gateInto(opTanh, act[gateG*h:gateO*h], pre[gateG*h:gateO*h])
	gateInto(opSigmoid, act[gateO*h:], pre[gateO*h:])
	i, f, g, o := act[:h], act[gateF*h:gateG*h], act[gateG*h:gateO*h], act[gateO*h:]
	for j, cv := range s.C {
		s.C[j] = f[j]*cv + i[j]*g[j]
	}
	// s.H holds tanh(c) until the last loop turns it into o ⊙ tanh(c).
	gateInto(opTanh, s.H, s.C)
	if cache != nil {
		copy(cache.i, i)
		copy(cache.f, f)
		copy(cache.g, g)
		copy(cache.o, o)
		copy(cache.c, s.C)
		copy(cache.tanhC, s.H)
	}
	for j, ov := range o {
		s.H[j] = ov * s.H[j]
	}
}

// Backward consumes dh/dc for this timestep's outputs and the cache from
// Step; it accumulates parameter gradients and writes the input gradient
// into dx and the through-time gradients into dhPrev/dcPrev (all
// caller-owned, sized X/H/H). All three are fully assigned; dcPrev MAY
// alias dc (each element is read before its aliased slot is written), dx
// and dhPrev must not alias dh or dc.
func (c *Cell) Backward(dh, dc []float64, cache *stepCache, dx, dhPrev, dcPrev []float64) {
	h := c.H
	dAct := c.dAct
	for j := 0; j < h; j++ {
		o, tc := cache.o[j], cache.tanhC[j]
		dct := dc[j] + dh[j]*o*(1-tc*tc)
		do := dh[j] * tc
		di := dct * cache.g[j]
		dg := dct * cache.i[j]
		df := dct * cache.cPrev[j]
		dcPrev[j] = dct * cache.f[j]
		dAct[gateI*h+j] = di * cache.i[j] * (1 - cache.i[j])
		dAct[gateF*h+j] = df * cache.f[j] * (1 - cache.f[j])
		dAct[gateG*h+j] = dg * (1 - cache.g[j]*cache.g[j])
		dAct[gateO*h+j] = do * o * (1 - o)
	}
	for r, da := range dAct {
		c.dB[r] += da
	}
	// Row j of W meets input j of [x; hPrev]: its dW row receives this
	// timestep's one addend, and its input gradient sums over r ascending
	// from +0. Exact-zero gate gradients take part: their ±0 terms are
	// bit-neutral on finite data (the sums start at +0), so no branch.
	n4, xh := numGates*h, c.xh
	copy(xh, cache.x)
	copy(xh[c.X:], cache.hPrev)
	for j, v := range xh {
		wRow, dRow := c.W[j*n4:(j+1)*n4], c.dW[j*n4:(j+1)*n4]
		sum := 0.0
		for r, da := range dAct {
			dRow[r] += da * v
			sum += da * wRow[r]
		}
		xh[j] = sum
	}
	copy(dx, xh)
	copy(dhPrev, xh[c.X:])
}

// ZeroGrad clears the accumulated gradients.
func (c *Cell) ZeroGrad() {
	zero(c.dW)
	zero(c.dB)
}

// SGDStep applies one gradient-descent update with the given learning rate
// and per-element clip on the gradient.
func (c *Cell) SGDStep(lr, clip float64) {
	apply(c.W, c.dW, lr, clip)
	apply(c.B, c.dB, lr, clip)
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

func apply(w, g []float64, lr, clip float64) {
	for i := range w {
		gv := g[i]
		if gv > clip {
			gv = clip
		} else if gv < -clip {
			gv = -clip
		}
		w[i] -= lr * gv
	}
}
