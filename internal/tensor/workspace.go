package tensor

import "fmt"

// maxWorkspaceRank bounds the tensor rank a Workspace can key on. Everything
// in this codebase is rank ≤ 2; the headroom is for future 4-D layouts.
const maxWorkspaceRank = 4

// shapeKey is a comparable, allocation-free encoding of a tensor shape.
type shapeKey struct {
	rank int
	dim  [maxWorkspaceRank]int
}

// keyOf encodes shape without letting it escape (escape analysis keeps the
// caller's variadic slice on the stack, which is what makes Get hits
// allocation-free), so the panic messages mention only scalars.
func keyOf(shape []int) shapeKey {
	if len(shape) > maxWorkspaceRank {
		panic(fmt.Sprintf("tensor: Workspace supports rank <= %d, got rank %d", maxWorkspaceRank, len(shape)))
	}
	k := shapeKey{rank: len(shape)}
	for i, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: Workspace shape has negative dimension %d", d))
		}
		k.dim[i] = d
	}
	return k
}

// newFromKey materializes a tensor for a shape key; only the arena-miss path
// pays this allocation.
func newFromKey(k shapeKey) *Tensor {
	shp := make([]int, k.rank)
	n := 1
	for i := 0; i < k.rank; i++ {
		shp[i] = k.dim[i]
		n *= k.dim[i]
	}
	return &Tensor{Shape: shp, Data: make([]float64, n)}
}

// shapePool is the list of buffers of one shape, with a cursor into the
// portion handed out since the last Reset.
type shapePool struct {
	bufs []*Tensor
	next int
}

// Workspace is an arena of reusable, shape-keyed tensor buffers for a hot
// loop that allocates the same set of shapes every iteration. Get hands out
// a distinct buffer per call until Reset rewinds the arena; after a Reset,
// an identical sequence of Get calls receives the identical buffers, which
// is what makes steady-state iterations allocation-free.
//
// Ownership contract: a Workspace is single-owner state, exactly like the
// worker replica it typically belongs to — no synchronization is provided.
// Buffers obtained before a Reset must be treated as dead after it; callers
// that hold state across iterations (layer activations, gradients) must own
// their buffers instead of drawing them from a workspace.
//
// Reset is how crash-recovery stays sound: re-pulling a recovered replica
// resets its workspace, so a scenario that cancels an iteration mid-flight
// cannot leave the next iteration aliased onto stale buffers (see
// internal/ps replica.pull).
type Workspace struct {
	pools map[shapeKey]*shapePool // lookup by shape
	order []*shapePool            // the same pools; Reset rewinds these without a map walk
	gen   uint64
	live  int // buffers handed out since the last Reset
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{pools: make(map[shapeKey]*shapePool)}
}

// Get returns a tensor of the given shape, reusing a buffer released by the
// last Reset when one of that shape is available and allocating otherwise.
// The contents are unspecified (not zeroed): callers are expected to
// overwrite fully, and the kernels that accumulate (MatMulInto and friends)
// zero their destination themselves.
func (w *Workspace) Get(shape ...int) *Tensor {
	k := keyOf(shape)
	p := w.pools[k]
	if p == nil {
		p = &shapePool{}
		w.pools[k] = p
		w.order = append(w.order, p)
	}
	if p.next < len(p.bufs) {
		t := p.bufs[p.next]
		p.next++
		w.live++
		return t
	}
	t := newFromKey(k)
	p.bufs = append(p.bufs, t)
	p.next = len(p.bufs)
	w.live++
	return t
}

// Reset releases every buffer back to the arena and advances the
// generation. It is O(number of distinct shapes), not O(bytes): no memory
// is freed or zeroed, only the cursors rewind.
func (w *Workspace) Reset() {
	for _, p := range w.order {
		p.next = 0
	}
	w.gen++
	w.live = 0
}

// Generation counts Resets. Debug hooks and tests use it to assert the
// reset-on-recovery rule (a re-pull must advance the generation).
func (w *Workspace) Generation() uint64 { return w.gen }

// Live reports how many buffers have been handed out since the last Reset —
// a regression test that pins this across iterations proves the arena is
// not growing.
func (w *Workspace) Live() int { return w.live }
