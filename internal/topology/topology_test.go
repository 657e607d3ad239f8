package topology

import (
	"math"
	"reflect"
	"testing"

	"lcasgd/internal/rng"
)

// generated enumerates every constructor across a spread of sizes — the
// graph population the property tests quantify over.
func generated(t *testing.T) map[string]*Graph {
	t.Helper()
	graphs := map[string]*Graph{}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		graphs[key("ring", n)] = Ring(n)
		graphs[key("complete", n)] = Complete(n)
		graphs[key("star", n)] = Star(n)
		for seed := uint64(1); seed <= 3; seed++ {
			graphs[key("gossip", n)+string(rune('a'+seed))] = Gossip(n, rng.New(seed))
		}
	}
	g, err := Parse("edges:0-1,1-2,2-3,3-0,0-2", 6, rng.New(1))
	if err != nil {
		t.Fatalf("parse edges: %v", err)
	}
	graphs["edges/6"] = g
	return graphs
}

func key(name string, n int) string {
	return name + "/" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// Every generated topology's mixing matrix must be symmetric and doubly
// stochastic with nonnegative entries — the contract that makes gossip
// averaging a consensus operator.
func TestMixingDoublyStochasticSymmetric(t *testing.T) {
	const eps = 1e-12
	for name, g := range generated(t) {
		w := g.Mixing()
		n := g.Workers()
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if w[i][j] < -eps {
					t.Fatalf("%s: W[%d][%d] = %v < 0", name, i, j, w[i][j])
				}
				if math.Abs(w[i][j]-w[j][i]) > eps {
					t.Fatalf("%s: W not symmetric at (%d,%d): %v vs %v", name, i, j, w[i][j], w[j][i])
				}
				if i != j && w[i][j] > 0 && !g.HasEdge(i, j) {
					t.Fatalf("%s: W[%d][%d] = %v without an edge", name, i, j, w[i][j])
				}
				rowSum += w[i][j]
			}
			if math.Abs(rowSum-1) > eps {
				t.Fatalf("%s: row %d sums to %v", name, i, rowSum)
			}
		}
	}
}

// The named constructors must be connected for every size (gossip by its
// Hamiltonian-cycle construction), so a partition-free run always mixes to
// a single consensus.
func TestGeneratedGraphsConnected(t *testing.T) {
	for name, g := range generated(t) {
		if name == "edges/6" {
			continue // ranks 4,5 are deliberately isolated
		}
		if !g.Connected(nil) {
			t.Fatalf("%s: not connected: components %v", name, g.Components(nil))
		}
	}
}

// Cutting workers must split the graph into exactly the components the
// remaining edges imply: a ring with two opposite cuts yields two arcs, a
// star without its hub isolates every leaf.
func TestComponentsUnderPartition(t *testing.T) {
	ring := Ring(6)
	down := make([]bool, 6)
	down[0], down[3] = true, true
	got := ring.Components(down)
	want := []int{-1, 0, 0, -1, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring(6) cut {0,3}: components %v, want %v", got, want)
	}
	if ring.Connected(down) {
		t.Fatalf("ring(6) cut {0,3} should not be connected")
	}

	star := Star(5)
	down = make([]bool, 5)
	down[0] = true
	got = star.Components(down)
	want = []int{-1, 0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("star(5) cut hub: components %v, want %v", got, want)
	}

	complete := Complete(5)
	down = make([]bool, 5)
	down[2] = true
	if !complete.Connected(down) {
		t.Fatalf("complete(5) should survive any single cut")
	}
}

// Gossip wiring and Selector draws must be pure functions of the seed: the
// same seed reproduces both exactly, a different seed changes the draw
// sequence.
func TestGossipDeterministicPerSeed(t *testing.T) {
	build := func(seed uint64) *Graph { return Gossip(8, rng.New(seed)) }
	a, b := build(42), build(42)
	for m := 0; m < 8; m++ {
		if !reflect.DeepEqual(a.Neighbors(m), b.Neighbors(m)) {
			t.Fatalf("same seed, different wiring at rank %d: %v vs %v", m, a.Neighbors(m), b.Neighbors(m))
		}
	}

	draws := func(g *Graph, seed uint64) []int {
		sel := NewSelector(g, rng.New(seed))
		out := make([]int, 64)
		for i := range out {
			out[i] = sel.Pick(i%g.Workers(), func(int) bool { return true })
		}
		return out
	}
	if got, want := draws(a, 7), draws(b, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("same seed, different partner draws:\n%v\n%v", got, want)
	}
	if got, other := draws(a, 7), draws(a, 8); reflect.DeepEqual(got, other) {
		t.Fatalf("different seeds produced identical 64-draw sequences")
	}
}

// Pick consumes exactly one draw per call regardless of how many neighbors
// qualify — the stream-position invariant bit-identical resume depends on.
func TestSelectorConsumesOneDrawPerPick(t *testing.T) {
	g := Ring(6)
	selA := NewSelector(g, rng.New(9))
	selB := NewSelector(g, rng.New(9))
	// A picks with all neighbors blocked (partner −1), B picks normally; the
	// streams must stay in lockstep.
	if p := selA.Pick(0, func(int) bool { return false }); p != -1 {
		t.Fatalf("blocked pick returned %d, want -1", p)
	}
	selB.Pick(0, func(int) bool { return true })
	if selA.Stream().State() != selB.Stream().State() {
		t.Fatalf("stream positions diverged after one pick each")
	}
}

// Selector state must round-trip: restoring a saved position replays the
// identical partner sequence.
func TestSelectorStateRoundTrip(t *testing.T) {
	g := Complete(5)
	sel := NewSelector(g, rng.New(3))
	all := func(int) bool { return true }
	for i := 0; i < 10; i++ {
		sel.Pick(i%5, all)
	}
	st := sel.Stream().State()
	var want []int
	for i := 0; i < 10; i++ {
		want = append(want, sel.Pick(i%5, all))
	}
	sel.Stream().SetState(st)
	for i := 0; i < 10; i++ {
		if got := sel.Pick(i%5, all); got != want[i] {
			t.Fatalf("replayed pick %d = %d, want %d", i, got, want[i])
		}
	}
}

// Parse must accept the whole Names vocabulary and reject junk with the
// vocabulary in the message; edge specs must clip out-of-range ranks like
// scenarios do.
func TestParseAndValidate(t *testing.T) {
	for _, spec := range []string{"", "ring", "complete", "star", "gossip", "edges:0-1,1-2"} {
		if err := ValidateSpec(spec); err != nil {
			t.Fatalf("ValidateSpec(%q): %v", spec, err)
		}
		if _, err := Parse(spec, 4, rng.New(1)); err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"mesh", "edges:", "edges:0-0", "edges:1", "edges:a-b", "edges:-1-2"} {
		if err := ValidateSpec(spec); err == nil {
			t.Fatalf("ValidateSpec(%q) accepted", spec)
		}
		if _, err := Parse(spec, 4, rng.New(1)); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
	// Out-of-range edges clip rather than error: one spec serves any M.
	g, err := Parse("edges:0-1,2-9", 3, rng.New(1))
	if err != nil {
		t.Fatalf("clipped parse: %v", err)
	}
	if g.Degree(2) != 0 || !g.HasEdge(0, 1) {
		t.Fatalf("clipping wrong: deg(2)=%d hasEdge(0,1)=%v", g.Degree(2), g.HasEdge(0, 1))
	}
}
