// Package topology models the communication graphs decentralized training
// runs on. A Graph is an undirected graph over the worker ranks whose
// neighbor lists drive gossip partner selection (Selector), with the
// randomness drawn from a labeled stream of the run's seed RNG so the draw
// sequence is part of the reproducibility contract.
//
// Graphs are built either by the named constructors (Ring, Complete, Star,
// Gossip) or from a user spec string (Parse): "ring", "complete", "star",
// "gossip", or "edges:0-1,1-2,…" for an explicit edge list. Construction is
// deterministic: the only randomness (Gossip's wiring) comes from the RNG
// the caller passes in.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lcasgd/internal/rng"
)

// Graph is an immutable undirected communication graph over n workers,
// identified by ranks 0..n-1. Self-loops and parallel edges are never
// stored.
type Graph struct {
	adj [][]int // sorted neighbor lists
}

// New builds a graph over n workers from an explicit edge list. Edges
// touching ranks outside 0..n-1 are skipped — mirroring the scenario
// convention that one spec serves any worker count — and duplicates and
// self-loops are dropped.
func New(n int, edges [][2]int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("topology: graph over %d workers", n))
	}
	adj := make([][]int, n)
	for _, e := range edges {
		i, j := e[0], e[1]
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			continue
		}
		if !contains(adj[i], j) {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	return &Graph{adj: adj}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Ring connects rank m to (m±1) mod n — the sparsest connected regular
// topology, and the default for decentralized runs.
func Ring(n int) *Graph {
	edges := make([][2]int, 0, n)
	for m := 0; m < n; m++ {
		edges = append(edges, [2]int{m, (m + 1) % n})
	}
	return New(n, edges)
}

// Complete connects every pair of ranks — gossip averaging with a uniform
// random partner, the densest topology.
func Complete(n int) *Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return New(n, edges)
}

// Star connects every rank to rank 0 — the parameter-server shape expressed
// as a gossip graph, useful as the bridge case between the PS algorithms and
// truly decentralized ones.
func Star(n int) *Graph {
	var edges [][2]int
	for m := 1; m < n; m++ {
		edges = append(edges, [2]int{0, m})
	}
	return New(n, edges)
}

// Gossip builds a seeded random graph: a random Hamiltonian cycle (so the
// graph is connected by construction) plus ⌊n/2⌋ random chords. All
// randomness comes from g, so the wiring is a pure function of the stream's
// state — the same run seed always yields the same graph.
func Gossip(n int, g *rng.RNG) *Graph {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(g.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{perm[i], perm[(i+1)%n]})
	}
	for k := 0; k < n/2; k++ {
		i := int(g.Uint64() % uint64(n))
		j := int(g.Uint64() % uint64(n))
		edges = append(edges, [2]int{i, j}) // self/dup edges dropped by New
	}
	return New(n, edges)
}

// named is the vocabulary of named topologies, in Names order: each spec
// with its builder. The empty spec means "ring".
var named = []struct {
	spec  string
	build func(n int, g *rng.RNG) *Graph
}{
	{"ring", func(n int, _ *rng.RNG) *Graph { return Ring(n) }},
	{"complete", func(n int, _ *rng.RNG) *Graph { return Complete(n) }},
	{"star", func(n int, _ *rng.RNG) *Graph { return Star(n) }},
	{"gossip", Gossip},
}

// parseSpec is the one reading of a spec string: a named topology's
// builder ("" is "ring"), or an "edges:" list's rank pairs with a nil
// builder, or an error naming the valid forms.
func parseSpec(spec string) (build func(int, *rng.RNG) *Graph, edges [][2]int, err error) {
	if spec == "" {
		spec = "ring"
	}
	for _, t := range named {
		if t.spec == spec {
			return t.build, nil, nil
		}
	}
	if rest, ok := strings.CutPrefix(spec, "edges:"); ok {
		edges, err = parseEdgeList(rest)
		return nil, edges, err
	}
	return nil, nil, fmt.Errorf("topology: unknown spec %q (valid: %s)", spec, strings.Join(Names(), ", "))
}

// Parse builds the graph named by spec over n workers. Valid specs are the
// Names() vocabulary: a named topology or "edges:i-j,k-l,…". The RNG is
// consumed only by random topologies ("gossip"), but callers should pass a
// dedicated labeled stream unconditionally so the parent stream's position
// does not depend on the spec.
func Parse(spec string, n int, g *rng.RNG) (*Graph, error) {
	build, edges, err := parseSpec(spec)
	switch {
	case err != nil:
		return nil, err
	case build != nil:
		return build(n, g), nil
	}
	return New(n, edges), nil
}

// ValidateSpec checks a spec string without building a graph — what
// cmd/lcexp's upfront flag validation reaches through SpecMinWorkers before
// any dataset work.
func ValidateSpec(spec string) error {
	_, _, err := parseSpec(spec)
	return err
}

// SpecMinWorkers returns the smallest fleet a spec can span: the highest
// rank an explicit edge list names plus one, or 0 for the named topologies,
// which scale to any fleet size. Fleets below the minimum would silently
// lose the out-of-range edges (New drops them) and can leave the graph
// disconnected, so flag-level callers reject the pairing up front instead.
func SpecMinWorkers(spec string) (int, error) {
	_, edges, err := parseSpec(spec)
	n := 0
	for _, e := range edges {
		n = max(n, e[0]+1, e[1]+1)
	}
	return n, err
}

// Names lists the valid topology spec forms, for flag vocabulary messages.
func Names() []string {
	names := make([]string, 0, len(named)+1)
	for _, t := range named {
		names = append(names, t.spec)
	}
	return append(names, "edges:i-j,k-l,...")
}

// parseEdgeList parses "0-1,1-2,…" into rank pairs.
func parseEdgeList(s string) ([][2]int, error) {
	if s == "" {
		return nil, fmt.Errorf("topology: empty edge list")
	}
	var edges [][2]int
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("topology: edge %q is not of the form i-j", part)
		}
		i, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("topology: edge %q: %v", part, err)
		}
		j, err := strconv.Atoi(hi)
		if err != nil {
			return nil, fmt.Errorf("topology: edge %q: %v", part, err)
		}
		if i < 0 || j < 0 {
			return nil, fmt.Errorf("topology: edge %q has a negative rank", part)
		}
		if i == j {
			return nil, fmt.Errorf("topology: edge %q is a self-loop", part)
		}
		edges = append(edges, [2]int{i, j})
	}
	return edges, nil
}

// Workers returns the number of ranks the graph spans.
func (g *Graph) Workers() int { return len(g.adj) }

// Neighbors returns rank m's sorted neighbor list. Callers must not mutate
// it.
func (g *Graph) Neighbors(m int) []int { return g.adj[m] }

// Selector draws gossip partners from a graph using a dedicated RNG stream.
// Every Pick consumes exactly one draw whether or not a partner exists, so
// the stream's position depends only on how many commits have happened — a
// pure function of the run's event order, which keeps backends and resumed
// runs bit-identical.
type Selector struct {
	g   *Graph
	rng *rng.RNG
}

// NewSelector wraps graph g with the given stream (typically a labeled child
// of the run's seed RNG).
func NewSelector(g *Graph, r *rng.RNG) *Selector {
	return &Selector{g: g, rng: r}
}

// Pick returns rank m's gossip partner for this commit: a uniform draw over
// the neighbors j with ok(j) true, or −1 when none qualify (the worker then
// steps locally without averaging). Exactly one RNG draw is consumed either
// way.
func (s *Selector) Pick(m int, ok func(j int) bool) int {
	draw := s.rng.Uint64()
	reachable := 0
	for _, j := range s.g.Neighbors(m) {
		if ok(j) {
			reachable++
		}
	}
	if reachable == 0 {
		return -1
	}
	k := int(draw % uint64(reachable))
	for _, j := range s.g.Neighbors(m) {
		if !ok(j) {
			continue
		}
		if k == 0 {
			return j
		}
		k--
	}
	panic("topology: unreachable")
}

// PickUniform returns rank m's gossip partner when every neighbor is known
// to qualify — the no-churn fast path. It consumes exactly one draw and
// indexes the neighbor list directly, returning the same partner Pick would
// with an always-true filter (the filtered walk reduces to the k-th
// neighbor when all pass), but in O(1) instead of O(degree) — which on a
// complete graph is the difference between O(1) and O(M) per commit.
func (s *Selector) PickUniform(m int) int {
	draw := s.rng.Uint64()
	ns := s.g.Neighbors(m)
	if len(ns) == 0 {
		return -1
	}
	return ns[int(draw%uint64(len(ns)))]
}

// Stream exposes the selector's draw stream, whose position is the
// selector's only mutable state, for checkpointing.
func (s *Selector) Stream() *rng.RNG { return s.rng }
