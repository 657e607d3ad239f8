// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the LC-ASGD reproduction.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure and table must regenerate bit-identically from a seed. The standard
// library's math/rand is seedable but offers no principled way to derive
// independent streams for each worker, layer, and dataset shard. This package
// implements xoshiro256** (Blackman & Vigna) seeded through SplitMix64, with
// a Split operation that derives statistically independent child streams.
package rng

import (
	"fmt"
	"math"

	"lcasgd/internal/snapshot"
)

// RNG is a xoshiro256** generator. The zero value is not valid; construct
// with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the state and returns the next output. It is used only
// for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	r.s0 = splitmix64(&st)
	r.s1 = splitmix64(&st)
	r.s2 = splitmix64(&st)
	r.s3 = splitmix64(&st)
	// xoshiro requires a nonzero state; splitmix64 of any seed gives one
	// with overwhelming probability, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child stream. The child is seeded from the
// parent's output so that distinct calls yield distinct streams, and the
// parent advances, so subsequent Splits differ too.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// State exposes the generator's exact position as four words — the
// serializable form the snapshot subsystem persists. Restoring it with
// SetState resumes the stream at the exact draw it was captured at, which
// is what makes checkpointed training runs replay bit-identically.
func (r *RNG) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState rewinds (or fast-forwards) the generator to a previously
// captured State. The all-zero state is invalid for xoshiro (it is a fixed
// point that only ever outputs zero) and panics: it can only arise from a
// corrupted snapshot, never from State().
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("rng: SetState with all-zero state")
	}
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
}

// Walk walks the generator's State as one length-prefixed word slice.
// Snapshot bytes are not trusted: a wrong word count or the all-zero state
// SetState panics on fails the walk, and the generator is left where it was.
// The error names only the length: handing the words to fmt would move the
// state array of every writing walk to the heap.
func (r *RNG) Walk(c snapshot.Codec) {
	st := r.State()
	s := st[:]
	c.U64s(&s)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if len(s) != 4 || s[0]|s[1]|s[2]|s[3] == 0 {
		c.Fail(fmt.Errorf("%w: rng state of %d words is not four words with a bit set", snapshot.ErrCorrupt, len(s)))
		return
	}
	r.SetState([4]uint64(s))
}

// SplitLabeled derives a child stream bound to a small integer label (for
// example a worker rank or layer index). Two parents with equal state produce
// equal children for equal labels, which keeps per-worker streams stable even
// if the order of unrelated Split calls changes.
func (r *RNG) SplitLabeled(label uint64) *RNG {
	base := r.Uint64()
	return New(base ^ (label+1)*0x9e3779b97f4a7c15)
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style rejection-free-enough bounded generation; bias is
	// negligible for the n used here (dataset sizes), but use rejection to
	// stay exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Normal returns a standard normal deviate via the Marsaglia polar method.
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a lognormal deviate with the given parameters of the
// underlying normal (mu, sigma). It is the distribution used for the
// simulated compute/communication costs of cluster workers, matching the
// heavy-tailed latencies the paper's introduction describes.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// FillNormal fills dst with independent normal deviates scaled by stddev.
func (r *RNG) FillNormal(dst []float64, stddev float64) {
	for i := range dst {
		dst[i] = r.Normal() * stddev
	}
}
