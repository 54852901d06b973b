// Package rng provides the deterministic pseudo-random number generator used
// by the simulator and workload generators.
//
// Every stochastic choice in a simulation draws from an rng.Source seeded
// from the run configuration, so a run is a pure function of its config:
// the same seed always reproduces the same execution, which the test suite
// relies on.
package rng

import "math"

// Source is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent child generator from s, keyed by id. Forking
// lets each thread or subsystem own a private stream whose draws do not
// depend on the interleaving of other components.
func (s *Source) Fork(id uint64) *Source {
	// Mix the parent state with the id through one splitmix step each.
	child := New(s.Uint64() ^ (id*0x9E3779B97F4A7C15 + 0x1F83D9ABFB41BD6B))
	return child
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Geometric samples geometrically distributed counts >= 1 with a fixed
// mean: the number of Bernoulli trials up to and including the first
// success with p = 1/mean. Preparing it computes log(1-p) once, so a draw
// costs one logarithm. The zero value always returns 1, like a mean <= 1.
type Geometric struct {
	logq  float64 // log(1-p)
	draws bool    // mean > 1; otherwise every count is 1 and draws nothing
}

// NewGeometric prepares a sampler for the given mean (mean must be >= 1).
func NewGeometric(mean float64) Geometric {
	if mean <= 1 {
		return Geometric{}
	}
	p := 1 / mean
	return Geometric{logq: math.Log(1 - p), draws: true}
}

// Draw returns the next count, consuming one value from s when the mean
// exceeds 1.
func (g Geometric) Draw(s *Source) int64 {
	if !g.draws {
		return 1
	}
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	n := int64(math.Log(1-u)/g.logq) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the polar Box-Muller transform.
func (s *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
