// Package rng provides the deterministic pseudo-random number generator used
// by the simulator and workload generators.
//
// Every stochastic choice in a simulation draws from an rng.Source seeded
// from the run configuration, so a run is a pure function of its config:
// the same seed always reproduces the same execution, which the test suite
// relies on.
package rng

import (
	"math"
	"sync"
	"sync/atomic"
)

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
// success with p = 1/mean. A draw consumes one uniform u = x/2^53 and
// returns the formula's count, int64(log(1-u)/log(1-p))+1, but looks it up
// in a table of the formula's own count boundaries (see geoTable) whenever
// the table covers x; only the far tail, and means with no table, pay the
// logarithm. Every count is the formula's. The zero value always returns
// 1, like a mean <= 1.
type Geometric struct {
	logq  float64   // log(1-p)
	tab   *geoTable // nil: every draw takes the formula
	draws bool      // mean > 1; otherwise every count is 1 and draws nothing
}

// NewGeometric prepares a sampler for the given mean (mean must be >= 1).
// Samplers of one mean share its table, built on first use.
func NewGeometric(mean float64) Geometric {
	return newGeometric(mean, &geoTables)
}

func newGeometric(mean float64, tables *geoCache) Geometric {
	if mean <= 1 {
		return Geometric{}
	}
	p := 1 / mean
	logq := math.Log(1 - p)
	return Geometric{logq: logq, tab: tables.get(logq), draws: true}
}

// Draw returns the next count, consuming one value from s when the mean
// exceeds 1.
func (g Geometric) Draw(s *Source) int64 {
	if !g.draws {
		return 1
	}
	x := s.Uint64() >> 11 // the 53-bit uniform Float64 divides by 2^53
	if t := g.tab; t != nil {
		if b := x >> geoBucketShift; b < uint64(len(t.first)) {
			j := int(t.first[b])
			for t.thr[j] <= x {
				j++
			}
			return int64(j) + 1
		}
	}
	return geometricCount(x, g.logq)
}

// geometricCount is the formula: the count for uniform x/2^53.
func geometricCount(x uint64, logq float64) int64 {
	u := float64(x) / (1 << 53)
	n := int64(math.Log(1-u)/logq) + 1
	if n < 1 {
		n = 1
	}
	return n
}

const (
	// geoBucketShift keeps the top 11 bits of a 53-bit uniform: a table
	// indexes 2048 buckets.
	geoBucketShift = 53 - 11
	// geoMaxCounts bounds a table's boundaries (32 KiB of them).
	geoMaxCounts = 4096
	// geoCheck is how many uniforms on each side of a boundary the builder
	// checks. A logarithm is within one ulp, so the formula can only
	// misorder uniforms within about two of a boundary; a misordered one
	// fails the check, and the table stops short of that count.
	geoCheck = 8
	// geoCacheCap bounds how many means keep a table; later means draw by
	// the formula alone.
	geoCacheCap = 64
)

// geoTable is the formula's count as a function of the uniform x, for one
// log(1-p). thr[j] is the smallest x whose count exceeds j+1, so below
// thr[len(thr)-1] the count is one plus the number of boundaries at or
// below x. first[b] is the number of boundaries at or below bucket b's
// first uniform; the table covers exactly the buckets that end at or
// below its last boundary, so the scan in Draw always stops inside thr.
type geoTable struct {
	thr   []uint64
	first []uint16
}

// buildGeoTable bisects for each boundary with the formula, between the
// previous boundary and the top uniform, narrowed to 64 uniforms either
// side of the closed form 2^53 * -expm1(c*log(1-p)) whenever the formula
// agrees there, then checks geoCheck uniforms on each side. It stops at
// geoMaxCounts boundaries, at the first boundary in the last bucket (which
// holds the unbounded tail), when no boundary is left below 2^53, or at a
// boundary whose check fails. It returns nil when no bucket is covered.
func buildGeoTable(logq float64) *geoTable {
	const top = 1<<53 - 1
	count := func(x uint64) int64 { return geometricCount(x, logq) }
	var thr []uint64
	lo := uint64(0) // count(lo) <= c: the previous boundary, or 0
	for c := int64(1); c <= geoMaxCounts && count(top) > c; c++ {
		hi := uint64(top) // count(lo) <= c < count(hi)
		if est := -math.Expm1(float64(c)*logq) * (1 << 53); est < top {
			x := uint64(est)
			if y := x - min(x, 64); y > lo && count(y) <= c {
				lo = y
			}
			if y := x + 64; y < hi && count(y) > c {
				hi = y
			}
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; count(mid) > c {
				hi = mid
			} else {
				lo = mid
			}
		}
		for d := uint64(1); d <= geoCheck; d++ {
			if hi < d || count(hi-d) != c || hi+d-1 > top || count(hi+d-1) != c+1 {
				return newGeoTable(thr)
			}
		}
		thr = append(thr, hi)
		if hi>>geoBucketShift == top>>geoBucketShift {
			break
		}
		lo = hi
	}
	return newGeoTable(thr)
}

// newGeoTable indexes the buckets that end at or below the last boundary.
func newGeoTable(thr []uint64) *geoTable {
	if len(thr) == 0 {
		return nil
	}
	n := thr[len(thr)-1] >> geoBucketShift
	if n == 0 {
		return nil
	}
	t := &geoTable{thr: thr, first: make([]uint16, n)}
	j := 0
	for b := range t.first {
		for j < len(thr) && thr[j] <= uint64(b)<<geoBucketShift {
			j++
		}
		t.first[b] = uint16(j)
	}
	return t
}

// geoCache shares one table per log(1-p) among every sampler in the
// process. A slot is written once, under mu, before n publishes it, so
// readers scan the first n slots without the lock.
type geoCache struct {
	mu    sync.Mutex
	n     atomic.Int32
	slots [geoCacheCap]struct {
		key uint64 // math.Float64bits(log(1-p))
		tab *geoTable
	}
}

// geoTables is the process-wide cache NewGeometric uses.
var geoTables geoCache

// get returns logq's table, building it on first use. Means whose log(1-p)
// is 0, NaN or infinite, means past geoCacheCap, and means no bucket of
// which can be covered get nil and draw by the formula.
func (c *geoCache) get(logq float64) *geoTable {
	if !(logq < 0) || math.IsInf(logq, -1) {
		return nil
	}
	key := math.Float64bits(logq)
	if t, ok := c.lookup(key, c.n.Load()); ok {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n.Load()
	if t, ok := c.lookup(key, n); ok {
		return t
	}
	if int(n) == len(c.slots) {
		return nil
	}
	t := buildGeoTable(logq)
	c.slots[n].key, c.slots[n].tab = key, t
	c.n.Store(n + 1)
	return t
}

// lookup scans the first n slots for key.
func (c *geoCache) lookup(key uint64, n int32) (*geoTable, bool) {
	for _, s := range c.slots[:n] {
		if s.key == key {
			return s.tab, true
		}
	}
	return nil, false
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
