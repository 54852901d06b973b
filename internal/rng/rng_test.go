package rng

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	// Children are deterministic functions of (parent state, id)...
	p2 := New(7)
	d1 := p2.Fork(1)
	if c1.Uint64() != d1.Uint64() {
		t.Error("fork not deterministic")
	}
	// ...and differ from each other.
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling forks produce identical draws")
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// p=0.3 should be roughly 30%.
	hits := 0
	for i := 0; i < 100_000; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / 100_000; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := s.Exp(40)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-40) > 1 {
		t.Errorf("Exp(40) mean = %v", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	g := NewGeometric(25)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := g.Draw(s)
		if v < 1 {
			t.Fatalf("Geometric < 1: %v", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-25) > 1 {
		t.Errorf("Geometric(25) mean = %v", mean)
	}
	if got := NewGeometric(0.5).Draw(s); got != 1 {
		t.Errorf("Geometric(<1) = %d, want 1", got)
	}
}

// geometricFormula is the per-call sampler Geometric replaced, recomputing
// log(1-p) on every draw; the prepared sampler must match it bit for bit.
func geometricFormula(s *Source, mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	n := int64(math.Log(1-u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

func TestGeometricMatchesFormula(t *testing.T) {
	means := []float64{
		math.Inf(-1), -3, 0, 0.5, 1, // a count of 1, no draw
		math.Nextafter(1, 2), 1.001, 1.5, 2, 3.7, 10, 1000.0 / 28, 1000.0 / 7.3, 1e3, 1e6,
		1e17, math.Inf(1), math.NaN(), // log(1-p) is 0 or NaN: still one draw per count
	}
	for i, mean := range means {
		want, got := New(uint64(i)), New(uint64(i))
		g := NewGeometric(mean)
		for j := 0; j < 10_000; j++ {
			if w, d := geometricFormula(want, mean), g.Draw(got); w != d {
				t.Fatalf("mean %v draw %d: prepared %d, formula %d", mean, j, d, w)
			}
		}
		if *got != *want {
			t.Fatalf("mean %v: prepared sampler consumed a different number of draws", mean)
		}
		if mean <= 1 && *got != *New(uint64(i)) {
			t.Fatalf("mean %v: a count of 1 consumed randomness", mean)
		}
	}
}

func TestNorm(t *testing.T) {
	s := New(17)
	var sum, sq float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 || math.Abs(std-3) > 0.1 {
		t.Errorf("Norm(10,3): mean=%v std=%v", mean, std)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// treeGapMeans are the event-gap means trace.FillBlock asks for: 1000/ev for
// the loads+stores per kilo-instruction of every profile in the tree.
var treeGapMeans = func() []float64 {
	var means []float64
	for _, ev := range []float64{2, 4, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19} {
		means = append(means, 1000/ev)
	}
	return means
}()

// sourceAt returns a Source whose next Uint64 is v, by inverting one
// SplitMix64 step, so a test can feed Draw any uniform it likes.
func sourceAt(v uint64) *Source {
	unshift := func(z uint64, k uint) uint64 {
		x := z
		for s := k; s < 64; s += k {
			x ^= z >> s
		}
		return x
	}
	inverse := func(m uint64) uint64 { // odd m, mod 2^64 by Newton's method
		inv := m
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	z := unshift(v, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return &Source{state: unshift(z, 30) - 0x9E3779B97F4A7C15}
}

func TestSourceAt(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		if got := sourceAt(v).Uint64(); got != v {
			t.Fatalf("sourceAt(%#x) yields %#x", v, got)
		}
	}
}

// checkUniform compares the sampler with the formula at uniform x/2^53.
func checkUniform(t *testing.T, g Geometric, mean float64, x uint64) {
	t.Helper()
	if d, w := g.Draw(sourceAt(x<<11)), geometricFormula(sourceAt(x<<11), mean); d != w {
		t.Fatalf("mean %v uniform %#x: table %d, formula %d", mean, x, d, w)
	}
}

// TestGeometricTableTreeMeans is the table's oracle on the means the
// simulator draws from: seeded streams, and every uniform within 256 of
// every boundary the table holds, must match the formula (-short checks
// fewer of each).
func TestGeometricTableTreeMeans(t *testing.T) {
	draws, window := 10_000_000, uint64(256)
	if testing.Short() {
		draws, window = 100_000, 8
	}
	for i, mean := range treeGapMeans {
		g := NewGeometric(mean)
		if g.tab == nil || len(g.tab.first) != 1<<(53-geoBucketShift)-1 {
			t.Fatalf("mean %v: table covers %d buckets, want all but the tail bucket", mean, len(g.tab.first))
		}
		want, got := New(uint64(i)), New(uint64(i))
		for j := 0; j < draws; j++ {
			if w, d := geometricFormula(want, mean), g.Draw(got); w != d {
				t.Fatalf("mean %v draw %d: table %d, formula %d", mean, j, d, w)
			}
		}
		for _, b := range g.tab.thr {
			for x := b - window; x <= b+window; x++ {
				checkUniform(t, g, mean, x)
			}
		}
		for b := range g.tab.first { // both edges of every covered bucket
			checkUniform(t, g, mean, uint64(b)<<geoBucketShift)
			checkUniform(t, g, mean, uint64(b+1)<<geoBucketShift-1)
		}
		checkUniform(t, g, mean, 1<<53-1)
	}
}

// TestGeometricPastCacheCap: once geoCacheCap means hold tables, a new mean
// gets none and draws by the formula alone.
func TestGeometricPastCacheCap(t *testing.T) {
	var c geoCache
	for i := 0; i < geoCacheCap; i++ {
		if g := newGeometric(float64(2+i), &c); g.tab == nil {
			t.Fatalf("mean %d got no table", 2+i)
		}
	}
	const mean = 1000.0 / 13
	g := newGeometric(mean, &c)
	if g.tab != nil || c.n.Load() != geoCacheCap {
		t.Fatalf("cache grew past its cap: %d tables", c.n.Load())
	}
	want, got := New(9), New(9)
	for j := 0; j < 100_000; j++ {
		if w, d := geometricFormula(want, mean), g.Draw(got); w != d {
			t.Fatalf("draw %d: %d, formula %d", j, d, w)
		}
	}
}

// TestGeometricConcurrentFirstUse races first use of fresh means: every
// goroutine gets the one shared table, and its draws match the formula.
func TestGeometricConcurrentFirstUse(t *testing.T) {
	var c geoCache
	means := []float64{1000.0 / 3, 1000.0 / 5, 1000.0 / 7}
	const workers = 8
	tabs := make([][]*geoTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, mean := range means {
				g := newGeometric(mean, &c)
				tabs[w] = append(tabs[w], g.tab)
				want, got := New(uint64(10*w+i)), New(uint64(10*w+i))
				for j := 0; j < 10_000; j++ {
					if wv, d := geometricFormula(want, mean), g.Draw(got); wv != d {
						t.Errorf("worker %d mean %v draw %d: %d, formula %d", w, mean, j, d, wv)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range tabs {
		for i := range means {
			if tabs[w][i] == nil || tabs[w][i] != tabs[0][i] {
				t.Fatalf("worker %d mean %v: table %p, worker 0 has %p", w, means[i], tabs[w][i], tabs[0][i])
			}
		}
	}
}

var drawSink int64

// TestGeometricDrawZeroAllocs: a draw from a sampler whose table exists
// never allocates.
func TestGeometricDrawZeroAllocs(t *testing.T) {
	g := NewGeometric(1000.0 / 14)
	s := New(4)
	if avg := testing.AllocsPerRun(1000, func() { drawSink += g.Draw(s) + NewGeometric(1000.0/14).Draw(s) }); avg != 0 {
		t.Errorf("Draw allocates %.2f objects/op, want 0", avg)
	}
}

// FuzzGeometricMatchesFormula builds a fresh table for an arbitrary mean and
// checks seeded draws, and the uniforms either side of each boundary,
// against the formula, including how many values each draw consumes.
func FuzzGeometricMatchesFormula(f *testing.F) {
	f.Add(1000.0/14, uint64(1))
	f.Add(1.5, uint64(2))
	f.Add(math.Nextafter(1, 2), uint64(3))
	f.Add(1e17, uint64(4))
	f.Add(math.Inf(1), uint64(5))
	f.Fuzz(func(t *testing.T, mean float64, seed uint64) {
		g := newGeometric(mean, &geoCache{})
		want, got := New(seed), New(seed)
		for j := 0; j < 1000; j++ {
			if w, d := geometricFormula(want, mean), g.Draw(got); w != d {
				t.Fatalf("mean %v seed %d draw %d: %d, formula %d", mean, seed, j, d, w)
			}
		}
		if *got != *want {
			t.Fatalf("mean %v: the sampler consumed a different number of values", mean)
		}
		if g.tab == nil {
			return
		}
		for _, b := range g.tab.thr {
			for x := b - 2; x <= b+1; x++ {
				checkUniform(t, g, mean, x)
			}
		}
	})
}

// BenchmarkGeometricDraw draws event gaps at a tree mean, from the table
// and by the formula.
func BenchmarkGeometricDraw(b *testing.B) {
	formula := NewGeometric(1000.0 / 14)
	formula.tab = nil
	for _, bc := range []struct {
		name string
		g    Geometric
	}{{"table", NewGeometric(1000.0 / 14)}, {"formula", formula}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += bc.g.Draw(s)
			}
			drawSink = sum
		})
	}
}
