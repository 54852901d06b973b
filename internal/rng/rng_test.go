package rng

import (
	"math"
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
