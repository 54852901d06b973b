package mem

import (
	"testing"
	"testing/quick"

	"depburst/internal/rng"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B = 512B.
	return NewCache(CacheConfig{SizeBytes: 512, Ways: 2})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if res := c.Access(0x1000, false); res.Hit {
		t.Error("cold access hit")
	}
	if res := c.Access(0x1000, false); !res.Hit {
		t.Error("second access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := smallCache()
	c.Access(0x1000, false)
	if res := c.Access(0x1000+63, false); !res.Hit {
		t.Error("access within same line missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three addresses mapping to set 0: the same-set stride is
	// sets*LineSize = 256 bytes in this 4-set cache.
	a1 := Addr(256)
	a2 := Addr(512)
	c.Access(0, false)  // set0 way0
	c.Access(a1, false) // set0 way1
	c.Access(0, false)  // touch 0: now a1 is LRU
	c.Access(a2, false) // evicts a1
	if !c.Probe(0) {
		t.Error("recently used line evicted")
	}
	if c.Probe(a1) {
		t.Error("LRU line not evicted")
	}
	if !c.Probe(a2) {
		t.Error("new line not present")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := smallCache()
	c.Access(0, true) // dirty
	c.Access(256, false)
	res := c.Access(512, false) // evicts line 0 (LRU, dirty)
	if !res.WritebackValid {
		t.Fatal("no writeback for dirty victim")
	}
	if res.WritebackAddr != 0 {
		t.Errorf("writeback addr %x, want 0", res.WritebackAddr)
	}
	// Clean eviction produces no writeback.
	res = c.Access(768, false) // evicts 256, clean
	if res.WritebackValid {
		t.Error("clean victim wrote back")
	}
}

func TestCacheWritebackAddrSameSet(t *testing.T) {
	// Property: a writeback address always maps to the set it was evicted
	// from (address reconstruction correctness).
	cfg := CacheConfig{SizeBytes: 8 << 10, Ways: 4}
	c := NewCache(cfg)
	r := rng.New(3)
	for i := 0; i < 10_000; i++ {
		addr := Addr(r.Int63n(1 << 30)).Line()
		res := c.Access(addr, r.Bool(0.5))
		if res.WritebackValid {
			if c.setIndex(res.WritebackAddr) != c.setIndex(addr) {
				t.Fatalf("writeback %x maps to set %d, expected %d",
					res.WritebackAddr, c.setIndex(res.WritebackAddr), c.setIndex(addr))
			}
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := smallCache()
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Probe(0x40) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestCacheFlush(t *testing.T) {
	c := smallCache()
	c.Access(0, true)
	c.Access(256, false)
	if dirty := c.Flush(); dirty != 1 {
		t.Errorf("flush dirty=%d, want 1", dirty)
	}
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after flush = %d", c.Occupancy())
	}
}

func TestCacheProbeNoSideEffects(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	h, m := c.Hits, c.Misses
	c.Probe(0)
	c.Probe(0x10000)
	if c.Hits != h || c.Misses != m {
		t.Error("Probe mutated statistics")
	}
}

func TestCacheOccupancyBounded(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		c := NewCache(CacheConfig{SizeBytes: 2 << 10, Ways: 4})
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			c.Access(Addr(r.Int63n(1<<20)).Line(), r.Bool(0.3))
		}
		max := c.Config().Sets() * c.Config().Ways
		return c.Occupancy() <= max
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestCacheStatsConservation(t *testing.T) {
	// Property: hits + misses == accesses; evictions <= misses.
	c := NewCache(CacheConfig{SizeBytes: 1 << 10, Ways: 2})
	r := rng.New(9)
	const n = 5000
	for i := 0; i < n; i++ {
		c.Access(Addr(r.Int63n(1<<16)).Line(), false)
	}
	if c.Hits+c.Misses != n {
		t.Errorf("hits+misses = %d, want %d", c.Hits+c.Misses, n)
	}
	if c.Evictions > c.Misses {
		t.Errorf("evictions %d > misses %d", c.Evictions, c.Misses)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 0, Ways: 2},
		{SizeBytes: 512, Ways: 0},
		{SizeBytes: 3 * 64 * 2, Ways: 2},   // 3 sets: not a power of two
		{SizeBytes: 4 * 64 * 17, Ways: 17}, // recency word holds 16 ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestAddrLine(t *testing.T) {
	if Addr(130).Line() != 128 {
		t.Errorf("Line(130) = %d", Addr(130).Line())
	}
	if Addr(128).Line() != 128 {
		t.Errorf("Line(128) = %d", Addr(128).Line())
	}
}
