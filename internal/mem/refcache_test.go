package mem

import (
	"testing"

	"depburst/internal/rng"
)

// refCache is the original cache layout — one 24-byte cacheLine per way,
// per-way LRU stamps from a global clock, and a linear victim scan — kept
// verbatim as the oracle for the packed-word Cache. Every simulated number
// depends on the two choosing identical victims, so the differential tests
// below compare them operation by operation.

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set sequence number; higher = more recently used.
	lru uint64
}

// refCache is a set-associative write-back, write-allocate cache with true LRU
// replacement. It models tags only (no data), which is all timing needs.
//
// Lines are stored as one contiguous slice — set s occupies
// lines[s*ways : (s+1)*ways] — and address hashing is pure shift/mask, so
// Access touches a single cache-resident run of memory with no per-set
// slice header indirection and no integer division.
type refCache struct {
	cfg      CacheConfig
	lines    []cacheLine
	ways     int
	setMask  uint64
	setShift uint // log2(number of sets); tag = lineNumber >> setShift
	lruClock uint64

	// Stats
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// newRefCache builds a cache from cfg. It panics on a degenerate geometry
// (non-power-of-two set count, or zero ways) because address hashing relies
// on power-of-two sets.
func newRefCache(cfg CacheConfig) *refCache {
	sets := cfg.Sets()
	if cfg.Ways <= 0 || sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: invalid cache geometry")
	}
	shift := uint(0)
	for 1<<shift != sets {
		shift++
	}
	return &refCache{
		cfg:      cfg,
		lines:    make([]cacheLine, sets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: shift,
	}
}

// Config returns the cache geometry.
func (c *refCache) Config() CacheConfig { return c.cfg }

func (c *refCache) setIndex(a Addr) uint64 {
	return (uint64(a) >> lineShift) & c.setMask
}

func (c *refCache) tag(a Addr) uint64 {
	return (uint64(a) >> lineShift) >> c.setShift
}

// set returns the ways of set si as a full-capacity sub-slice.
func (c *refCache) set(si uint64) []cacheLine {
	base := int(si) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Access looks up addr, allocating the line on a miss (write-allocate).
// write marks the line dirty. The returned result says whether it hit and
// whether a dirty victim must be written back to the next level.
func (c *refCache) Access(addr Addr, write bool) AccessResult {
	si := c.setIndex(addr)
	set := c.set(si)
	tag := c.tag(addr)
	c.lruClock++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.lruClock
			if write {
				set[i].dirty = true
			}
			c.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.Misses++

	// Choose victim in one pass: the first invalid way if any, else the
	// least recently used (lowest-index on ties, matching true LRU with
	// the strictly-increasing lru clock).
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var res AccessResult
	if set[victim].valid {
		c.Evictions++
		if set[victim].dirty {
			c.Writebacks++
			res.WritebackValid = true
			res.WritebackAddr = c.reconstruct(set[victim].tag, si)
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	return res
}

// Probe reports whether addr is present without touching LRU state or
// statistics.
func (c *refCache) Probe(addr Addr) bool {
	set := c.set(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops addr from the cache if present, returning whether the
// dropped line was dirty.
func (c *refCache) Invalidate(addr Addr) (present, dirty bool) {
	set := c.set(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = cacheLine{}
			return true, d
		}
	}
	return false, false
}

// InvalidateRange drops every line in [base, base+size) from the cache —
// identical in effect to calling Invalidate on each line address, but when
// the range spans more lines than the cache holds it walks the tag array
// instead of the address range, so the cost is O(min(range lines, cache
// lines)) rather than O(range lines). Recycling a multi-megabyte nursery
// against a few hundred kilobytes of cache is the case that matters.
func (c *refCache) InvalidateRange(base Addr, size int64) {
	if size <= 0 {
		return
	}
	lo := base.Line()
	hi := base + Addr(size)
	// A per-line probe scans a whole set (ways entries, usually without a
	// match); the tag-array walk touches every line entry exactly once.
	if int64(hi-lo)/LineSize*int64(c.ways) < int64(len(c.lines)) {
		for a := lo; a < hi; a += LineSize {
			c.Invalidate(a)
		}
		return
	}
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		if a := c.reconstruct(ln.tag, uint64(i/c.ways)); a >= lo && a < hi {
			*ln = cacheLine{}
		}
	}
}

// InstallRange primes every line in [base, base+size) as present, dirty and
// most-recently-used, without generating writebacks for replaced victims and
// without touching hit/miss statistics. It exists for sampled simulation's
// fast-forward path — bulk-priming freshly zero-initialised allocation
// ranges so a later detailed collection sees warm cache state — and must
// not be used on detailed timing paths.
//
// The victim way is a fixed hash of the line number rather than the LRU
// scan Access performs, making the install O(1) per line; refill bursts
// install megabytes at a time, so the scan would dominate the fast path it
// exists to serve. The caller must guarantee the lines are not already
// present (the range was recycled via InvalidateRange and not re-touched),
// or duplicate tags would result.
func (c *refCache) InstallRange(base Addr, size int64) {
	if size <= 0 {
		return
	}
	hi := base + Addr(size)
	for a := base.Line(); a < hi; a += LineSize {
		ln := uint64(a) >> lineShift
		tag := ln >> c.setShift
		c.lruClock++
		way := int(tag) % c.ways
		c.lines[int(ln&c.setMask)*c.ways+way] = cacheLine{tag: tag, valid: true, dirty: true, lru: c.lruClock}
	}
}

// Flush invalidates the entire cache, returning the number of dirty lines
// discarded.
func (c *refCache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = cacheLine{}
	}
	return dirty
}

func (c *refCache) reconstruct(tag, setIdx uint64) Addr {
	return Addr((tag<<c.setShift | setIdx) << lineShift)
}

// Occupancy returns the number of valid lines, mostly for tests.
func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// diffWays are the associativities the differential tests cover: every
// geometry in the tree uses 2–16 ways, and 16 fills the recency word.
var diffWays = []int{2, 4, 8, 16}

// diffCache replays an operation stream against a Cache and a refCache of
// the same geometry (16 sets of the given ways) and fails at the first
// divergence in any result, writeback address, counter or occupancy.
//
// Each operation takes four bytes: an opcode, a 16-bit line number within a
// region four times the capacity (placed high so tag reconstruction uses
// upper address bits), and an argument byte for offsets, range sizes and
// modifiers. Per-line InvalidateRange spans fewer lines than there are sets
// and the tag-walk branch at least as many; either may be followed by an
// InstallRange of the range it just emptied, the only way the simulator
// uses InstallRange.
func diffCache(t testing.TB, ways int, ops []byte) {
	t.Helper()
	const sets = 16
	cfg := CacheConfig{SizeBytes: sets * ways * LineSize, Ways: ways}
	got, ref := NewCache(cfg), newRefCache(cfg)
	regionLines := 4 * sets * ways
	for n := 0; len(ops) >= 4; n++ {
		op, arg := ops[0]%16, ops[3]
		line := (int(ops[1])<<8 | int(ops[2])) % regionLines
		addr := Addr(1)<<40 + Addr(line*LineSize) + Addr(arg%LineSize)
		ops = ops[4:]
		what := ""
		switch {
		case op < 11:
			write := op >= 7
			what = "Access"
			if g, r := got.Access(addr, write), ref.Access(addr, write); g != r {
				t.Fatalf("op %d: Access(%#x, %v) = %+v, reference %+v", n, addr, write, g, r)
			}
		case op == 11:
			what = "Probe"
			if g, r := got.Probe(addr), ref.Probe(addr); g != r {
				t.Fatalf("op %d: Probe(%#x) = %v, reference %v", n, addr, g, r)
			}
		case op == 12:
			what = "Invalidate"
			gp, gd := got.Invalidate(addr)
			rp, rd := ref.Invalidate(addr)
			if gp != rp || gd != rd {
				t.Fatalf("op %d: Invalidate(%#x) = (%v, %v), reference (%v, %v)", n, addr, gp, gd, rp, rd)
			}
		case op == 13 || op == 14:
			lines := 1 + int(arg>>1)%(sets-1) // per-line branch
			if op == 14 {
				lines = sets + int(arg>>1)*ways/8 // tag-walk branch
			}
			size := int64(lines * LineSize)
			what = "InvalidateRange"
			got.InvalidateRange(addr, size)
			ref.InvalidateRange(addr, size)
			if arg&1 != 0 {
				what = "InvalidateRange+InstallRange"
				got.InstallRange(addr, size)
				ref.InstallRange(addr, size)
			}
		case arg < 8:
			what = "Flush"
			if g, r := got.Flush(), ref.Flush(); g != r {
				t.Fatalf("op %d: Flush = %d dirty, reference %d", n, g, r)
			}
		default:
			what = "Access"
			if g, r := got.Access(addr, false), ref.Access(addr, false); g != r {
				t.Fatalf("op %d: Access(%#x) = %+v, reference %+v", n, addr, g, r)
			}
		}
		if got.Hits != ref.Hits || got.Misses != ref.Misses || got.Evictions != ref.Evictions || got.Writebacks != ref.Writebacks {
			t.Fatalf("op %d (%s): stats hits/misses/evictions/writebacks %d/%d/%d/%d, reference %d/%d/%d/%d", n, what,
				got.Hits, got.Misses, got.Evictions, got.Writebacks, ref.Hits, ref.Misses, ref.Evictions, ref.Writebacks)
		}
		if g, r := got.Occupancy(), ref.Occupancy(); g != r {
			t.Fatalf("op %d (%s): occupancy %d, reference %d", n, what, g, r)
		}
	}
}

// TestCacheMatchesReference drives both layouts with seeded random streams
// over every covered associativity.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range diffWays {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed)
			ops := make([]byte, 4*20_000)
			for i := range ops {
				ops[i] = byte(r.Uint64())
			}
			diffCache(t, ways, ops)
		}
	}
}
