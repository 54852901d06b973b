// Package mem models the memory hierarchy: set-associative write-back
// caches (a private L2 per core and a shared L3) in front of a banked DRAM
// with open-page row buffers and bandwidth/queueing effects.
//
// The hierarchy is the source of the "non-scaling" execution-time component
// that DVFS predictors must separate out: its latencies are expressed in
// wall-clock picoseconds and do not change with the core frequency.
package mem

import "math/bits"

// LineSize is the cache line size in bytes, shared by every level.
const LineSize = 64

// lineShift is log2(LineSize), so addr>>lineShift is the line number.
const lineShift = 6

// Addr is a physical byte address.
type Addr uint64

// Line returns the cache-line-aligned address containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity. Must be a multiple of
	// LineSize*Ways.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (LineSize * c.Ways) }

// Packed way word: the tag above two flag bits. An invalid way is all
// zeros, so a single compare of word&^dirtyBit against tag<<tagShift|validBit
// tests presence.
const (
	validBit = 1
	dirtyBit = 2
	tagShift = 2
)

// maxWays bounds the associativity: a set's recency order must fit one
// uint64 at 4 bits per way.
const maxWays = 16

// nibbles broadcasts a 4-bit value to every nibble of a word.
const nibbles = 0x1111111111111111

// initialOrder is the recency word a set starts from: way r at rank r,
// truncated to the set's ways.
const initialOrder = 0xFEDCBA9876543210

// Cache is a set-associative write-back, write-allocate cache with true LRU
// replacement. It models tags only (no data), which is all timing needs.
//
// Each way is one packed word (see validBit) and set s occupies
// lines[s*ways : (s+1)*ways], so a 16-way set is 128 contiguous bytes and
// address hashing is pure shift/mask. Each set's LRU order is one recency
// word: rank r (0 = most recently used) holds a way index in bits
// [4r, 4r+4), and ranks at or above ways are zero. A per-set mask marks
// the valid ways. The miss victim is the lowest-index invalid way, else
// the top nibble, with no scan. Invalidation clears a way and its mask bit
// and leaves the recency word alone: touch keeps the relative order of
// every way it does not move, and the order only picks a victim once every
// way is valid, by when each has been touched since it was last invalid,
// so the top nibble is the least recently used way.
type Cache struct {
	cfg      CacheConfig
	lines    []uint64
	recency  []uint64
	valid    []uint16 // bit i: way i holds a line
	full     uint16   // every way's valid bit
	ways     int
	setMask  uint64
	setShift uint // log2(number of sets); tag = lineNumber >> setShift
	lruShift uint // 4*(ways-1): recency>>lruShift is the victim way

	// Stats
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// NewCache builds a cache from cfg. It panics on a degenerate geometry
// (non-power-of-two set count, zero ways, or more than 16 ways) because
// address hashing relies on power-of-two sets and the recency word holds at
// most 16 ways.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if cfg.Ways <= 0 || cfg.Ways > maxWays || sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: invalid cache geometry")
	}
	shift := uint(0)
	for 1<<shift != sets {
		shift++
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]uint64, sets*cfg.Ways),
		recency:  make([]uint64, sets),
		valid:    make([]uint16, sets),
		full:     uint16(1<<cfg.Ways - 1),
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: shift,
		lruShift: uint(4 * (cfg.Ways - 1)),
	}
	c.resetOrder()
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setIndex(a Addr) uint64 {
	return (uint64(a) >> lineShift) & c.setMask
}

func (c *Cache) tag(a Addr) uint64 {
	return (uint64(a) >> lineShift) >> c.setShift
}

// key is the packed word of a present, clean line holding addr.
func (c *Cache) key(a Addr) uint64 {
	return c.tag(a)<<tagShift | validBit
}

// set returns the ways of set si as a full-capacity sub-slice.
func (c *Cache) set(si uint64) []uint64 {
	base := int(si) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// touch returns recency word rec with way moved to rank 0 and the ranks it
// passed over shifted up by one. It is branch-free: XOR zeroes way's nibble,
// the zero-nibble test marks it (the lowest mark is exact, borrows only
// corrupt marks above it), and its trailing-zero count is 4*rank+3.
func touch(rec, way uint64) uint64 {
	x := rec ^ way*nibbles
	r := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<r - 1
	above := ^(uint64(1)<<(r+4) - 1) // zero when way is at rank 15
	return rec&above | (rec&below)<<4 | way
}

// resetOrder starts every set's recency word from initialOrder.
func (c *Cache) resetOrder() {
	order := initialOrder & (^uint64(0) >> (60 - c.lruShift))
	for si := range c.recency {
		c.recency[si] = order
	}
}

// AccessResult reports the outcome of a cache access.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the address of a dirty line evicted to make room;
	// zero and WritebackValid=false when no dirty eviction occurred.
	WritebackAddr  Addr
	WritebackValid bool
}

// Access looks up addr, allocating the line on a miss (write-allocate).
// write marks the line dirty. The returned result says whether it hit and
// whether a dirty victim must be written back to the next level.
//
//depburst:hotpath
func (c *Cache) Access(addr Addr, write bool) AccessResult {
	si := c.setIndex(addr)
	set := c.set(si)
	key := c.key(addr)
	var dirty uint64
	if write {
		dirty = dirtyBit
	}

	for i, w := range set {
		if w&^dirtyBit == key {
			set[i] = w | dirty
			c.recency[si] = touch(c.recency[si], uint64(i))
			c.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.Misses++

	rec := c.recency[si]
	var res AccessResult
	var victim uint64
	if inv := ^c.valid[si] & c.full; inv != 0 {
		victim = uint64(bits.TrailingZeros16(inv))
		c.valid[si] |= 1 << victim
	} else {
		victim = rec >> c.lruShift
		c.Evictions++
		if old := set[victim]; old&dirtyBit != 0 {
			c.Writebacks++
			res.WritebackValid = true
			res.WritebackAddr = c.reconstruct(old>>tagShift, si)
		}
	}
	set[victim] = key | dirty
	c.recency[si] = touch(rec, victim)
	return res
}

// Probe reports whether addr is present without touching LRU state or
// statistics.
func (c *Cache) Probe(addr Addr) bool {
	key := c.key(addr)
	for _, w := range c.set(c.setIndex(addr)) {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

// Invalidate drops addr from the cache if present, returning whether the
// dropped line was dirty.
func (c *Cache) Invalidate(addr Addr) (present, dirty bool) {
	si := c.setIndex(addr)
	set := c.set(si)
	key := c.key(addr)
	for i, w := range set {
		if w&^dirtyBit == key {
			set[i] = 0
			c.valid[si] &^= 1 << i
			return true, w&dirtyBit != 0
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
func (c *Cache) InvalidateRange(base Addr, size int64) {
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
	for si, valid := range c.valid {
		set := c.set(uint64(si))
		for m := valid; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			if a := c.reconstruct(set[i]>>tagShift, uint64(si)); a >= lo && a < hi {
				set[i] = 0
				valid &^= 1 << i
			}
		}
		c.valid[si] = valid
	}
}

// InstallRange primes every line in [base, base+size) as present, dirty and
// most-recently-used, without generating writebacks for replaced victims and
// without touching hit/miss statistics. It exists for sampled simulation's
// fast-forward path — bulk-priming freshly zero-initialised allocation
// ranges so a later detailed collection sees warm cache state — and must
// not be used on detailed timing paths.
//
// The victim way is a fixed hash of the line number (tag % ways) rather
// than the replacement victim Access takes; sampled runs are defined by
// that rule, so changing it changes their results. The caller must
// guarantee the lines are not already present (the range was recycled via
// InvalidateRange and not re-touched), or duplicate tags would result.
func (c *Cache) InstallRange(base Addr, size int64) {
	if size <= 0 {
		return
	}
	hi := base + Addr(size)
	ways := uint64(c.ways)
	for a := base.Line(); a < hi; a += LineSize {
		ln := uint64(a) >> lineShift
		si := ln & c.setMask
		tag := ln >> c.setShift
		way := tag % ways
		c.lines[si*ways+way] = tag<<tagShift | dirtyBit | validBit
		c.valid[si] |= 1 << way
		c.recency[si] = touch(c.recency[si], way)
	}
}

// Flush invalidates the entire cache, returning the number of dirty lines
// discarded.
func (c *Cache) Flush() (dirty int) {
	for _, w := range c.lines {
		if w&dirtyBit != 0 {
			dirty++
		}
	}
	clear(c.lines)
	clear(c.valid)
	c.resetOrder()
	return dirty
}

func (c *Cache) reconstruct(tag, setIdx uint64) Addr {
	return Addr((tag<<c.setShift | setIdx) << lineShift)
}

// Occupancy returns the number of valid lines, mostly for tests.
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.lines {
		n += int(w & validBit)
	}
	return n
}
