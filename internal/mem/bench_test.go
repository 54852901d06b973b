package mem

import (
	"testing"

	"depburst/internal/metrics"
	"depburst/internal/rng"
	"depburst/internal/units"
)

// BenchmarkCalendarReserve measures the reservation ledger's hot path: one
// capacity booking at a steadily advancing arrival time.
func BenchmarkCalendarReserve(b *testing.B) {
	c := newCalendar(250*units.Nanosecond, 256)
	b.ReportAllocs()
	now := units.Time(0)
	for i := 0; i < b.N; i++ {
		c.reserve(now, 25*units.Nanosecond)
		now += 30 * units.Nanosecond
	}
}

// BenchmarkCalendarReserveSaturated books more capacity than the resource
// has, forcing the spill-to-later-buckets path.
func BenchmarkCalendarReserveSaturated(b *testing.B) {
	c := newCalendar(250*units.Nanosecond, 256)
	b.ReportAllocs()
	now := units.Time(0)
	for i := 0; i < b.N; i++ {
		c.reserve(now, 40*units.Nanosecond)
		now += 20 * units.Nanosecond // arrival rate 2x service rate
		if i&1023 == 1023 {
			c.reset() // bound the backlog the scan has to walk
			now = 0
		}
	}
}

// BenchmarkDRAMReset measures run-to-run reuse of the device model (the
// calendar rings are cleared in place, not reallocated).
func BenchmarkDRAMReset(b *testing.B) {
	d := NewDRAM(DefaultDRAMConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Reset()
	}
}

// BenchmarkCacheAccessHit measures the packed lookup path on a
// cache-resident working set (the L2 steady state: mostly hits).
func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(CacheConfig{SizeBytes: 256 << 10, Ways: 8})
	const lines = 1024 // 64 KiB working set, fits easily
	for i := 0; i < lines; i++ {
		c.Access(Addr(i*LineSize), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Addr((i%lines)*LineSize), i&7 == 0)
	}
}

// BenchmarkCacheAccessMiss streams far beyond the capacity, exercising the
// victim choice, eviction and dirty-writeback reconstruction every access.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := NewCache(CacheConfig{SizeBytes: 256 << 10, Ways: 8})
	r := rng.New(5)
	addrs := make([]Addr, 8192)
	for i := range addrs {
		addrs[i] = Addr(r.Int63n(1 << 34)).Line()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&8191], i&3 == 0)
	}
}

// TestCacheAccessZeroAllocs locks the packed Access path — lookup,
// victim choice, writeback reconstruction — at zero heap allocations.
func TestCacheAccessZeroAllocs(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 8 << 10, Ways: 4})
	r := rng.New(7)
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(r.Int63n(1 << 30)).Line()
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		c.Access(addrs[i&1023], i&3 == 0)
		i++
	})
	if avg != 0 {
		t.Errorf("Cache.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestCalendarReserveZeroAllocs locks the reservation path at zero heap
// allocations per booking.
func TestCalendarReserveZeroAllocs(t *testing.T) {
	c := newCalendar(250*units.Nanosecond, 256)
	now := units.Time(0)
	avg := testing.AllocsPerRun(1000, func() {
		c.reserve(now, 25*units.Nanosecond)
		now += 30 * units.Nanosecond
	})
	if avg != 0 {
		t.Errorf("calendar.reserve allocates %.2f objects/op, want 0", avg)
	}
}

// TestDRAMAccessZeroAllocs locks the whole device access path (bank lookup,
// row-buffer state, bank + bus reservations) at zero allocations.
func TestDRAMAccessZeroAllocs(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	r := rng.New(7)
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(r.Int63n(1 << 30)).Line()
	}
	now := units.Time(0)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		d.Access(now, addrs[i&1023], i&3 == 0)
		now += 20 * units.Nanosecond
		i++
	})
	if avg != 0 {
		t.Errorf("DRAM.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestDRAMAccessZeroAllocsWithMetrics re-runs the access-path guard with an
// observability registry attached: the per-access latency observation
// (histogram bucket + counters) must also be allocation-free, so enabling
// metrics never changes the hot path's allocation profile.
func TestDRAMAccessZeroAllocsWithMetrics(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)
	r := rng.New(7)
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(r.Int63n(1 << 30)).Line()
	}
	now := units.Time(0)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		d.Access(now, addrs[i&1023], i&3 == 0)
		now += 20 * units.Nanosecond
		i++
	})
	if avg != 0 {
		t.Errorf("DRAM.Access with metrics allocates %.2f objects/op, want 0", avg)
	}
	if n := reg.Counts(); n.DRAMReads == 0 || n.DRAMWrites == 0 {
		t.Errorf("registry observed nothing: %+v", n)
	}
}

// TestDRAMResetZeroAllocs locks in the in-place calendar reset.
func TestDRAMResetZeroAllocs(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	avg := testing.AllocsPerRun(100, func() { d.Reset() })
	if avg != 0 {
		t.Errorf("DRAM.Reset allocates %.2f objects/op, want 0", avg)
	}
}

// TestDRAMResetClearsState: behaviour after Reset must match a fresh device.
func TestDRAMResetClearsState(t *testing.T) {
	cfg := DefaultDRAMConfig()
	a, b := NewDRAM(cfg), NewDRAM(cfg)
	r := rng.New(9)
	for i := 0; i < 500; i++ {
		at := units.Time(i) * 15 * units.Nanosecond
		a.Access(at, Addr(r.Int63n(1<<30)).Line(), i&5 == 0)
	}
	a.Reset()
	r2 := rng.New(11)
	for i := 0; i < 200; i++ {
		at := units.Time(i) * 25 * units.Nanosecond
		addr := Addr(r2.Int63n(1 << 30)).Line()
		da, ka := a.Access(at, addr, i&3 == 0)
		db, kb := b.Access(at, addr, i&3 == 0)
		if da != db || ka != kb {
			t.Fatalf("access %d diverges after Reset: (%v,%v) vs fresh (%v,%v)", i, da, ka, db, kb)
		}
	}
	if a.Reads != b.Reads || a.Writes != b.Writes || a.totalLat != b.totalLat {
		t.Errorf("stats diverge after Reset: %+v vs %+v", a.Reads, b.Reads)
	}
}
