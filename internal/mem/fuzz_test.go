package mem

import (
	"testing"

	"depburst/internal/units"
)

// FuzzCalendarReserve checks the reservation calendar's invariants under
// arbitrary interleavings of arrival times and durations: a reservation
// never starts before its arrival, and repeated identical calls are
// monotone (FIFO backpressure).
func FuzzCalendarReserve(f *testing.F) {
	f.Add(uint64(0), uint32(100), uint8(4))
	f.Add(uint64(1e9), uint32(41), uint8(16))
	f.Add(uint64(1<<40), uint32(2500), uint8(1))
	f.Fuzz(func(t *testing.T, atRaw uint64, durRaw uint32, n uint8) {
		c := newCalendar(250*units.Nanosecond, 256)
		at := units.Time(atRaw % (1 << 42))
		dur := units.Time(durRaw%50_000) + 1
		var prev units.Time = -1
		for i := 0; i < int(n%32)+1; i++ {
			start := c.reserve(at, dur)
			if start < at {
				t.Fatalf("reservation %d started at %v before arrival %v", i, start, at)
			}
			if start < prev {
				t.Fatalf("same-arrival reservations regressed: %v after %v", start, prev)
			}
			prev = start
		}
	})
}

// FuzzCacheAccess replays arbitrary operation streams against the
// packed-word Cache and the reference layout (see diffCache): the first byte
// picks the associativity, the rest are the operations.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 128})
	f.Add([]byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, pattern []byte) {
		if len(pattern) == 0 {
			return
		}
		diffCache(t, diffWays[int(pattern[0])%len(diffWays)], pattern[1:])
	})
}

// FuzzDRAMAccess checks that arbitrary access streams never produce
// non-causal completions.
func FuzzDRAMAccess(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0, 1, 0})
	f.Fuzz(func(t *testing.T, addrs, kinds []byte) {
		d := NewDRAM(DefaultDRAMConfig())
		now := units.Time(0)
		for i, a := range addrs {
			write := i < len(kinds) && kinds[i]%2 == 1
			done, _ := d.Access(now, Addr(a)*64*17, write)
			if done < now {
				t.Fatalf("completion %v before request %v", done, now)
			}
			now += units.Time(a) * 100
		}
	})
}
