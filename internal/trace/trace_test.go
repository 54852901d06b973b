package trace

import (
	"math"
	"testing"
	"testing/quick"

	"depburst/internal/cpu"
	"depburst/internal/mem"
	"depburst/internal/rng"
)

func TestFillBlockValid(t *testing.T) {
	// Property: every generated block passes cpu.Block validation.
	err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int64(nRaw%30000) + 100
		p := Profile{
			IPC: 2, LoadsPerKI: 15, StoresPerKI: 5, DepFrac: 0.3,
			Addr: RandomRegion{Base: 1 << 30, Size: 1 << 20},
		}
		var b cpu.Block
		FillBlock(&b, p, n, rng.New(seed))
		return b.Validate() == nil && b.Instrs == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestFillBlockRates(t *testing.T) {
	p := Profile{
		IPC: 2, LoadsPerKI: 20, StoresPerKI: 10, DepFrac: 0.5,
		Addr: RandomRegion{Base: 0, Size: 1 << 20},
	}
	var b cpu.Block
	r := rng.New(7)
	var loads, stores, deps int
	const n = 200_000
	const reps = 20
	for i := 0; i < reps; i++ {
		FillBlock(&b, p, n, r)
		for _, e := range b.Events {
			if e.Store {
				stores++
			} else {
				loads++
				if e.DepPrev {
					deps++
				}
			}
		}
	}
	perKI := func(c int) float64 { return float64(c) / (n * reps / 1000) }
	if got := perKI(loads); math.Abs(got-20) > 1.5 {
		t.Errorf("loads/KI = %v, want ~20", got)
	}
	if got := perKI(stores); math.Abs(got-10) > 1 {
		t.Errorf("stores/KI = %v, want ~10", got)
	}
	if frac := float64(deps) / float64(loads); math.Abs(frac-0.5) > 0.03 {
		t.Errorf("dep fraction = %v, want ~0.5", frac)
	}
}

func TestFillBlockDeterministic(t *testing.T) {
	p := Profile{IPC: 2, LoadsPerKI: 10, Addr: RandomRegion{Base: 0, Size: 4096}}
	var a, b cpu.Block
	FillBlock(&a, p, 10_000, rng.New(5))
	FillBlock(&b, p, 10_000, rng.New(5))
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed, different event counts")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("same seed, different events")
		}
	}
}

func TestFillBlockNoMemory(t *testing.T) {
	var b cpu.Block
	FillBlock(&b, Profile{IPC: 3}, 1000, rng.New(1))
	if len(b.Events) != 0 || b.IPC != 3 || b.Instrs != 1000 {
		t.Errorf("pure-compute block: %+v", b)
	}
}

// TestFillBlockZeroAllocs locks trace generation with a reused block at
// zero heap allocations: the event slice is recycled and the address
// generators draw through the profile's existing interface values.
func TestFillBlockZeroAllocs(t *testing.T) {
	p := Profile{
		IPC: 2, LoadsPerKI: 20, StoresPerKI: 8, DepFrac: 0.4,
		Addr: HotCold{
			Hot:     RandomRegion{Base: 0, Size: 64 << 10},
			Cold:    RandomRegion{Base: 1 << 30, Size: 256 << 20},
			HotFrac: 0.7,
		},
		StoreAddr: &SeqRegion{Base: 2 << 30, Size: 1 << 20},
	}
	r := rng.New(3)
	var b cpu.Block
	FillBlock(&b, p, 40_000, r) // grow the event slice past any 10k-instruction block
	avg := testing.AllocsPerRun(1000, func() { FillBlock(&b, p, 10_000, r) })
	if avg != 0 {
		t.Errorf("FillBlock allocates %.2f objects/op, want 0", avg)
	}
}

func TestFillZeroInit(t *testing.T) {
	var b cpu.Block
	FillZeroInit(&b, 0x1000, 4096, 2)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 64 {
		t.Fatalf("events %d, want 64 lines", len(b.Events))
	}
	seen := map[mem.Addr]bool{}
	for i, e := range b.Events {
		if !e.Store {
			t.Fatal("zero-init emitted a load")
		}
		if seen[e.Addr] {
			t.Fatal("duplicate line in zero-init")
		}
		seen[e.Addr] = true
		if i > 0 && e.Addr != b.Events[i-1].Addr+mem.LineSize {
			t.Fatal("zero-init not sequential")
		}
	}
	// Tiny allocation still emits one store.
	FillZeroInit(&b, 0, 8, 2)
	if len(b.Events) != 1 {
		t.Errorf("8-byte zero-init: %d events", len(b.Events))
	}
}

func TestFillCopy(t *testing.T) {
	var b cpu.Block
	FillCopy(&b, 0x10000, 0x20000, 1024, 2)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 32 { // 16 lines x (load + store)
		t.Fatalf("events %d", len(b.Events))
	}
	for i := 0; i < len(b.Events); i += 2 {
		if b.Events[i].Store || !b.Events[i+1].Store {
			t.Fatal("copy pattern must alternate load, store")
		}
		if b.Events[i+1].Addr-0x20000 != b.Events[i].Addr-0x10000 {
			t.Fatal("copy source/destination offsets disagree")
		}
	}
}

func TestFillPointerChase(t *testing.T) {
	var b cpu.Block
	r := rng.New(3)
	FillPointerChase(&b, RandomRegion{Base: 0, Size: 1 << 20}, 100, 10, 0.45, 1.5, r)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 100 {
		t.Fatalf("events %d", len(b.Events))
	}
	deps := 0
	for i, e := range b.Events {
		if e.Store {
			t.Fatal("trace emitted a store")
		}
		if i == 0 && e.DepPrev {
			t.Fatal("first load cannot depend on a previous one")
		}
		if e.DepPrev {
			deps++
		}
	}
	if deps < 25 || deps > 65 {
		t.Errorf("dep loads %d of 100, want ~45", deps)
	}
	// Full chaining at depFrac 1.
	FillPointerChase(&b, RandomRegion{Base: 0, Size: 1 << 20}, 50, 10, 1, 1.5, r)
	for i, e := range b.Events {
		if i > 0 && !e.DepPrev {
			t.Fatal("depFrac=1 left an independent load")
		}
	}
}

func TestAddrGens(t *testing.T) {
	r := rng.New(11)
	rr := RandomRegion{Base: 1 << 20, Size: 4096}
	for i := 0; i < 1000; i++ {
		a := rr.Next(r)
		if a < rr.Base || a >= rr.Base+mem.Addr(rr.Size) {
			t.Fatalf("RandomRegion out of range: %x", a)
		}
		if a != a.Line() {
			t.Fatal("RandomRegion not line-aligned")
		}
	}

	seq := &SeqRegion{Base: 0, Size: 256, Stride: 64}
	want := []mem.Addr{0, 64, 128, 192, 0}
	for i, w := range want {
		if got := seq.Next(r); got != w {
			t.Fatalf("SeqRegion draw %d = %d, want %d", i, got, w)
		}
	}

	hc := HotCold{
		Hot:     RandomRegion{Base: 0, Size: 4096},
		Cold:    RandomRegion{Base: 1 << 30, Size: 1 << 20},
		HotFrac: 0.8,
	}
	hot := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if hc.Next(r) < 1<<30 {
			hot++
		}
	}
	if frac := float64(hot) / n; math.Abs(frac-0.8) > 0.02 {
		t.Errorf("hot fraction %v, want ~0.8", frac)
	}
}
