package main

import (
	"flag"
	"math/rand/v2"
	"testing"

	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/event"
	"depburst/internal/kernel"
	"depburst/internal/mem"
	"depburst/internal/units"
)

// microbenchmarks times the simulator's innermost operations through their
// public APIs with testing.Benchmark and returns nanoseconds per operation.
// epochs is a real run's epoch list for the predictor benchmark.
func microbenchmarks(epochs []kernel.Epoch) map[string]float64 {
	testing.Init()
	flag.CommandLine.Set("test.benchtime", "200ms")
	ns := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return map[string]float64{
		"event.step_ns":             ns(benchEventStep),
		"cpu.block_ns":              ns(benchCoreBlock),
		"cpu.runfast_ns":            ns(benchRunFast),
		"mem.cache_access_ns":       ns(benchCacheAccess),
		"mem.dram_access_ns":        ns(benchDRAMAccess),
		"kernel.futex_roundtrip_ns": ns(benchFutexRoundtrip),
		"core.predict_epochs_ns": ns(func(b *testing.B) {
			o := core.Options{Burst: true}
			for i := 0; i < b.N; i++ {
				core.PredictEpochs(epochs, 1000, 4000, o)
			}
		}),
	}
}

// benchEventStep is one event life cycle: schedule, pop, dispatch.
func benchEventStep(b *testing.B) {
	e := event.New()
	fn := event.Func(func(units.Time) {})
	for i := 0; i < 64; i++ {
		e.Schedule(units.Time(i), fn)
	}
	for e.Step() {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}

func newCore() *cpu.Core {
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(1))
	return cpu.NewCore(0, cpu.DefaultConfig(), units.NewClock(2000*units.MHz), hier)
}

// blockInstrs is the size of the block benchCoreBlock simulates; the
// reconciliation converts instruction counts into blocks with it.
const blockInstrs = 400

// benchCoreBlock is one 400-instruction block with four memory events
// (three loads, one store) through the core and the cache hierarchy.
func benchCoreBlock(b *testing.B) {
	c := newCore()
	var ctr cpu.Counters
	now := units.Time(0)
	blk := &cpu.Block{Instrs: blockInstrs, IPC: 2.0, Events: make([]cpu.MemEvent, 4)}
	step := func(i int) {
		for j := range blk.Events {
			blk.Events[j] = cpu.MemEvent{
				At:    int64(j*50 + 10),
				Addr:  mem.Addr(0x100000 + (i*4+j)*64*1024).Line(),
				Store: j == 3,
			}
		}
		now = c.Run(now, blk, &ctr)
	}
	for i := 0; i < 64; i++ {
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(64 + i)
	}
}

// benchRunFast is one fast-forwarded chunk of 64k instructions, the chunk
// size sampled simulation issues.
func benchRunFast(b *testing.B) {
	c := newCore()
	c.SetFastForward(cpu.FFRates{PsPerInstr: 300, LoadsL2: 0.02, LoadsL3: 0.005, LoadsDRAM: 0.002,
		Stores: 0.1, StoresDRAM: 0.001, CritPs: 40, LeadPs: 50, StallPs: 30, SQFullPs: 5})
	var ctr cpu.Counters
	now := units.Time(0)
	for i := 0; i < b.N; i++ {
		now = c.RunFast(now, 64_000, &ctr)
	}
}

// benchCacheAccess is one lookup on a cache-resident working set (the L2
// steady state: mostly hits, one write in eight).
func benchCacheAccess(b *testing.B) {
	c := mem.NewCache(mem.CacheConfig{SizeBytes: 256 << 10, Ways: 8})
	const lines = 1024
	for i := 0; i < lines; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr((i%lines)*mem.LineSize), i&7 == 0)
	}
}

// benchDRAMAccess is one device access at random lines, one write in four.
func benchDRAMAccess(b *testing.B) {
	d := mem.NewDRAM(mem.DefaultDRAMConfig())
	rng := rand.New(rand.NewPCG(7, 7))
	addrs := make([]mem.Addr, 1024)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Int64N(1 << 30)).Line()
	}
	now := units.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(now, addrs[i&1023], i&3 == 0)
		now += 20 * units.Nanosecond
	}
}

// benchFutexRoundtrip is one wake-and-wait round trip between two threads
// on two cores: each parks on its futex until the other hands it the turn.
func benchFutexRoundtrip(b *testing.B) {
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	clock := units.NewClock(1000 * units.MHz)
	cores := []*cpu.Core{
		cpu.NewCore(0, cpu.DefaultConfig(), clock, hier),
		cpu.NewCore(1, cpu.DefaultConfig(), clock, hier),
	}
	k := kernel.New(event.New(), cores, kernel.DefaultConfig())
	var futex [2]kernel.Futex
	turn := 0
	n := b.N
	for me := 0; me < 2; me++ {
		k.Spawn("pingpong", kernel.ClassApp, me, func(e *kernel.Env) {
			for i := 0; i < n; i++ {
				for turn != me {
					e.ParkIf(&futex[me], func() bool { return turn != me })
				}
				turn = 1 - me
				e.Wake(&futex[1-me], 1)
			}
		})
	}
	b.ResetTimer()
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
