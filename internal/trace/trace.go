// Package trace generates synthetic dynamic instruction streams.
//
// A workload is described by Profiles — statistical descriptions of a
// phase's ILP, L1-miss rates, pointer-chasing behaviour and address
// locality — which are expanded on the fly into cpu.Blocks using a
// deterministic per-thread random stream. Store bursts (zero-initialisation
// and garbage-collection copying) have dedicated builders because their
// structure (dense sequential stores) is what the BURST model captures.
package trace

import (
	"depburst/internal/cpu"
	"depburst/internal/mem"
	"depburst/internal/rng"
)

// AddrGen produces a stream of physical addresses.
type AddrGen interface {
	Next(r *rng.Source) mem.Addr
}

// RandomRegion draws uniformly from [Base, Base+Size).
type RandomRegion struct {
	Base mem.Addr
	Size int64
}

// Next implements AddrGen.
func (g RandomRegion) Next(r *rng.Source) mem.Addr {
	return g.Base + mem.Addr(r.Int63n(g.Size)).Line()
}

// SeqRegion streams sequentially through [Base, Base+Size) with the given
// line stride, wrapping around. The pointer advances on every draw, so a
// SeqRegion must be used by value-holder (pointer receiver).
type SeqRegion struct {
	Base   mem.Addr
	Size   int64
	Stride int64 // bytes; 0 means one line
	off    int64
}

// Next implements AddrGen.
func (g *SeqRegion) Next(r *rng.Source) mem.Addr {
	stride := g.Stride
	if stride <= 0 {
		stride = mem.LineSize
	}
	a := g.Base + mem.Addr(g.off)
	g.off += stride
	if g.off >= g.Size {
		g.off = 0
	}
	return a.Line()
}

// HotCold draws from a small hot region with probability HotFrac, otherwise
// from a large cold region. This is the classic two-level locality model:
// the hot set decides how many accesses stay in the private caches.
type HotCold struct {
	Hot     RandomRegion
	Cold    RandomRegion
	HotFrac float64
}

// Next implements AddrGen.
func (g HotCold) Next(r *rng.Source) mem.Addr {
	if r.Bool(g.HotFrac) {
		return g.Hot.Next(r)
	}
	return g.Cold.Next(r)
}

// Profile statistically describes a phase of computation.
type Profile struct {
	// IPC is the inherent instruction-level parallelism (committed
	// instructions per cycle absent misses).
	IPC float64
	// LoadsPerKI / StoresPerKI are L1-missing loads and stores per 1000
	// instructions. (L1 hits are folded into IPC.)
	LoadsPerKI  float64
	StoresPerKI float64
	// DepFrac is the probability that a long-latency load depends on the
	// previous one (pointer chasing), extending the CRIT critical path.
	DepFrac float64
	// Addr generates load/store addresses.
	Addr AddrGen
	// StoreAddr optionally generates store addresses; nil means stores
	// share Addr.
	StoreAddr AddrGen
}

// FillBlock expands profile p into dst as a block of n instructions, using
// r for all randomness. dst is reset first; its event slice is reused.
func FillBlock(dst *cpu.Block, p Profile, n int64, r *rng.Source) {
	dst.Reset()
	dst.Instrs = n
	dst.IPC = p.IPC

	evPerKI := p.LoadsPerKI + p.StoresPerKI
	if evPerKI <= 0 || p.Addr == nil {
		return
	}
	gap := rng.NewGeometric(1000 / evPerKI)
	storeFrac := p.StoresPerKI / evPerKI

	at := int64(0)
	for {
		at += gap.Draw(r)
		if at >= n {
			break
		}
		ev := cpu.MemEvent{At: at}
		if r.Bool(storeFrac) {
			ev.Store = true
			if p.StoreAddr != nil {
				ev.Addr = p.StoreAddr.Next(r)
			} else {
				ev.Addr = p.Addr.Next(r)
			}
		} else {
			ev.Addr = p.Addr.Next(r)
			ev.DepPrev = r.Bool(p.DepFrac)
		}
		dst.Events = append(dst.Events, ev)
	}
}

// FillZeroInit builds the store burst of zero-initialising fresh memory:
// one store per cache line, sequential addresses, very few instructions in
// between (a tight rep-store loop). This is the allocation-time burst the
// paper identifies in Java workloads.
func FillZeroInit(dst *cpu.Block, base mem.Addr, bytes int64, ipc float64) {
	dst.Reset()
	lines := (bytes + mem.LineSize - 1) / mem.LineSize
	if lines <= 0 {
		lines = 1
	}
	const instrPerLine = 2 // store + loop bookkeeping
	dst.Instrs = lines * instrPerLine
	dst.IPC = ipc
	for i := int64(0); i < lines; i++ {
		dst.Events = append(dst.Events, cpu.MemEvent{
			At:    i * instrPerLine,
			Addr:  (base + mem.Addr(i*mem.LineSize)).Line(),
			Store: true,
		})
	}
}

// ZeroInitInstrs returns the instruction count FillZeroInit would assign a
// zero-init burst over the given byte span, letting callers fast-forward
// the burst without materialising its event list.
func ZeroInitInstrs(bytes int64) int64 {
	lines := (bytes + mem.LineSize - 1) / mem.LineSize
	if lines <= 0 {
		lines = 1
	}
	return lines * 2
}

// FillCopy builds a garbage-collection copy burst: for every line, a load
// from the source region followed by a store to the destination region.
func FillCopy(dst *cpu.Block, src, dstBase mem.Addr, bytes int64, ipc float64) {
	dst.Reset()
	lines := (bytes + mem.LineSize - 1) / mem.LineSize
	if lines <= 0 {
		lines = 1
	}
	const instrPerLine = 4 // load, store, pointer updates
	dst.Instrs = lines * instrPerLine
	dst.IPC = ipc
	for i := int64(0); i < lines; i++ {
		off := mem.Addr(i * mem.LineSize)
		dst.Events = append(dst.Events,
			cpu.MemEvent{At: i * instrPerLine, Addr: (src + off).Line()},
			cpu.MemEvent{At: i*instrPerLine + 1, Addr: (dstBase + off).Line(), Store: true},
		)
	}
}

// FillPointerChase builds a graph-traversal trace phase: loads over the
// heap region of which depFrac chain on the previous load (pointer
// chasing), the pattern that makes garbage-collection tracing
// memory-latency-bound. A breadth-first collector keeps several pending
// references, so depFrac < 1 models its memory-level parallelism.
func FillPointerChase(dst *cpu.Block, region RandomRegion, loads int64, gapInstrs int64, depFrac, ipc float64, r *rng.Source) {
	dst.Reset()
	if gapInstrs < 1 {
		gapInstrs = 1
	}
	dst.Instrs = loads * gapInstrs
	dst.IPC = ipc
	for i := int64(0); i < loads; i++ {
		dst.Events = append(dst.Events, cpu.MemEvent{
			At:      i * gapInstrs,
			Addr:    region.Next(r),
			DepPrev: i > 0 && r.Bool(depFrac),
		})
	}
}
