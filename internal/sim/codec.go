package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"depburst/internal/cpu"
	"depburst/internal/jvm"
	"depburst/internal/kernel"
	"depburst/internal/sampling"
	"depburst/internal/units"
)

// CodecVersion identifies the byte layout MarshalBinary writes. It leads
// every encoding, and callers that persist results put it in their cache
// keys, so a binary with a different layout misses instead of decoding
// foreign bytes. Bump it on any layout change.
const CodecVersion = 1

// The encoding of a Result is, in order (uv: uvarint; v: zigzag varint;
// f: the 8 little-endian bytes of a float64's IEEE-754 bits; s: uv length
// then bytes; b: one byte, 0 or 1; C: counters, below):
//
//	uv CodecVersion
//	s Workload | v Freq, Time, Energy, Transitions, TransitionOverhead
//	DRAM:     uv Reads, Writes, RowHits, RowMisses, Conflict | v AvgLatency
//	GC:       v MinorGCs, MajorGCs, GCTime, AllocBytes, CopiedBytes
//	          uv n | n × (v Start, End | b Major)
//	Threads:  uv n | n × (v ID | s Name | v Class, Start, End | C)
//	Marks:    uv n | n × (v At | s Label)
//	Epochs:   uv n | uv total slices
//	          n × (v Start, End, StallTID, EndKind | uv k | k × (v TID, Class | C))
//	Samples:  uv n | uv total per-core entries
//	          n × (v Start, End, Freq | C | v EpochLo, EpochHi | uv DRAMAccesses
//	               v Energy | b FF | uv k | k × (v Freq | C))
//	Sampling: b present, then if present:
//	          b Enabled | v K | f Tolerance | v CheckInterval | f SafetyFactor
//	          v TotalQuanta, FastQuanta, GCQuanta, Drops, Phases, TotalTime, FastTime
//	          f ErrorBound
//
// C is the twelve cpu.Counters fields in declaration order, Instrs through
// SQFull as v and LoadsL1 through StoresDRAM as uv, with their zeros left
// out: a leading uv mask has bit i set when field i is present. Two thirds
// of the counters in an epoch slice or sample are zero (LoadsL1 always
// is), so the mask saves both bytes and varints to decode.
//
// The totals ahead of the epochs and samples let the decoder back every
// epoch's Slices with one slab and every sample's PerCore with another.
// Empty slices decode as nil. Everything ahead of the GC pause count is the
// head a Summary decodes.

// Smallest encoded size of each repeated element, in bytes: every varint,
// bool and counter mask takes at least one byte, every string at least its
// length byte. A count larger than the input left divided by its element's
// minimum is rejected before anything is allocated.
const (
	minCounters   = 1
	minPause      = 3
	minThread     = 5 + minCounters
	minMark       = 2
	minEpoch      = 5
	minSlice      = 2 + minCounters
	minSample     = 9 + minCounters
	minCoreSample = 1 + minCounters
)

// MarshalBinary encodes the result in the layout above. It never fails.
func (r *Result) MarshalBinary() ([]byte, error) {
	slices, perCore := 0, 0
	for i := range r.Epochs {
		slices += len(r.Epochs[i].Slices)
	}
	for i := range r.Samples {
		perCore += len(r.Samples[i].PerCore)
	}
	// Typical encoded sizes per element, so one allocation usually holds
	// the whole encoding.
	e := encoder{buf: make([]byte, 0, 256+48*len(r.Threads)+
		16*len(r.Epochs)+24*slices+64*len(r.Samples)+16*perCore)}

	e.uvarint(CodecVersion)
	e.str(r.Workload)
	e.varint(int64(r.Freq))
	e.varint(int64(r.Time))
	e.varint(int64(r.Energy))
	e.varint(int64(r.Transitions))
	e.varint(int64(r.TransitionOverhead))

	e.uvarint(r.DRAM.Reads)
	e.uvarint(r.DRAM.Writes)
	e.uvarint(r.DRAM.RowHits)
	e.uvarint(r.DRAM.RowMisses)
	e.uvarint(r.DRAM.Conflict)
	e.varint(int64(r.DRAM.AvgLatency))

	e.varint(int64(r.GC.MinorGCs))
	e.varint(int64(r.GC.MajorGCs))
	e.varint(int64(r.GC.GCTime))
	e.varint(r.GC.AllocBytes)
	e.varint(r.GC.CopiedBytes)
	e.uvarint(uint64(len(r.GC.Pauses)))
	for _, p := range r.GC.Pauses {
		e.varint(int64(p.Start))
		e.varint(int64(p.End))
		e.bool(p.Major)
	}

	e.uvarint(uint64(len(r.Threads)))
	for i := range r.Threads {
		t := &r.Threads[i]
		e.varint(int64(t.ID))
		e.str(t.Name)
		e.varint(int64(t.Class))
		e.varint(int64(t.Start))
		e.varint(int64(t.End))
		e.counters(&t.C)
	}

	e.uvarint(uint64(len(r.Marks)))
	for _, m := range r.Marks {
		e.varint(int64(m.At))
		e.str(m.Label)
	}

	e.uvarint(uint64(len(r.Epochs)))
	e.uvarint(uint64(slices))
	for i := range r.Epochs {
		ep := &r.Epochs[i]
		e.varint(int64(ep.Start))
		e.varint(int64(ep.End))
		e.varint(int64(ep.StallTID))
		e.varint(int64(ep.EndKind))
		e.uvarint(uint64(len(ep.Slices)))
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			e.varint(int64(sl.TID))
			e.varint(int64(sl.Class))
			e.counters(&sl.Delta)
		}
	}

	e.uvarint(uint64(len(r.Samples)))
	e.uvarint(uint64(perCore))
	for i := range r.Samples {
		s := &r.Samples[i]
		e.varint(int64(s.Start))
		e.varint(int64(s.End))
		e.varint(int64(s.Freq))
		e.counters(&s.Delta)
		e.varint(int64(s.EpochLo))
		e.varint(int64(s.EpochHi))
		e.uvarint(s.DRAMAccesses)
		e.varint(int64(s.Energy))
		e.bool(s.FF)
		e.uvarint(uint64(len(s.PerCore)))
		for j := range s.PerCore {
			c := &s.PerCore[j]
			e.varint(int64(c.Freq))
			e.counters(&c.Delta)
		}
	}

	e.bool(r.Sampling != nil)
	if rep := r.Sampling; rep != nil {
		e.bool(rep.Policy.Enabled)
		e.varint(int64(rep.Policy.K))
		e.float(rep.Policy.Tolerance)
		e.varint(int64(rep.Policy.CheckInterval))
		e.float(rep.Policy.SafetyFactor)
		e.varint(int64(rep.TotalQuanta))
		e.varint(int64(rep.FastQuanta))
		e.varint(int64(rep.GCQuanta))
		e.varint(int64(rep.Drops))
		e.varint(int64(rep.Phases))
		e.varint(int64(rep.TotalTime))
		e.varint(int64(rep.FastTime))
		e.float(rep.ErrorBound)
	}
	return e.buf, nil
}

// UnmarshalBinary decodes an encoding MarshalBinary produced. It rejects,
// rather than trusts, its input: an unknown version, a malformed or
// truncated field, a count the input cannot hold, or trailing bytes is an
// error, and the receiver is assigned only when the whole input decoded.
func (r *Result) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	var res Result
	d.result(&res)
	if d.err == nil && d.off != len(d.buf) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return d.err
	}
	*r = res
	return nil
}

// Summary is a Result's head: every scalar the codec writes ahead of its
// first repeated section (the GC pause list). Callers that read only these
// fields decode a Summary instead of the whole Result; the two decoders
// share one head.
type Summary struct {
	Workload           string
	Freq               units.Freq
	Time               units.Time
	Energy             units.Energy
	Transitions        int
	TransitionOverhead units.Time
	DRAM               DRAMStats
	GC                 GCTotals
}

// GCTotals is jvm.Stats without its per-pause list.
type GCTotals struct {
	MinorGCs, MajorGCs      int
	GCTime                  units.Time
	AllocBytes, CopiedBytes int64
}

// Summary returns the result's head.
func (r *Result) Summary() Summary {
	return Summary{
		Workload:           r.Workload,
		Freq:               r.Freq,
		Time:               r.Time,
		Energy:             r.Energy,
		Transitions:        r.Transitions,
		TransitionOverhead: r.TransitionOverhead,
		DRAM:               r.DRAM,
		GC: GCTotals{
			MinorGCs:    r.GC.MinorGCs,
			MajorGCs:    r.GC.MajorGCs,
			GCTime:      r.GC.GCTime,
			AllocBytes:  r.GC.AllocBytes,
			CopiedBytes: r.GC.CopiedBytes,
		},
	}
}

// UnmarshalBinary decodes the head of an encoding MarshalBinary produced
// and ignores the rest: it checks the codec version, rejects a malformed or
// truncated head, and assigns the receiver only on success. Whatever
// follows the head is not read, so only a full decode proves it sound.
func (s *Summary) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	var res Result
	d.head(&res)
	if d.err != nil {
		return d.err
	}
	*s = res.Summary()
	return nil
}

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.uvarint(zigzag(v)) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// counterFields is the number of cpu.Counters fields; the mask has one
// bit per field.
const counterFields = 12

func (e *encoder) counters(c *cpu.Counters) {
	v := [counterFields]uint64{
		zigzag(c.Instrs), zigzag(int64(c.Active)), zigzag(int64(c.CritNS)),
		zigzag(int64(c.LeadNS)), zigzag(int64(c.StallNS)), zigzag(int64(c.SQFull)),
		c.LoadsL1, c.LoadsL2, c.LoadsL3, c.LoadsDRAM, c.Stores, c.StoresDRAM,
	}
	var mask uint64
	for i, x := range v {
		if x != 0 {
			mask |= 1 << i
		}
	}
	e.uvarint(mask)
	for _, x := range v {
		if x != 0 {
			e.uvarint(x)
		}
	}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// decoder reads an encoding through an offset cursor. The first error
// sticks and moves the cursor to the end, so every later read fails fast
// and every later count is zero.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: decoding result: %s at byte %d", what, d.off)
	}
	d.off = len(d.buf)
}

// uvarints decodes consecutive uvarints, one into dst[i] for every bit i
// set in mask, lowest bit first, and leaves the other elements alone.
// Varint lengths vary from field to field, so a loop over bytes would
// mispredict a branch on nearly every varint. Instead one 64-bit load
// yields every varint that ends inside it, each cut out and squeezed
// without a branch on its length; a varint longer than eight bytes, or
// one in the input's last seven bytes, goes through binary.Uvarint.
func (d *decoder) uvarints(dst []uint64, mask uint64) {
	b, i := d.buf, d.off
	for mask != 0 {
		if len(b)-i >= 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if stops := ^w & 0x8080808080808080; stops != 0 {
				lo := 0
				for stops != 0 && mask != 0 {
					// Bits [lo, hi) of w hold the next varint. Drop
					// its continuation bits by merging pairs of bytes,
					// then of 16- and 32-bit lanes.
					hi := bits.TrailingZeros64(stops) + 1
					v := w >> lo & (^uint64(0) >> (64 - hi + lo))
					v = v&0x007f007f007f007f | v&0x7f007f007f007f00>>1
					v = v&0x00003fff00003fff | v&0x3fff00003fff0000>>2
					dst[bits.TrailingZeros64(mask)] = v&0x000000000fffffff | v&0x0fffffff00000000>>4
					mask &= mask - 1
					stops &= stops - 1
					lo = hi
				}
				i += lo / 8
				continue
			}
		}
		v, n := binary.Uvarint(b[i:])
		if n <= 0 {
			d.off = i
			d.fail("malformed varint")
			return
		}
		dst[bits.TrailingZeros64(mask)] = v
		mask &= mask - 1
		i += n
	}
	d.off = i
}

// fields is the uvarints mask selecting the first n elements.
func fields(n int) uint64 { return 1<<n - 1 }

func (d *decoder) uvarint() uint64 {
	var v [1]uint64
	d.uvarints(v[:], 1)
	return v[0]
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// count reads an element count; see bound.
func (d *decoder) count(minSize int) int { return d.bound(d.uvarint(), minSize) }

// bound rejects the element count n unless n elements of at least minSize
// bytes each fit in the input left.
func (d *decoder) bound(n uint64, minSize int) int {
	if n > uint64(len(d.buf)-d.off)/uint64(minSize) {
		d.fail("count exceeds the input")
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bool() bool {
	if d.off >= len(d.buf) || d.buf[d.off] > 1 {
		d.fail("malformed bool")
		return false
	}
	v := d.buf[d.off] == 1
	d.off++
	return v
}

func (d *decoder) float() float64 {
	if len(d.buf)-d.off < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return f
}

// counters decodes the present fields of a counters block whose mask the
// caller read along with the fields before it.
func (d *decoder) counters(c *cpu.Counters, mask uint64) {
	if mask >= 1<<counterFields {
		d.fail("malformed counter mask")
		return
	}
	var v [counterFields]uint64
	d.uvarints(v[:], mask)
	c.Instrs = unzigzag(v[0])
	c.Active = units.Time(unzigzag(v[1]))
	c.CritNS = units.Time(unzigzag(v[2]))
	c.LeadNS = units.Time(unzigzag(v[3]))
	c.StallNS = units.Time(unzigzag(v[4]))
	c.SQFull = units.Time(unzigzag(v[5]))
	c.LoadsL1 = v[6]
	c.LoadsL2 = v[7]
	c.LoadsL3 = v[8]
	c.LoadsDRAM = v[9]
	c.Stores = v[10]
	c.StoresDRAM = v[11]
}

// head decodes the version and the scalars ahead of the GC pause list.
func (d *decoder) head(r *Result) {
	if v := d.uvarint(); v != CodecVersion {
		d.fail(fmt.Sprintf("codec version %d, want %d", v, CodecVersion))
		return
	}
	r.Workload = d.str()
	r.Freq = units.Freq(d.varint())
	r.Time = units.Time(d.varint())
	r.Energy = units.Energy(d.varint())
	r.Transitions = int(d.varint())
	r.TransitionOverhead = units.Time(d.varint())

	r.DRAM.Reads = d.uvarint()
	r.DRAM.Writes = d.uvarint()
	r.DRAM.RowHits = d.uvarint()
	r.DRAM.RowMisses = d.uvarint()
	r.DRAM.Conflict = d.uvarint()
	r.DRAM.AvgLatency = units.Time(d.varint())

	r.GC.MinorGCs = int(d.varint())
	r.GC.MajorGCs = int(d.varint())
	r.GC.GCTime = units.Time(d.varint())
	r.GC.AllocBytes = d.varint()
	r.GC.CopiedBytes = d.varint()
}

func (d *decoder) result(r *Result) {
	d.head(r)
	if n := d.count(minPause); n > 0 {
		r.GC.Pauses = make([]jvm.Pause, n)
		for i := range r.GC.Pauses {
			p := &r.GC.Pauses[i]
			p.Start = units.Time(d.varint())
			p.End = units.Time(d.varint())
			p.Major = d.bool()
		}
	}

	if n := d.count(minThread); n > 0 {
		r.Threads = make([]ThreadResult, n)
		for i := range r.Threads {
			t := &r.Threads[i]
			t.ID = kernel.ThreadID(d.varint())
			t.Name = d.str()
			var h [4]uint64 // Class, Start, End, counter mask
			d.uvarints(h[:], fields(4))
			t.Class = kernel.Class(unzigzag(h[0]))
			t.Start = units.Time(unzigzag(h[1]))
			t.End = units.Time(unzigzag(h[2]))
			d.counters(&t.C, h[3])
		}
	}

	if n := d.count(minMark); n > 0 {
		r.Marks = make([]kernel.Mark, n)
		for i := range r.Marks {
			m := &r.Marks[i]
			m.At = units.Time(d.varint())
			m.Label = d.str()
		}
	}

	n, total := d.count(minEpoch), d.count(minSlice)
	slab := make([]kernel.ThreadSlice, total)
	if n > 0 {
		r.Epochs = make([]kernel.Epoch, n)
	}
	for i := range r.Epochs {
		ep := &r.Epochs[i]
		var h [5]uint64 // Start, End, StallTID, EndKind, slice count
		d.uvarints(h[:], fields(5))
		ep.Start = units.Time(unzigzag(h[0]))
		ep.End = units.Time(unzigzag(h[1]))
		ep.StallTID = kernel.ThreadID(unzigzag(h[2]))
		ep.EndKind = kernel.BoundaryKind(unzigzag(h[3]))
		k := d.bound(h[4], minSlice)
		if k > len(slab) {
			d.fail("epoch slices exceed their total")
			return
		}
		if k == 0 {
			continue
		}
		ep.Slices, slab = slab[:k:k], slab[k:]
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			var h [3]uint64 // TID, Class, counter mask
			d.uvarints(h[:], fields(3))
			sl.TID = kernel.ThreadID(unzigzag(h[0]))
			sl.Class = kernel.Class(unzigzag(h[1]))
			d.counters(&sl.Delta, h[2])
		}
	}
	if len(slab) != 0 {
		d.fail("epoch slices fall short of their total")
		return
	}

	n, total = d.count(minSample), d.count(minCoreSample)
	cores := make([]CoreSample, total)
	if n > 0 {
		r.Samples = make([]QuantumSample, n)
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		var h [4]uint64 // Start, End, Freq, counter mask
		d.uvarints(h[:], fields(4))
		s.Start = units.Time(unzigzag(h[0]))
		s.End = units.Time(unzigzag(h[1]))
		s.Freq = units.Freq(unzigzag(h[2]))
		d.counters(&s.Delta, h[3])
		d.uvarints(h[:], fields(4)) // EpochLo, EpochHi, DRAMAccesses, Energy
		s.EpochLo = int(unzigzag(h[0]))
		s.EpochHi = int(unzigzag(h[1]))
		s.DRAMAccesses = h[2]
		s.Energy = units.Energy(unzigzag(h[3]))
		s.FF = d.bool()
		k := d.count(minCoreSample)
		if k > len(cores) {
			d.fail("per-core samples exceed their total")
			return
		}
		if k == 0 {
			continue
		}
		s.PerCore, cores = cores[:k:k], cores[k:]
		for j := range s.PerCore {
			c := &s.PerCore[j]
			var h [2]uint64 // Freq, counter mask
			d.uvarints(h[:], fields(2))
			c.Freq = units.Freq(unzigzag(h[0]))
			d.counters(&c.Delta, h[1])
		}
	}
	if len(cores) != 0 {
		d.fail("per-core samples fall short of their total")
		return
	}

	if d.bool() {
		rep := new(sampling.Report)
		rep.Policy.Enabled = d.bool()
		rep.Policy.K = int(d.varint())
		rep.Policy.Tolerance = d.float()
		rep.Policy.CheckInterval = int(d.varint())
		rep.Policy.SafetyFactor = d.float()
		rep.TotalQuanta = int(d.varint())
		rep.FastQuanta = int(d.varint())
		rep.GCQuanta = int(d.varint())
		rep.Drops = int(d.varint())
		rep.Phases = int(d.varint())
		rep.TotalTime = units.Time(d.varint())
		rep.FastTime = units.Time(d.varint())
		rep.ErrorBound = d.float()
		r.Sampling = rep
	}
}
