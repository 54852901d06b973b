package energy

import (
	"testing"

	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/dacapo"
	"depburst/internal/kernel"
	"depburst/internal/mem"
	"depburst/internal/sim"
)

func TestStaticOptimalConstrained(t *testing.T) {
	sweep := []StaticResult{
		{Freq: 1000, Time: 150, Energy: 40}, // cheapest but too slow
		{Freq: 2000, Time: 108, Energy: 55},
		{Freq: 3000, Time: 104, Energy: 65},
		{Freq: 4000, Time: 100, Energy: 80},
	}
	best := StaticOptimalConstrained(sweep, 100, 0.10)
	if best.Freq != 2000 {
		t.Errorf("constrained optimal = %v, want 2GHz", best.Freq)
	}
	// Impossible constraint: fall back to the fastest point.
	best = StaticOptimalConstrained(sweep, 50, 0.10)
	if best.Freq != 4000 {
		t.Errorf("fallback = %v, want 4GHz", best.Freq)
	}
}

func TestManagerConfigDefaults(t *testing.T) {
	cfg := DefaultManagerConfig(0.05)
	if cfg.Threshold != 0.05 || cfg.Step != 125 || cfg.Min != 1000 || cfg.Max != 4000 {
		t.Errorf("defaults %+v", cfg)
	}
	if !cfg.Opts.Burst || cfg.Opts.Engine != core.CRIT {
		t.Error("default predictor is not DEP+BURST")
	}
	if NewManager(ManagerConfig{Threshold: 0.05, HoldOff: 0}).cfg.HoldOff != 1 {
		t.Error("HoldOff not clamped to 1")
	}
}

func TestManagerNegativeThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative threshold accepted")
		}
	}()
	NewManager(ManagerConfig{Threshold: -0.1})
}

// syntheticWorkload drives a single thread that is either compute-bound
// (pure scaling) or memory-bound (dependent DRAM misses, non-scaling), so
// governor decisions can be asserted directly.
type syntheticWorkload struct {
	name   string
	memory bool
}

func (w syntheticWorkload) Name() string { return w.name }

func (w syntheticWorkload) Setup(m *sim.Machine) {
	m.Kern.Spawn("w", kernel.ClassApp, -1, func(e *kernel.Env) {
		if w.memory {
			for i := 0; i < 4000; i++ {
				blk := &cpu.Block{Instrs: 64, IPC: 2}
				for j := 0; j < 16; j++ {
					blk.Events = append(blk.Events, cpu.MemEvent{
						At:      int64(j * 4),
						Addr:    mem.Addr(uint64(i*16+j) * 64 * 1024 % (1 << 32)),
						DepPrev: j > 0,
					})
				}
				e.Compute(blk)
			}
			return
		}
		for i := 0; i < 200; i++ {
			e.Compute(&cpu.Block{Instrs: 100_000, IPC: 2})
		}
	})
}

func TestGovernorKeepsMaxForComputeBound(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Freq = 4000
	mg := NewManager(DefaultManagerConfig(0.05))
	m := sim.New(cfg)
	m.SetGovernor(mg.Governor())
	res, err := m.Run(syntheticWorkload{name: "compute"})
	if err != nil {
		t.Fatal(err)
	}
	// A pure-compute workload slows proportionally: the manager may only
	// drop a state or two within a 5% budget.
	for _, d := range mg.Decisions {
		if d.Freq < 3500 {
			t.Errorf("compute-bound decision dropped to %v", d.Freq)
		}
	}
	if res.Time <= 0 {
		t.Error("no time")
	}
}

func TestGovernorDropsForMemoryBound(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Freq = 4000
	mg := NewManager(DefaultManagerConfig(0.10))
	m := sim.New(cfg)
	m.SetGovernor(mg.Governor())
	if _, err := m.Run(syntheticWorkload{name: "memory", memory: true}); err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, d := range mg.Decisions {
		if d.Freq <= 2000 {
			low++
		}
	}
	if low == 0 {
		t.Errorf("memory-bound workload never ran below 2 GHz (%d decisions)", len(mg.Decisions))
	}
}

func TestManagedSlowdownNearThreshold(t *testing.T) {
	// End-to-end check on one real benchmark: slowdown close to the
	// bound and positive savings.
	if testing.Short() {
		t.Skip("long")
	}
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig()
	base.Freq = 4000
	spec.Configure(&base)
	ref, err := sim.New(base).Run(dacapo.New(spec))
	if err != nil {
		t.Fatal(err)
	}

	mg := NewManager(DefaultManagerConfig(0.10))
	m := sim.New(base)
	m.SetGovernor(mg.Governor())
	res, err := m.Run(dacapo.New(spec))
	if err != nil {
		t.Fatal(err)
	}
	slow := float64(res.Time)/float64(ref.Time) - 1
	save := 1 - float64(res.Energy)/float64(ref.Energy)
	if slow < 0 || slow > 0.20 {
		t.Errorf("slowdown %.1f%% far from the 10%% bound", slow*100)
	}
	if save <= 0.05 {
		t.Errorf("savings %.1f%% too small for a memory-intensive benchmark", save*100)
	}
}
