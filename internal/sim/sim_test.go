package sim_test

import (
	"testing"

	"depburst/internal/cpu"
	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/kernel"
	"depburst/internal/metrics"
	"depburst/internal/power"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/units"
)

type tinyWorkload struct{ blocks int }

func (tinyWorkload) Name() string { return "tiny" }

func (w tinyWorkload) Setup(m *sim.Machine) {
	n := w.blocks
	if n == 0 {
		n = 50
	}
	m.Kern.Spawn("t", kernel.ClassApp, -1, func(e *kernel.Env) {
		for i := 0; i < n; i++ {
			e.Compute(&cpu.Block{Instrs: 10_000, IPC: 2})
		}
	})
}

func TestMachineDeterministic(t *testing.T) {
	run := func() sim.Result {
		spec, _ := dacapo.ByName("pmd.scale")
		cfg := sim.DefaultConfig()
		spec.Configure(&cfg)
		res, err := sim.New(cfg).Run(dacapo.New(spec))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Energy != b.Energy || len(a.Epochs) != len(b.Epochs) {
		t.Errorf("nondeterministic: time %v vs %v, energy %v vs %v, epochs %d vs %d",
			a.Time, b.Time, a.Energy, b.Energy, len(a.Epochs), len(b.Epochs))
	}
}

func TestSeedChangesRun(t *testing.T) {
	run := func(seed uint64) units.Time {
		spec, _ := dacapo.ByName("pmd.scale")
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		spec.Configure(&cfg)
		res, err := sim.New(cfg).Run(dacapo.New(spec))
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical runtimes")
	}
}

func TestQuantumSamplesContiguous(t *testing.T) {
	cfg := sim.DefaultConfig()
	res, err := sim.New(cfg).Run(tinyWorkload{blocks: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 2 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	prev := units.Time(0)
	var energy units.Energy
	for i, s := range res.Samples {
		if s.Start != prev {
			t.Fatalf("sample %d starts at %v, previous ended %v", i, s.Start, prev)
		}
		if s.End <= s.Start {
			t.Fatalf("sample %d empty", i)
		}
		if s.EpochHi < s.EpochLo {
			t.Fatalf("sample %d epoch range inverted", i)
		}
		energy += s.Energy
		prev = s.End
	}
	if energy != res.Energy {
		t.Errorf("sample energies sum to %v, result says %v", energy, res.Energy)
	}
}

// TestEnergyIsSamplesPlusTransitions checks energy = ∫power over samples
// where DVFS and sampling act: a sampled run's quantum energies sum to its
// total exactly, and a governed run's total exceeds that sum by exactly the
// transition charges, recomputed from the frequency changes its metrics
// registry records (a chip-wide change, core -1, charges every core).
func TestEnergyIsSamplesPlusTransitions(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.25)
	mcfg := energy.DefaultManagerConfig(0.10)
	for _, tc := range []struct {
		name    string
		sampled bool
		govern  func(*sim.Machine)
	}{
		{name: "sampled", sampled: true},
		{name: "chip", govern: func(m *sim.Machine) { m.SetGovernor(energy.NewManager(mcfg).Governor()) }},
		{name: "percore", govern: func(m *sim.Machine) { m.SetCoreGovernor(energy.NewPerCoreManager(mcfg).Governor()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Freq = 4000
			spec.Configure(&cfg)
			if tc.sampled {
				cfg.Sampling = sampling.DefaultPolicy()
			}
			cfg.Metrics = metrics.NewRegistry()
			m := sim.New(cfg)
			if tc.govern != nil {
				tc.govern(m)
			}
			res, err := m.Run(dacapo.New(spec))
			if err != nil {
				t.Fatal(err)
			}
			var samples, charges units.Energy
			for _, s := range res.Samples {
				samples += s.Energy
			}
			changes := cfg.Metrics.FreqChanges()
			for _, c := range changes {
				cores := 1
				if c.Core < 0 {
					cores = cfg.Cores
				}
				charges += units.EnergyFromPower(
					float64(cores)*m.Power.CorePower(c.Freq, power.Activity{BusyFrac: 1}),
					cfg.TransitionLatency)
			}
			if len(changes) != res.Transitions {
				t.Fatalf("registry recorded %d frequency changes, result counts %d", len(changes), res.Transitions)
			}
			if got := res.Energy - samples; got != charges {
				t.Errorf("energy %v exceeds the sample sum %v by %v, transitions charge %v", res.Energy, samples, got, charges)
			}
			t.Logf("%d samples, %d transitions charging %v of %v", len(res.Samples), res.Transitions, charges, res.Energy)
			switch {
			case tc.sampled && (res.Sampling == nil || res.Sampling.FastQuanta == 0):
				t.Error("the sampled run never fast-forwarded")
			case !tc.sampled && res.Transitions == 0:
				t.Error("the governed run made no DVFS transitions")
			}
		})
	}
}

func TestEnergyPositiveAndFrequencySensitive(t *testing.T) {
	run := func(f units.Freq) sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Freq = f
		res, err := sim.New(cfg).Run(tinyWorkload{blocks: 2000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lo := run(1000)
	hi := run(4000)
	if lo.Energy <= 0 || hi.Energy <= 0 {
		t.Fatal("non-positive energy")
	}
	// Pure compute: 4 GHz finishes ~4x faster.
	if r := float64(lo.Time) / float64(hi.Time); r < 3.5 {
		t.Errorf("compute workload speedup %v", r)
	}
}

func TestGovernorInvokedAndTransitionsCounted(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Freq = 4000
	m := sim.New(cfg)
	calls := 0
	m.SetGovernor(func(mm *sim.Machine, s sim.QuantumSample) units.Freq {
		calls++
		if calls%2 == 1 {
			return 2000
		}
		return 4000
	})
	res, err := m.Run(tinyWorkload{blocks: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("governor never called")
	}
	if res.Transitions == 0 {
		t.Error("no transitions recorded")
	}
	if res.TransitionOverhead != units.Time(res.Transitions)*cfg.TransitionLatency {
		t.Errorf("overhead %v for %d transitions", res.TransitionOverhead, res.Transitions)
	}
}

func TestResultThreadsAndCounters(t *testing.T) {
	cfg := sim.DefaultConfig()
	res, err := sim.New(cfg).Run(tinyWorkload{blocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Threads: the app thread plus the JVM's service threads.
	var apps, services int
	for _, th := range res.Threads {
		switch th.Class {
		case kernel.ClassApp:
			apps++
		case kernel.ClassService:
			services++
		}
	}
	if apps != 1 {
		t.Errorf("app threads %d", apps)
	}
	if services != cfg.JVM.GCThreads {
		t.Errorf("service threads %d, want %d", services, cfg.JVM.GCThreads)
	}
	tot := res.TotalCounters()
	if tot.Instrs != 100*10_000 {
		t.Errorf("instructions %d", tot.Instrs)
	}
}

func TestSetFreqIdempotent(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	m.SetFreq(m.Freq())
	if m.Freq() != sim.DefaultConfig().Freq {
		t.Error("SetFreq(current) changed frequency")
	}
}

func TestPerCoreClocksIndependent(t *testing.T) {
	// Two identical threads pinned to different cores; core 1 runs at
	// 4x the frequency, so its thread must finish ~4x sooner.
	cfg := sim.DefaultConfig()
	cfg.Freq = 1000
	m := sim.New(cfg)
	m.SetCoreFreq(1, 4000)
	if m.CoreFreq(0) != 1000 || m.CoreFreq(1) != 4000 {
		t.Fatalf("core freqs %v/%v", m.CoreFreq(0), m.CoreFreq(1))
	}
	var end [2]units.Time
	for i := 0; i < 2; i++ {
		i := i
		m.Kern.Spawn("w", kernel.ClassApp, i, func(e *kernel.Env) {
			for j := 0; j < 50; j++ {
				e.Compute(&cpu.Block{Instrs: 10_000, IPC: 2})
			}
			end[i] = e.Now()
		})
	}
	if _, err := m.Run(nilWorkload{}); err != nil {
		t.Fatal(err)
	}
	ratio := float64(end[0]) / float64(end[1])
	if ratio < 3.5 {
		t.Errorf("per-core frequency had no effect: slow/fast end ratio %.2f", ratio)
	}
}

func TestPerCoreSamples(t *testing.T) {
	cfg := sim.DefaultConfig()
	res, err := sim.New(cfg).Run(tinyWorkload{blocks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var perCore, total int64
	for _, s := range res.Samples {
		if len(s.PerCore) != cfg.Cores {
			t.Fatalf("sample has %d per-core entries", len(s.PerCore))
		}
		for _, cs := range s.PerCore {
			perCore += cs.Delta.Instrs
		}
		total += s.Delta.Instrs
	}
	if perCore != total {
		t.Errorf("per-core instruction deltas sum to %d, aggregate says %d", perCore, total)
	}
}

type nilWorkload struct{}

func (nilWorkload) Name() string         { return "nil" }
func (nilWorkload) Setup(m *sim.Machine) {}
