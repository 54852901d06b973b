package experiments

import (
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/kernel"
)

func TestTruthMemoised(t *testing.T) {
	r := NewRunner()
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	a := r.Truth(spec, 1000)
	b := r.Truth(spec, 1000)
	if a != b {
		t.Error("Truth did not memoise (distinct result pointers)")
	}
	c := r.Truth(spec, 2000)
	if c == a {
		t.Error("different frequencies share a cache entry")
	}
	if c.Time >= a.Time {
		t.Errorf("2 GHz run (%v) not faster than 1 GHz run (%v)", c.Time, a.Time)
	}
}

// TestSameNameSpecsDoNotAlias: specs that share a name but differ in any
// parameter are different runs. Each must be served the result a fresh
// Runner computes for it, never a memo slot filled by its namesake.
func TestSameNameSpecsDoNotAlias(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	small := spec.Scaled(0.05)
	nursery := small
	nursery.Nursery = 256 << 10
	for _, tc := range []struct {
		name   string
		first  dacapo.Spec
		second dacapo.Spec
	}{
		{"items", small, spec.Scaled(0.1)},
		{"nursery", small, nursery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunnerWorkers(1)
			r.Truth(tc.first, 1000)
			got := r.Truth(tc.second, 1000)
			want := NewRunnerWorkers(1).Truth(tc.second, 1000)
			if got.Time != want.Time {
				t.Errorf("second spec served %v, a fresh Runner computes %v", got.Time, want.Time)
			}
			if n := r.Simulations(); n != 2 {
				t.Errorf("simulations = %d, want 2", n)
			}
		})
	}
	t.Run("managed", func(t *testing.T) {
		r := NewRunnerWorkers(1)
		r.ManagedRun(small, 0.10)
		got, _ := r.ManagedRun(spec.Scaled(0.1), 0.10)
		want, _ := NewRunnerWorkers(1).ManagedRun(spec.Scaled(0.1), 0.10)
		if got.Time != want.Time || got.Energy != want.Energy {
			t.Errorf("second spec served %v/%v, a fresh Runner computes %v/%v",
				got.Time, got.Energy, want.Time, want.Energy)
		}
		if n := r.Simulations(); n != 2 {
			t.Errorf("simulations = %d, want 2", n)
		}
	})
}

func TestObserveMapping(t *testing.T) {
	r := NewRunner()
	spec, _ := dacapo.ByName("pmd.scale")
	res := r.Truth(spec, 1000)
	obs := Observe(res)
	if obs.Base != 1000 || obs.Total != res.Time {
		t.Errorf("observation base/total: %v/%v", obs.Base, obs.Total)
	}
	if len(obs.Threads) != len(res.Threads) {
		t.Errorf("threads %d vs %d", len(obs.Threads), len(res.Threads))
	}
	if len(obs.Epochs) != len(res.Epochs) || len(obs.Marks) != len(res.Marks) {
		t.Error("epochs/marks not carried over")
	}
	apps := 0
	for _, th := range obs.Threads {
		if th.Class == kernel.ClassApp {
			apps++
		}
	}
	if apps != spec.Threads+1 { // workers + main
		t.Errorf("app threads in observation: %d", apps)
	}
}

func TestModelsSet(t *testing.T) {
	ms := Models()
	if len(ms) != 6 {
		t.Fatalf("model set has %d entries, want 6", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name()] = true
	}
	for _, want := range []string{"M+CRIT", "M+CRIT+BURST", "COOP", "COOP+BURST", "DEP", "DEP+BURST"} {
		if !names[want] {
			t.Errorf("missing model %q", want)
		}
	}
}

func TestPredictionErrorIdentity(t *testing.T) {
	r := NewRunner()
	spec, _ := dacapo.ByName("pmd.scale")
	for _, m := range Models() {
		e := r.PredictionError(spec, m, 1000, 1000)
		if e < -0.02 || e > 0.02 {
			t.Errorf("%s: identity prediction error %.2f%%", m.Name(), e*100)
		}
	}
}
