package main

import (
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/simcache"
)

// TestLoadModel covers serve -surrogate's boot training: a cache holding a
// spec's truths at two frequencies yields a model that answers for that
// spec's group, while a cache without truths, or no cache at all, yields
// an empty model that learns online.
func TestLoadModel(t *testing.T) {
	spec := dacapo.PMDScale().Scaled(0.05)
	cached := func(t *testing.T) *experiments.Runner {
		st, err := simcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := experiments.NewRunnerWorkers(1)
		r.SetDiskCache(st)
		return r
	}

	t.Run("corpus", func(t *testing.T) {
		r := cached(t)
		r.Prewarm([]dacapo.Spec{spec}, 1000, 2000)
		m, err := loadModel(r)
		if err != nil {
			t.Fatal(err)
		}
		if sum := m.Summarize(); sum.Groups != 1 || sum.Points != 2 {
			t.Fatalf("trained %+v, want one group of two points", sum)
		}
		if _, ok := m.Predict(r.TruthConfig(spec, 1500), spec); !ok {
			t.Error("the corpus group has no estimate")
		}
	})
	t.Run("no truths", func(t *testing.T) {
		m, err := loadModel(cached(t))
		if err != nil {
			t.Fatal(err)
		}
		if sum := m.Summarize(); sum.Groups != 0 {
			t.Errorf("empty cache trained %+v", sum)
		}
	})
	t.Run("no cache", func(t *testing.T) {
		m, err := loadModel(experiments.NewRunnerWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if sum := m.Summarize(); sum.Groups != 0 {
			t.Errorf("cache-less boot trained %+v", sum)
		}
	})
}
