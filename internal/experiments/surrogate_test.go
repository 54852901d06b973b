package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// TestTruthManifestsScannable checks the corpus feedback loop at the
// runner level: truth runs leave sidecar manifests behind, the surrogate
// scanner recovers exactly the full-detail runs, warm hits backfill
// sidecars missing from older corpora, and sampled-mode runs never enter
// the training set.
func TestTruthManifestsScannable(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	b := spec.Scaled(2)
	b.Name = "pmd.b"
	suite := []dacapo.Spec{spec, b}
	freqs := []units.Freq{1000, 2000}
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	r := cachedRunner(2, st)
	r.Prewarm(suite, freqs...)
	samples, err := surrogate.Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(suite)*len(freqs) {
		t.Fatalf("scanned %d samples, want %d", len(samples), len(suite)*len(freqs))
	}
	m := surrogate.Train(samples)
	if sum := m.Summarize(); sum.Groups != len(suite) || sum.Points != len(samples) {
		t.Fatalf("trained %+v from %d samples over %d specs", sum, len(samples), len(suite))
	}
	// The trained model reproduces the simulated truth it was fit on.
	truth := r.Truth(spec, 2000)
	cfg := r.Base
	cfg.Freq = 2000
	spec.Configure(&cfg)
	est, ok := m.Predict(cfg, spec)
	if !ok {
		t.Fatal("model cannot answer for its own corpus")
	}
	if e := float64(est.Time-truth.Time) / float64(truth.Time); e > 0.05 || e < -0.05 {
		t.Errorf("corpus-config prediction off by %.3f (est %v, truth %v)", e, est.Time, truth.Time)
	}

	// Strip the sidecars; a warm replay (pure disk hits) backfills them.
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".scm" {
			if err := os.Remove(filepath.Join(st.Dir(), de.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := cachedRunner(2, st)
	warm.Prewarm(suite, freqs...)
	if n := warm.Simulations(); n != 0 {
		t.Fatalf("warm replay simulated %d times", n)
	}
	again, err := surrogate.Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(samples) {
		t.Fatalf("backfilled corpus has %d samples, want %d", len(again), len(samples))
	}

	// A sampled-mode runner writes entries but never training sidecars.
	sst, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sr := cachedRunner(2, sst)
	sr.SetSampling(sampling.DefaultPolicy())
	sr.Truth(spec, 1000)
	if n, _, _ := sst.Size(); n == 0 {
		t.Fatal("sampled run cached nothing")
	}
	got, err := surrogate.Scan(sst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("sampled-mode corpus yielded %d training samples", len(got))
	}
}

// TestSurrogateRetrainDeterminism is the satellite property: corpora built
// at -j1 and -j8 scan and train into byte-identical model files, and
// retraining from the same corpus is byte-identical too.
func TestSurrogateRetrainDeterminism(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	b := spec.Scaled(2)
	b.Name = "pmd.b"
	suite := []dacapo.Spec{spec, b}
	freqs := []units.Freq{1000, 2000}

	encode := func(workers int) []byte {
		st, err := simcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cachedRunner(workers, st).Prewarm(suite, freqs...)
		samples, err := surrogate.Scan(st)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := surrogate.Train(samples).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	j1 := encode(1)
	j8 := encode(8)
	if !bytes.Equal(j1, j8) {
		t.Error("-j1 and -j8 corpora trained different model bytes")
	}
	if again := encode(1); !bytes.Equal(j1, again) {
		t.Error("retraining from an identically-built corpus changed the model bytes")
	}
}

// scanFull is surrogate.Scan as it was before it read only heads: every
// sample's time comes from a full decode of its entry. It is Scan's oracle.
func scanFull(t *testing.T, st *simcache.Store) []surrogate.Sample {
	t.Helper()
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	var samples []surrogate.Sample
	for _, k := range keys {
		var m surrogate.Manifest
		if !st.GetMeta(k, &m) || m.Kind != surrogate.KindTruth || m.Config.Sampling.Enabled || m.Config.Freq <= 0 {
			continue
		}
		var res sim.Result
		if !st.Get(k, &res) || res.Time < 0 {
			continue
		}
		samples = append(samples, surrogate.Sample{Config: m.Config, Spec: m.Spec, Time: res.Time})
	}
	return samples
}

// TestScanMatchesFullDecode: Scan, which decodes only the head of each
// entry, returns exactly the samples a full decode of every entry gives,
// on a Runner-built corpus with a governed entry beside the truths.
func TestScanMatchesFullDecode(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	b := spec.Scaled(2)
	b.Name = "pmd.b"
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := cachedRunner(2, st)
	r.Prewarm([]dacapo.Spec{spec, b}, 1000, 2000, 4000)
	r.ManagedRun(spec, 0.10)
	got, err := surrogate.Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := scanFull(t, st); len(got) != 6 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan returned %d samples %+v, a full-decode scan %d %+v", len(got), got, len(want), want)
	}
}
