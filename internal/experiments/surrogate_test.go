package experiments

import (
	"os"
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
// runner level: truth entries carry their manifests, the surrogate scanner
// recovers exactly the full-detail runs, a warm replay writes nothing, and
// sampled-mode runs never enter the training set.
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
	est, ok := m.Predict(r.TruthConfig(spec, 2000), spec)
	if !ok {
		t.Fatal("model cannot answer for its own corpus")
	}
	if e := float64(est.Time-truth.Time) / float64(truth.Time); e > 0.05 || e < -0.05 {
		t.Errorf("corpus-config prediction off by %.3f (est %v, truth %v)", e, est.Time, truth.Time)
	}

	// A warm replay is pure disk hits: it writes nothing.
	puts := st.Stats().Puts
	warm := cachedRunner(2, st)
	warm.Prewarm(suite, freqs...)
	if n := warm.Simulations(); n != 0 {
		t.Fatalf("warm replay simulated %d times", n)
	}
	if n := st.Stats().Puts - puts; n != 0 {
		t.Errorf("warm replay wrote %d entries", n)
	}

	// A sampled-mode runner writes entries but never training manifests.
	sst, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sr := cachedRunner(2, sst)
	sr.SetSampling(sampling.DefaultPolicy())
	sr.Truth(spec, 1000)
	skeys, err := sst.Keys()
	if err != nil || len(skeys) == 0 {
		t.Fatalf("sampled run cached nothing (%v)", err)
	}
	for _, k := range skeys {
		if meta, ok := sst.GetMeta(k, &sim.Summary{}); !ok || len(meta) != 0 {
			t.Errorf("sampled entry %s: served %v, manifest %q", k, ok, meta)
		}
	}
	got, err := surrogate.Scan(sst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("sampled-mode corpus yielded %d training samples", len(got))
	}
}

// TestPrewarmLeavesOneFilePerEntry: a cold cached Prewarm leaves one file
// per entry and nothing else, and each truth entry carries the manifest
// of the run it holds.
func TestPrewarmLeavesOneFilePerEntry(t *testing.T) {
	spec := memoSpec(t)
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := cachedRunner(2, st)
	freqs := []units.Freq{1000, 2000}
	r.Prewarm([]dacapo.Spec{spec}, freqs...)
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(freqs) || len(des) != len(keys) {
		t.Fatalf("Prewarm of %d runs left %d entries in %d files", len(freqs), len(keys), len(des))
	}
	for _, f := range freqs {
		j := r.truthJob(spec, f)
		var head sim.Summary
		meta, ok := st.GetMeta(contentKey(j.kind, j.cfg, j.extra...), &head)
		var m surrogate.Manifest
		if !ok || m.UnmarshalBinary(meta) != nil {
			t.Fatalf("truth entry at %v: served %v, manifest %q", f, ok, meta)
		}
		if want := surrogate.NewTruthManifest(r.TruthConfig(spec, f), spec); !reflect.DeepEqual(m, want) {
			t.Errorf("manifest at %v: %+v, want %+v", f, m, want)
		}
	}
}

// TestSurrogateRetrainDeterminism is the satellite property: corpora built
// at -j1 and -j8 scan and train into identical models, and retraining from
// the same corpus is identical too.
func TestSurrogateRetrainDeterminism(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	b := spec.Scaled(2)
	b.Name = "pmd.b"
	suite := []dacapo.Spec{spec, b}
	freqs := []units.Freq{1000, 2000}

	train := func(workers int) *surrogate.Model {
		st, err := simcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cachedRunner(workers, st).Prewarm(suite, freqs...)
		samples, err := surrogate.Scan(st)
		if err != nil {
			t.Fatal(err)
		}
		return surrogate.Train(samples)
	}

	j1 := train(1)
	if !reflect.DeepEqual(j1, train(8)) {
		t.Error("-j1 and -j8 corpora trained different models")
	}
	if !reflect.DeepEqual(j1, train(1)) {
		t.Error("retraining from an identically-built corpus changed the model")
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
		var res sim.Result
		meta, ok := st.GetMeta(k, &res)
		var m surrogate.Manifest
		if !ok || m.UnmarshalBinary(meta) != nil || m.Kind != surrogate.KindTruth || m.Config.Sampling.Enabled || m.Config.Freq <= 0 || res.Time < 0 {
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
