package surrogate

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// trainFreqs is the synthetic corpus's frequency grid.
var trainFreqs = []units.Freq{1000, 2000, 3000, 4000}

// synthTime is an exact two-component ground truth per benchmark: a
// scaling part proportional to total work and a per-benchmark non-scaling
// part, so every property of the model is checkable against closed form.
func synthTime(spec dacapo.Spec, f units.Freq) units.Time {
	s := float64(spec.TotalInstrs())
	n := 0.25 * s * (1 + spec.DepFrac)
	return units.Time(math.Round(s*1000/float64(f) + n))
}

func synthConfig(spec dacapo.Spec, f units.Freq) sim.Config {
	cfg := sim.DefaultConfig()
	spec.Configure(&cfg)
	cfg.Freq = f
	return cfg
}

func synthSamples(specs []dacapo.Spec, freqs []units.Freq) []Sample {
	var out []Sample
	for _, spec := range specs {
		for _, f := range freqs {
			out = append(out, Sample{Config: synthConfig(spec, f), Spec: spec, Time: synthTime(spec, f)})
		}
	}
	return out
}

func TestGroupIDFrequencyIndependent(t *testing.T) {
	spec := dacapo.PMD()
	a := NewTruthManifest(synthConfig(spec, 1000), spec)
	b := NewTruthManifest(synthConfig(spec, 4000), spec)
	if a.GroupID() != b.GroupID() {
		t.Error("frequency changed the group id")
	}
	other := NewTruthManifest(synthConfig(dacapo.Xalan(), 1000), dacapo.Xalan())
	if a.GroupID() == other.GroupID() {
		t.Error("different benchmarks share a group id")
	}
	scaled := spec.Scaled(2)
	c := NewTruthManifest(synthConfig(scaled, 1000), scaled)
	if a.GroupID() == c.GroupID() {
		t.Error("scaled spec shares a group id")
	}
}

func TestPredictSourcesAndCalibration(t *testing.T) {
	suite := dacapo.Suite()
	m := Train(synthSamples(suite[:6], trainFreqs))
	spec := suite[0]

	interp, ok := m.Predict(synthConfig(spec, 1500), spec)
	if !ok || interp.Source != SourceInterp {
		t.Fatalf("in-band prediction: ok=%v source=%q", ok, interp.Source)
	}
	want := float64(synthTime(spec, 1500))
	if e := relErr(float64(interp.Time), want); e > 0.05 {
		t.Errorf("interp error %.3f vs closed form", e)
	}
	if interp.Confidence < DefaultMinConfidence {
		t.Errorf("interp confidence %.3f below serving threshold", interp.Confidence)
	}

	extrap, ok := m.Predict(synthConfig(spec, 8000), spec)
	if !ok || extrap.Source != SourceExtrap {
		t.Fatalf("out-of-band prediction: ok=%v source=%q", ok, extrap.Source)
	}
	// The synthetic truth is the law itself, so cross-validation measures
	// no error and both sources sit at their floors.
	if interp.ErrEstimate != floorInterpErr || extrap.ErrEstimate != floorExtrapErr {
		t.Errorf("error estimates %v/%v, want the floors %v/%v", interp.ErrEstimate, extrap.ErrEstimate, floorInterpErr, floorExtrapErr)
	}
	if interp.Confidence <= extrap.Confidence {
		t.Errorf("confidences not ordered: interp %v, extrap %v", interp.Confidence, extrap.Confidence)
	}

	held := suite[6]
	if est, ok := m.Predict(synthConfig(held, 2000), held); ok {
		t.Errorf("a benchmark outside the corpus was answered: %+v", est)
	}
}

// TestPredictScaleSource: a group observed at one frequency has no law and
// nothing corpus-wide to scale it by, so it gets no estimate until a
// second frequency is observed; then its own law answers.
func TestPredictScaleSource(t *testing.T) {
	suite := dacapo.Suite()
	single := suite[0]
	samples := append(synthSamples(suite[1:], trainFreqs),
		Sample{Config: synthConfig(single, 1000), Spec: single, Time: synthTime(single, 1000)})
	m := Train(samples)
	for _, f := range []units.Freq{1000, 2000} {
		if est, ok := m.Predict(synthConfig(single, f), single); ok {
			t.Errorf("single-point group answered at %v: %+v", f, est)
		}
	}
	m.Observe(synthConfig(single, 3000), single, synthTime(single, 3000))
	est, ok := m.Predict(synthConfig(single, 2000), single)
	if !ok || est.Source != SourceInterp {
		t.Fatalf("two-point group: ok=%v source=%q", ok, est.Source)
	}
	if e := relErr(float64(est.Time), float64(synthTime(single, 2000))); e > 1e-6 {
		t.Errorf("two-point law off the closed form by %.3g", e)
	}
}

func TestPredictRejects(t *testing.T) {
	if _, ok := NewModel().Predict(synthConfig(dacapo.PMD(), 1000), dacapo.PMD()); ok {
		t.Error("empty model answered")
	}
	m := Train(synthSamples(dacapo.Suite(), trainFreqs))
	if _, ok := m.Predict(synthConfig(dacapo.PMD(), 0), dacapo.PMD()); ok {
		t.Error("non-positive frequency answered")
	}
}

// TestPredictFreqsMatchesPredict: the multi-frequency lookup answers each
// frequency exactly as Predict does on its own, across both sources, and
// refuses the whole query when any frequency cannot be answered.
func TestPredictFreqsMatchesPredict(t *testing.T) {
	suite := dacapo.Suite()
	m := Train(synthSamples(suite[1:5], trainFreqs))
	freqs := []units.Freq{500, 1000, 2500, 4000, 5000}
	sources := map[string]bool{}
	for _, spec := range suite[1:5] {
		got, ok := m.PredictFreqs(synthConfig(spec, 1234), spec, freqs)
		if !ok || len(got) != len(freqs) {
			t.Fatalf("%s: ok=%v, %d estimates", spec.Name, ok, len(got))
		}
		for i, f := range freqs {
			want, ok := m.Predict(synthConfig(spec, f), spec)
			if !ok || got[i] != want {
				t.Errorf("%s @%v: PredictFreqs %+v, Predict %+v (ok=%v)", spec.Name, f, got[i], want, ok)
			}
			sources[got[i].Source] = true
		}
	}
	if len(sources) != 2 {
		t.Errorf("sources covered: %v, want both", sources)
	}
	known := suite[1]
	if _, ok := m.PredictFreqs(synthConfig(known, 1000), known, []units.Freq{1000, 0}); ok {
		t.Error("non-positive frequency answered")
	}
	if _, ok := m.PredictFreqs(synthConfig(suite[0], 1000), suite[0], freqs); ok {
		t.Error("unknown group answered")
	}
	bad := known
	bad.IPC = math.NaN()
	if _, ok := m.PredictFreqs(synthConfig(bad, 1000), bad, freqs); ok {
		t.Error("unkeyable query answered")
	}
}

func TestPredictNonNegativeMonotone(t *testing.T) {
	suite := dacapo.Suite()
	m := Train(synthSamples(suite, trainFreqs))
	for _, spec := range suite {
		prev := units.Time(math.MaxInt64)
		for f := units.Freq(100); f <= 8000; f += 100 {
			est, ok := m.Predict(synthConfig(spec, f), spec)
			if !ok {
				t.Fatalf("%s@%d: no estimate", spec.Name, f)
			}
			if est.Time < 0 {
				t.Fatalf("%s@%d: negative time %v", spec.Name, f, est.Time)
			}
			if est.Time > prev {
				t.Fatalf("%s: time rose from %v to %v as frequency rose to %d", spec.Name, prev, est.Time, f)
			}
			prev = est.Time
		}
	}
}

func TestTrainingDeterministicAndOrderInvariant(t *testing.T) {
	samples := synthSamples(dacapo.Suite(), trainFreqs)
	a := Train(samples)
	if !reflect.DeepEqual(a, Train(samples)) {
		t.Error("two trainings on the same corpus differ")
	}
	rev := make([]Sample, len(samples))
	for i, s := range samples {
		rev[len(samples)-1-i] = s
	}
	if !reflect.DeepEqual(a, Train(rev)) {
		t.Error("sample order changed the model")
	}
}

func TestObserveOnline(t *testing.T) {
	m := NewModel()
	spec := dacapo.PMDScale()
	for _, f := range []units.Freq{1000, 2000, 4000} {
		m.Observe(synthConfig(spec, f), spec, synthTime(spec, f))
	}
	sum := m.Summarize()
	if sum.Groups != 1 || sum.Points != 3 {
		t.Fatalf("after 3 observations: %+v", sum)
	}
	est, ok := m.Predict(synthConfig(spec, 3000), spec)
	if !ok || est.Source != SourceInterp {
		t.Fatalf("observed group not served by its law: ok=%v source=%q", ok, est.Source)
	}
	if est.Confidence < DefaultMinConfidence {
		t.Errorf("confidence %.3f below serving threshold after online learning", est.Confidence)
	}
	if e := relErr(float64(est.Time), float64(synthTime(spec, 3000))); e > 0.05 {
		t.Errorf("online-learned prediction off by %.3f", e)
	}

	// Re-observing the same run, malformed observations and sampled runs
	// are no-ops.
	m.Observe(synthConfig(spec, 2000), spec, synthTime(spec, 2000))
	m.Observe(synthConfig(spec, 0), spec, 5)
	m.Observe(synthConfig(spec, 1500), spec, -1)
	sampled := synthConfig(spec, 1500)
	sampled.Sampling.Enabled = true
	m.Observe(sampled, spec, synthTime(spec, 1500))
	if got := m.Summarize(); got != sum {
		t.Errorf("no-op observations changed the model: %+v vs %+v", got, sum)
	}
}

func TestScanCorpus(t *testing.T) {
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	suite := dacapo.Suite()[:3]
	want := 0
	for i, spec := range suite {
		for _, f := range trainFreqs {
			key, err := simcache.Key("truth", spec.Name, int64(f))
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Result{Workload: spec.Name, Freq: f, Time: synthTime(spec, f)}
			if err := st.Put(key, &res); err != nil {
				t.Fatal(err)
			}
			if i == 2 && f == trainFreqs[0] {
				continue // one entry without a sidecar: skipped
			}
			if err := st.PutMeta(key, NewTruthManifest(synthConfig(spec, f), spec)); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	// Distractors, all skipped: a sidecar without an entry, a non-truth
	// manifest, a sampled-mode manifest, and a damaged sidecar.
	orphan, _ := simcache.Key("orphan")
	if err := st.PutMeta(orphan, NewTruthManifest(synthConfig(suite[0], 1000), suite[0])); err != nil {
		t.Fatal(err)
	}
	foreign, _ := simcache.Key("foreign")
	st.Put(foreign, &sim.Result{Time: 1})
	mf := NewTruthManifest(synthConfig(suite[0], 1500), suite[0])
	mf.Kind = "managed"
	st.PutMeta(foreign, mf)
	sampled, _ := simcache.Key("sampled")
	st.Put(sampled, &sim.Result{Time: 1})
	smf := NewTruthManifest(synthConfig(suite[0], 1500), suite[0])
	smf.Config.Sampling.Enabled = true
	st.PutMeta(sampled, smf)
	damaged, _ := simcache.Key("damaged")
	st.Put(damaged, &sim.Result{Time: 1})
	st.PutMeta(damaged, NewTruthManifest(synthConfig(suite[1], 1500), suite[1]))
	if err := os.WriteFile(filepath.Join(st.Dir(), damaged+".scm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	samples, err := Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != want {
		t.Fatalf("scanned %d samples, want %d", len(samples), want)
	}
	m := Train(samples)
	sum := m.Summarize()
	if sum.Groups != len(suite) {
		t.Errorf("trained %d groups, want %d", sum.Groups, len(suite))
	}
	// Scanning the same corpus again trains an identical model.
	again, err := Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, Train(again)) {
		t.Error("rescan trained a different model")
	}
}

func TestScanMissingDir(t *testing.T) {
	st, err := simcache.Open(filepath.Join(t.TempDir(), "gone"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(st.Dir()); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(st); err == nil {
		t.Error("unreadable corpus directory not reported")
	}
}

func TestSmallHelpers(t *testing.T) {
	if relErr(0, 0) != 0 || relErr(3, 0) != 1 || relErr(2, 4) != 0.5 {
		t.Error("relErr branches wrong")
	}
}
