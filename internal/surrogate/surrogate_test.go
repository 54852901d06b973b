package surrogate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
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

	held := suite[6]
	knn, ok := m.Predict(synthConfig(held, 2000), held)
	if !ok || knn.Source != SourceKNN {
		t.Fatalf("held-out prediction: ok=%v source=%q", ok, knn.Source)
	}
	if knn.Confidence >= DefaultMinConfidence {
		t.Errorf("cross-workload transfer confidence %.3f reached the serving band", knn.Confidence)
	}

	// The trust ladder: reported error grows, confidence shrinks.
	if !(interp.ErrEstimate <= extrap.ErrEstimate && extrap.ErrEstimate < knn.ErrEstimate) {
		t.Errorf("error estimates not ordered: %v %v %v", interp.ErrEstimate, extrap.ErrEstimate, knn.ErrEstimate)
	}
	if !(interp.Confidence >= extrap.Confidence && extrap.Confidence > knn.Confidence) {
		t.Errorf("confidences not ordered: %v %v %v", interp.Confidence, extrap.Confidence, knn.Confidence)
	}
}

func TestPredictScaleSource(t *testing.T) {
	suite := dacapo.Suite()
	samples := synthSamples(suite[1:], trainFreqs)
	single := suite[0]
	samples = append(samples, Sample{Config: synthConfig(single, 1000), Spec: single, Time: synthTime(single, 1000)})
	m := Train(samples)

	est, ok := m.Predict(synthConfig(single, 2000), single)
	if !ok || est.Source != SourceScale {
		t.Fatalf("single-point group: ok=%v source=%q", ok, est.Source)
	}
	// γ-scaling must still recover the broad shape: the synthetic truth
	// drops by less than 2x from 1 GHz to 2 GHz.
	if e := relErr(float64(est.Time), float64(synthTime(single, 2000))); e > 0.35 {
		t.Errorf("scale-source error %.3f", e)
	}
	at1000, ok := m.Predict(synthConfig(single, 1000), single)
	if !ok || at1000.Source != SourceScale {
		t.Fatalf("at observed freq: ok=%v source=%q", ok, at1000.Source)
	}
	if got, want := at1000.Time, synthTime(single, 1000); got != want {
		t.Errorf("scale source at its own frequency: %v, want %v", got, want)
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
// frequency exactly as Predict does on its own — across the group-law,
// γ-scaling and k-NN sources — and refuses the whole query when any
// frequency cannot be answered.
func TestPredictFreqsMatchesPredict(t *testing.T) {
	suite := dacapo.Suite()
	samples := synthSamples(suite[1:5], trainFreqs)
	single := suite[0]
	samples = append(samples, Sample{Config: synthConfig(single, 1000), Spec: single, Time: synthTime(single, 1000)})
	m := Train(samples)
	freqs := []units.Freq{500, 1000, 2500, 4000, 5000}
	sources := map[string]bool{}
	for _, spec := range []dacapo.Spec{suite[1], single, suite[6]} {
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
	if len(sources) != 4 {
		t.Errorf("sources covered: %v, want all four", sources)
	}
	if _, ok := m.PredictFreqs(synthConfig(single, 1000), single, []units.Freq{1000, 0}); ok {
		t.Error("non-positive frequency answered")
	}
	bad := suite[1]
	bad.IPC = math.NaN()
	if _, ok := m.PredictFreqs(synthConfig(bad, 1000), bad, freqs); ok {
		t.Error("unkeyable query answered")
	}
}

func TestPredictNonNegativeMonotone(t *testing.T) {
	suite := dacapo.Suite()
	m := Train(synthSamples(suite[:5], trainFreqs))
	// Add a single-point group so the γ path is swept too.
	m.Observe(synthConfig(suite[5], 1000), suite[5], synthTime(suite[5], 1000))

	for _, spec := range suite { // suite[6] exercises the k-NN path
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
	a, err := Train(samples).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(samples).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two trainings on the same corpus differ")
	}
	rev := make([]Sample, len(samples))
	for i, s := range samples {
		rev[len(samples)-1-i] = s
	}
	c, err := Train(rev).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("sample order changed the model bytes")
	}
}

func TestFileRoundTrip(t *testing.T) {
	suite := dacapo.Suite()
	m := Train(synthSamples(suite, trainFreqs))
	path := filepath.Join(t.TempDir(), "model.dbsg")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summarize() != m.Summarize() {
		t.Errorf("summary changed: %+v vs %+v", got.Summarize(), m.Summarize())
	}
	for _, spec := range suite {
		for f := units.Freq(500); f <= 6000; f += 500 {
			a, aok := m.Predict(synthConfig(spec, f), spec)
			b, bok := got.Predict(synthConfig(spec, f), spec)
			if aok != bok || a != b {
				t.Fatalf("%s@%d: %+v/%v vs %+v/%v after round trip", spec.Name, f, a, aok, b, bok)
			}
		}
	}
	// A reloaded model is still re-encodable to the same bytes.
	raw, _ := m.Encode()
	raw2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("re-encoding a loaded model changed its bytes")
	}
}

// frameFile wraps a payload in valid model-file framing so tests can build
// semantically-broken but well-framed files.
func frameFile(t *testing.T, p filePayload) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, fileHeaderSize+payload.Len())
	copy(out[:4], fileMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], fileVersion)
	binary.LittleEndian.PutUint64(out[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	copy(out[fileHeaderSize:], payload.Bytes())
	return out
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := Train(synthSamples(dacapo.Suite()[:2], trainFreqs)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"header":    valid[:10],
		"truncated": valid[:len(valid)-5],
		"magic":     mut(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"version":   mut(func(b []byte) []byte { b[4] ^= 0x01; return b }),
		"length":    mut(func(b []byte) []byte { b[8] ^= 0x01; return b }),
		"checksum":  mut(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
		"notgob":    append(append([]byte(nil), valid[:fileHeaderSize]...), 0xff),
		"schema":    frameFile(t, filePayload{Schema: "depburst-surrogate/99"}),
		"nan":       frameFile(t, filePayload{Schema: FileSchema, Gamma: math.NaN()}),
		"inf":       frameFile(t, filePayload{Schema: FileSchema, FeatMean: []float64{math.Inf(1)}, FeatStd: []float64{1}}),
		"stdlen":    frameFile(t, filePayload{Schema: FileSchema, FeatMean: []float64{1}}),
		"dupgroup": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{
			{ID: "g", Pts: []point{{1000, 5}}}, {ID: "g", Pts: []point{{1000, 5}}},
		}}),
		"emptyid": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{{ID: ""}}}),
		"badfreq": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{
			{ID: "g", Pts: []point{{0, 5}}},
		}}),
		"badtime": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{
			{ID: "g", Pts: []point{{1000, -5}}},
		}}),
		"dupfreq": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{
			{ID: "g", Pts: []point{{1000, 5}, {1000, 6}}},
		}}),
		"nanfeat": frameFile(t, filePayload{Schema: FileSchema, Groups: []fileGroup{
			{ID: "g", Feat: []float64{math.NaN()}, Pts: []point{{1000, 5}}},
		}}),
	}
	for name, raw := range cases {
		if _, err := Decode(raw); err == nil {
			t.Errorf("%s: malformed model accepted", name)
		}
	}
	// A file from before group ids were simcache keys would load groups no
	// query can reach; it must fail on its schema instead.
	_, err = Decode(frameFile(t, filePayload{Schema: "depburst-surrogate/1", Gamma: 0.5}))
	if want := `surrogate: model schema "depburst-surrogate/1", want "depburst-surrogate/2"`; err == nil || err.Error() != want {
		t.Errorf("old-schema model: err %v, want %s", err, want)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.dbsg")); err == nil {
		t.Error("absent model file accepted")
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

	// Re-observing the same run (or malformed observations) is a no-op.
	m.Observe(synthConfig(spec, 2000), spec, synthTime(spec, 2000))
	m.Observe(synthConfig(spec, 0), spec, 5)
	m.Observe(synthConfig(spec, 1500), spec, -1)
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
	// Scanning the same corpus again trains byte-identical models.
	again, err := Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Encode()
	b, err := Train(again).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
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

func TestDecodeClampsGamma(t *testing.T) {
	m, err := Decode(frameFile(t, filePayload{Schema: FileSchema, Gamma: 2.5}))
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Summarize().Gamma; g != 1 {
		t.Errorf("gamma %v not clamped to 1", g)
	}
	m, err = Decode(frameFile(t, filePayload{Schema: FileSchema, Gamma: -0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Summarize().Gamma; g != 0 {
		t.Errorf("gamma %v not clamped to 0", g)
	}
}

func TestWriteFileBadPath(t *testing.T) {
	if err := NewModel().WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "m")); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestWriteFileConcurrent: two trainings writing one model path at once
// must leave one complete model, never a mix or a stray temp file.
func TestWriteFileConcurrent(t *testing.T) {
	suite := dacapo.Suite()
	models := []*Model{
		Train(synthSamples(suite[:2], trainFreqs)),
		Train(synthSamples(suite[2:], trainFreqs)),
	}
	var want [][]byte
	for _, m := range models {
		raw, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.dbsg")
	for round := 0; round < 20; round++ {
		errs := make([]error, len(models))
		var wg sync.WaitGroup
		for i, m := range models {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = m.WriteFile(path)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		raw, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want[0]) && !bytes.Equal(raw, want[1]) {
			t.Fatalf("round %d: file decodes to neither written model", round)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("round %d: directory holds %d entries (%v), want only the model", round, len(entries), err)
		}
	}
}

func TestSmallHelpers(t *testing.T) {
	if clamp01(0.5) != 0.5 {
		t.Error("clamp01 moved an in-range value")
	}
	if relErr(0, 0) != 0 || relErr(3, 0) != 1 || relErr(2, 4) != 0.5 {
		t.Error("relErr branches wrong")
	}
	if e := NewModel().estimate(-5, SourceKNN, 0.1); e.Time != 0 {
		t.Error("negative estimate not clamped")
	}
	if (&group{feat: []float64{1, 2}}).work() != 0 {
		t.Error("short feature vector produced work")
	}
	spec := dacapo.PMD()
	spec.Threads = 0
	man := NewTruthManifest(synthConfig(spec, 1000), spec)
	if man.perThreadWork() != float64(spec.TotalInstrs()) {
		t.Error("zero threads not floored to 1")
	}
}
