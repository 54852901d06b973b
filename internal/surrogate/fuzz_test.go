package surrogate

import (
	"encoding/json"
	"testing"

	"depburst/internal/dacapo"
)

// FuzzSurrogateDecode throws arbitrary bytes at the surrogate's untrusted
// input surface: the manifest the corpus scanner json-decodes out of each
// sidecar (the framing around it is simcache's checkEntry, exercised by
// its corruption wall). Whatever decodes is fed through the whole training
// surface, which must absorb or reject it without panicking, and a sampled
// manifest must never train the model. The checked-in corpus keeps byte
// strings that are not manifests at all, so the rejection path stays
// covered. The on-disk skip-and-continue behaviour of Scan itself is
// covered by TestScanCorpus.
func FuzzSurrogateDecode(f *testing.F) {
	spec := dacapo.PMDScale()
	manifest := func(mutate func(*Manifest)) []byte {
		m := NewTruthManifest(synthConfig(spec, 1000), spec)
		if mutate != nil {
			mutate(&m)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := manifest(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(manifest(func(m *Manifest) { m.Config.Sampling.Enabled = true }))
	f.Add(manifest(func(m *Manifest) { m.Config.Freq = 0 }))
	f.Add(manifest(func(m *Manifest) { m.Spec.Threads = 0 }))
	f.Add([]byte(`{"kind":"truth","spec":{"Name":"pmd"}}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			return
		}
		cfg, sp := man.Config, man.Spec
		man.GroupID()
		m := NewModel()
		m.Observe(cfg, sp, 7)
		m.Observe(cfg, sp, 7)
		if sum := m.Summarize(); sum.Points > 1 || (cfg.Sampling.Enabled && sum.Points != 0) {
			t.Fatalf("two identical observations of %+v left %+v", cfg, sum)
		}
		cfg.Freq *= 2
		m.Observe(cfg, sp, 5)
		if est, ok := m.Predict(cfg, sp); ok && est.Time < 0 {
			t.Fatalf("negative estimate %+v", est)
		}
		Train([]Sample{{Config: man.Config, Spec: sp, Time: 7}, {Config: cfg, Spec: sp, Time: 5}})
	})
}
