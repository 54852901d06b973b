package surrogate

import (
	"depburst/internal/sim"
	"depburst/internal/simcache"
)

// Scan walks the store and returns the training corpus: one Sample per
// live entry whose manifest identifies a full-detail truth run. One read
// of each entry serves its manifest and the head of its result. Entries
// without a manifest (other run families), damaged entries, sampled-mode
// runs and malformed manifests are skipped — a partially-readable corpus
// trains a smaller model, never a failed one. The result is ordered by
// content key, so a scan of the same corpus is deterministic regardless
// of how (or how parallel) the corpus was built.
func Scan(st *simcache.Store) ([]Sample, error) {
	keys, err := st.Keys()
	if err != nil {
		return nil, err
	}
	var samples []Sample
	for _, k := range keys {
		var head sim.Summary // the time is all a sample needs
		meta, ok := st.GetMeta(k, &head)
		var m Manifest
		if !ok || m.UnmarshalBinary(meta) != nil {
			continue
		}
		if m.Kind != KindTruth || m.Config.Sampling.Enabled || m.Config.Freq <= 0 || head.Time < 0 {
			continue
		}
		samples = append(samples, Sample{Config: m.Config, Spec: m.Spec, Time: head.Time})
	}
	return samples, nil
}
