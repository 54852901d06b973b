package energy

import "depburst/internal/units"

// StaticResult is one point of a static-frequency sweep.
type StaticResult struct {
	Freq   units.Freq
	Time   units.Time
	Energy units.Energy
}

// StaticOptimalConstrained returns the minimum-energy sweep point whose
// slowdown relative to refTime stays within threshold — the oracle the
// dynamic manager is compared against in the paper's Figure 7 (both
// operate under the same user-specified performance bound). If no point
// qualifies, the fastest point is returned.
func StaticOptimalConstrained(sweep []StaticResult, refTime units.Time, threshold float64) StaticResult {
	limit := units.Time(float64(refTime) * (1 + threshold))
	var best *StaticResult
	for i := range sweep {
		s := &sweep[i]
		if s.Time > limit {
			continue
		}
		if best == nil || s.Energy < best.Energy {
			best = s
		}
	}
	if best == nil {
		fastest := &sweep[0]
		for i := range sweep {
			if sweep[i].Time < fastest.Time {
				fastest = &sweep[i]
			}
		}
		return *fastest
	}
	return *best
}
