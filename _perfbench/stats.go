package main

import (
	"sort"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, with that percentile. With ten samples or fewer no such
// percentile exists and the maximum is returned as the 100th.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// passes converts the measurement budget into a fixed repetition count:
// the number of units of work of the given nominal length that fit in
// seconds, at least min. The count depends only on the budget, so runs with
// the same budget do identical work and their counters repeat exactly.
func passes(seconds int, nominal float64, min int) int {
	n := int(float64(seconds)/nominal + 0.5)
	if n < min {
		n = min
	}
	return n
}
