// Package stats provides the small set of descriptive statistics the
// benchmark harness needs.
package stats

import (
	"encoding/json"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary is a running set of descriptive statistics with an explicit empty
// state. The bare Mean/Min/Max/Percentile helpers return 0 for empty input,
// which silently poisons aggregated summaries (a link that carried nothing
// looks like one with zero delay); Summary keeps Count so consumers — and
// its own JSON form — can tell "no samples" from a genuine zero.
type Summary struct {
	Count int64
	Sum   float64
	Min   float64 // undefined when Count == 0
	Max   float64 // undefined when Count == 0
}

// Add folds one sample into the summary.
func (s *Summary) Add(x float64) {
	if s.Count == 0 || x < s.Min {
		s.Min = x
	}
	if s.Count == 0 || x > s.Max {
		s.Max = x
	}
	s.Count++
	s.Sum += x
}

// Empty reports whether the summary holds no samples.
func (s Summary) Empty() bool { return s.Count == 0 }

// Mean returns the arithmetic mean, or 0 for an empty summary (check Empty
// to distinguish).
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// MarshalJSON emits {"count":0} for an empty summary — no fabricated zero
// min/max/mean fields — and the full statistics otherwise.
func (s Summary) MarshalJSON() ([]byte, error) {
	if s.Count == 0 {
		return []byte(`{"count":0}`), nil
	}
	return json.Marshal(struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		Min   float64 `json:"min"`
		Max   float64 `json:"max"`
		Mean  float64 `json:"mean"`
	}{s.Count, s.Sum, s.Min, s.Max, s.Mean()})
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
