package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailLadder is the percentiles a timing may be quoted at, highest first,
// each with the share of samples beyond it written as one in oneIn.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{99.9, 1000}, {99.5, 200}, {99, 100}, {98, 50}, {95, 20}, {90, 10}, {75, 4}}

// highestPercentile is the highest percentile of tailLadder that still has
// at least ten samples beyond it among n; ok is false when not even the
// lowest rung does (fewer than 40 samples).
func highestPercentile(n int) (p float64, ok bool) {
	for _, rung := range tailLadder {
		if n >= 10*rung.oneIn {
			return rung.p, true
		}
	}
	return 0, false
}
