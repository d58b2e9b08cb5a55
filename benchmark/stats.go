package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of samples by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. No interpolation, so the reported value is always a
// latency that was actually observed.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does —
// the acceptance pipeline computes its spreads with that function.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		if n == 1 {
			return samples[0], samples[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a metric's bound is judged against.
func spread(samples []float64) float64 {
	m := median(samples)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(m)
}

// worsening returns by what share of base the value cur is worse, given
// the metric's direction; negative means it improved.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// suggestedBound is the rule BASELINE.md's bounds were derived with: three
// times the observed spread (so the spread stays under a third of the
// bound), never below 2%, never above the ceiling.
func suggestedBound(observedSpread, ceiling float64) float64 {
	b := 3 * observedSpread
	if b < 0.02 {
		b = 0.02
	}
	if b > ceiling {
		b = ceiling
	}
	return b
}
