package main

import "sort"

// summary is the median and quartiles of one metric's samples.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and the exclusive-method quartiles of
// xs — the values Python's statistics.quantiles(xs, n=4) returns — so
// spreads printed here match the ones a reader recomputes from the
// report's samples.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: med, Q1: med, Q3: med}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3)}
}

// spread is the quartile distance as a share of the median (0 when the
// median is 0).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}
