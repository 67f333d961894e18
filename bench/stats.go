package main

import (
	"math"
	"sort"
)

// dist is the summary the benchmark reports for a timing: the median, the
// quartiles, and the highest percentile that still has at least ten samples
// beyond it, with the sample count that justifies it.
type dist struct {
	N      int     `json:"n"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	// Tail is the value at percentile TailPct (0 when N < 20: no percentile
	// above the median has ten samples beyond it).
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailPercentiles are the candidates for dist.Tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

func summarize(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{N: len(s), P25: quantile(s, 0.25), Median: quantile(s, 0.5), P75: quantile(s, 0.75)}
	for _, p := range tailPercentiles {
		if float64(len(s))*(100-p)/100 >= 10 {
			d.TailPct, d.Tail = p, quantile(s, p/100)
			break
		}
	}
	return d
}

// relSpread is (max-min)/min of v: the largest relative disagreement between
// repeated measurements of one metric.
func relSpread(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}
