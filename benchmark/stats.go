package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates of the tail rule, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile applies the choosing-metrics rule "the highest
// percentile that has at least ten samples beyond it": it returns that
// percentile and its value (nearest-rank). With fewer than 20 samples
// not even the median qualifies; ok is then false and the median is
// returned so the caller still has a number to print beside the count.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	if len(xs) == 0 {
		return 50, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	pct = 50
	for _, p := range tailPercentiles {
		if n*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, without the rounding of 1−0.9
			pct, ok = p, true
		}
	}
	beyond := int(n*(100-pct)/100 + 1e-6)
	return pct, s[len(s)-beyond-1], ok
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is what the acceptance rule for run-to-run spread uses. Fewer
// than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// worsening is how much worse b is than a, as a share of a, given the
// metric's direction: positive means b is worse.
func worsening(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a parent (a) and a change (b) on one
// metric under the benchmark's bound. A spread wider than the bound on
// either side makes the pair unresolved — unless every run of b reads
// better than every run of a, which no amount of noise explains away.
// It returns how much worse b's median is, the wider of the two spreads
// and the verdict.
func judge(a, b []float64, higherIsBetter bool, bound float64) (rel, wider float64, verdict string) {
	rel = worsening(median(a), median(b), higherIsBetter)
	wider = math.Max(spread(a), spread(b))
	switch {
	case wider > bound && !allBetter(a, b, higherIsBetter):
		verdict = verdictUnresolved
	case rel > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return rel, wider, verdict
}

func allBetter(a, b []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worsening(x, y, higherIsBetter) >= 0 {
				return false
			}
		}
	}
	return true
}
