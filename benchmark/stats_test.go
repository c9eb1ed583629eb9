package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// seq returns 1..n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{0, 50, 0, false},
		{19, 50, 10, false}, // not even the median has ten samples beyond it
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := tailPercentile(seq(c.n))
		if pct != c.pct || !near(v, c.value) || ok != c.ok {
			t.Errorf("tailPercentile(1..%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, since that is the rule the
// acceptance check of run-to-run spread is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 11},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestMedianOverRoundsIgnoresOneBurst(t *testing.T) {
	// One round in ten hit by a scheduler burst moves the mean by a
	// tenth of the burst and the median not at all.
	rates := []float64{100, 101, 99, 100, 40, 100, 102, 98, 100, 101}
	if got := median(rates); !near(got, 100) {
		t.Errorf("median over rounds = %v, want 100", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, c := range []struct {
		name    string
		a, b    []float64
		higher  bool
		bound   float64
		rel     float64
		verdict string
	}{
		{"rate unchanged", steady(100), steady(100), true, 0.10, 0, verdictOK},
		{"rate down 5%", steady(100), steady(95), true, 0.10, 0.05, verdictOK},
		{"rate down 20%", steady(100), steady(80), true, 0.10, 0.20, verdictRegressed},
		{"rate up 20%", steady(100), steady(120), true, 0.10, -0.20, verdictOK},
		{"latency up 20%", steady(10), steady(12), false, 0.10, 0.20, verdictRegressed},
		{"latency down 20%", steady(10), steady(8), false, 0.10, -0.20, verdictOK},
		{"noisy parent", []float64{60, 80, 100, 120, 140}, steady(100), true, 0.10, 0, verdictUnresolved},
		{"noisy but every run better", []float64{60, 80, 100, 120, 140}, steady(200), true, 0.10, -1, verdictOK},
	} {
		rel, _, verdict := judge(c.a, c.b, c.higher, c.bound)
		if !near(rel, c.rel) || verdict != c.verdict {
			t.Errorf("%s: judge = %+.3f %s, want %+.3f %s", c.name, rel, verdict, c.rel, c.verdict)
		}
	}
}
