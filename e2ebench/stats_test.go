package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}, {100, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 leaves only 9
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(c.n, 99.9)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v,%v, want %v,%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d p=%v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestTailPercentileCeiling(t *testing.T) {
	if p, ok := tailPercentile(100000, 99); p != 99 || !ok {
		t.Errorf("tailPercentile(100000, ceiling 99) = %v,%v, want 99", p, ok)
	}
	if p, ok := tailPercentile(60, 90); p != 75 || !ok {
		t.Errorf("tailPercentile(60, ceiling 90) = %v,%v, want 75", p, ok)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: summarize must sort
	}
	d := summarize(xs, 99)
	if d.N != 100 || d.P50 != 50 || d.TailPct != 90 || d.Tail != 90 {
		t.Fatalf("summarize(1..100) = %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}, 99); d.P50 != 2 || d.TailPct != 0 {
		t.Fatalf("summarize of 3 samples = %+v, want median only", d)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"none", nil, 100},
		{"disjoint", []interval{ms(10, 20), ms(30, 50)}, 70},
		{"overlapping", []interval{ms(10, 40), ms(30, 60)}, 50},
		{"nested", []interval{ms(10, 60), ms(20, 30)}, 50},
		{"past both ends", []interval{ms(-10, 10), ms(90, 130)}, 80},
		{"outside", []interval{ms(120, 130)}, 100},
		{"covering", []interval{ms(0, 100), ms(50, 70)}, 0},
		{"unsorted", []interval{ms(70, 80), ms(10, 20), ms(15, 25)}, 75},
	} {
		got := selfTime(ms(0, 100), c.children)
		if got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self = %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestClosedLoopRate(t *testing.T) {
	if got := rate(4000, 2*time.Second); got != 2000 {
		t.Errorf("rate(4000, 2s) = %v, want 2000", got)
	}
	if got := rate(10, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
}

func TestScheduleLateness(t *testing.T) {
	s := time.Millisecond
	due := []time.Duration{0, 100 * s, 200 * s, 300 * s}
	sent := []time.Duration{0, 99 * s, 250 * s, 303 * s}
	got := lateness(due, sent)
	want := []float64{0, 0, 50, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
