package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a timing may report beside its
// median, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// dist summarizes one timing: its median and the highest percentile in
// tailCandidates, up to a ceiling, that has at least ten samples beyond
// it.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"` // 0: too few samples for any tail
	Tail    float64 `json:"tail,omitempty"`
}

// summarize sorts xs in place and returns its distribution, with a tail
// percentile no higher than ceiling.
func summarize(xs []float64, ceiling float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = quantile(xs, 50)
	if p, ok := tailPercentile(len(xs), ceiling); ok {
		d.TailPct, d.Tail = p, quantile(xs, p)
	}
	return d
}

// quantile is the nearest-rank p-th percentile of sorted xs: the
// smallest sample with at least p% of the samples at or below it; 0 when
// there are no samples (a layer the run did not reach).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is ceil(p% of n), robust to p/100 not being exact in
// binary (99.9% of 10000 is rank 9990, not 9991).
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile picks the highest candidate percentile, at most
// ceiling, with at least ten of n samples beyond it.
func tailPercentile(n int, ceiling float64) (float64, bool) {
	for _, p := range tailCandidates {
		if p <= ceiling && beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// median of xs (copied, not reordered).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 50)
}

// rate is a closed loop's completion rate: operations completed over the
// wall time the loop ran.
func rate(completed int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed.Seconds()
}

// lateness is how late an open-loop generator sent each request: sent
// minus due, floored at zero (an early send is on time).
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if l := sent[i] - due[i]; l > 0 {
			out[i] = float64(l) / float64(time.Millisecond)
		}
	}
	return out
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other and may extend past the
// parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
