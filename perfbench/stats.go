package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// values, and NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := ceilRank(p, n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// ceilRank is ceil(p·n), immune to p·n landing a rounding error above
// a whole number (0.9·100 = 90.00000000000001).
func ceilRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// tailQuantile is the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it among n, or 0.5 when even p90 has fewer.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if n-ceilRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// latencySummary holds the quantiles of one latency sample: failed
// events are +Inf, so they miss every limit.
type latencySummary struct {
	N        int
	P50, P90 float64
	TailP    float64 // the quantile tailQuantile chose
	Tail     float64
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	tp := tailQuantile(len(s))
	return latencySummary{N: len(s), P50: percentile(s, 0.5), P90: percentile(s, 0.9), TailP: tp, Tail: percentile(s, tp)}
}

// median returns the median of xs (mean of the middle pair for an even
// count), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowedQuantiles buckets samples by their time into windows of the
// given length and returns the median, over windows holding at least
// minN samples, of each window's p50 and p90. A stall confined to a few
// windows moves the result less than it moves the whole-run quantiles.
// With no qualifying window it falls back to the whole sample.
func windowedQuantiles(at []time.Duration, vals []float64, window time.Duration, minN int) (p50, p90 float64) {
	buckets := map[int64][]float64{}
	for i, t := range at {
		k := int64(t / window)
		buckets[k] = append(buckets[k], vals[i])
	}
	var m50, m90 []float64
	for _, b := range buckets {
		if len(b) < minN {
			continue
		}
		sort.Float64s(b)
		m50 = append(m50, percentile(b, 0.5))
		m90 = append(m90, percentile(b, 0.9))
	}
	if len(m50) == 0 {
		s := summarize(vals)
		return s.P50, s.P90
	}
	return median(m50), median(m90)
}

// interval is one recorded span's extent.
type interval struct{ start, end time.Time }

// selfTime is the parent's duration minus the part of it that the union
// of its children covers; children may overlap each other and stick out
// of the parent.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// backlogGrowing reports whether in-flight counts sampled evenly over a
// probe grew: the mean of the last third exceeds the mean of the first
// third by more than slack events. Fewer than three samples never grow.
func backlogGrowing(inflight []int, slack float64) bool {
	n := len(inflight) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(inflight[len(inflight)-n:])-mean(inflight[:n]) > slack
}

// ladderSearch finds the highest passing rate: it doubles from start
// until a rung fails (or maxRate is passed), halves instead when start
// itself fails, then bisects the last passing and first failing rungs
// geometrically `bisect` times. It returns 0 when nothing down to
// start/64 passes, and every rate probed in order.
func ladderSearch(start, maxRate float64, bisect int, probe func(rate float64) bool) (best float64, probed []float64) {
	try := func(r float64) bool {
		probed = append(probed, r)
		return probe(r)
	}
	lo, hi := 0.0, 0.0
	if try(start) {
		lo = start
		for r := 2 * start; ; r *= 2 {
			if r > maxRate {
				return lo, probed
			}
			if !try(r) {
				hi = r
				break
			}
			lo = r
		}
	} else {
		hi = start
		for r := start / 2; ; r /= 2 {
			if r < start/64 {
				return 0, probed
			}
			if try(r) {
				lo = r
				break
			}
			hi = r
		}
	}
	for i := 0; i < bisect; i++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}
