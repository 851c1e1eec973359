package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{50, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarize([]float64{3, 1, 2, math.Inf(1)})
	if s.N != 4 || s.P50 != 2 || !math.IsInf(s.P90, 1) {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(30)},
		{at(20), at(40)},  // overlaps the first: union 10..40
		{at(90), at(120)}, // clipped to 90..100
		{at(-5), at(5)},   // clipped to 0..5
		{at(50), at(50)},  // empty
	}
	if got, want := selfTime(parent, children), 55*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v", got)
	}
	nested := []interval{{at(0), at(100)}, {at(10), at(20)}}
	if got := selfTime(parent, nested); got != 0 {
		t.Errorf("fully covered parent self time = %v", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := []int{3, 5, 2, 4, 6, 3, 2, 5, 4}
	if backlogGrowing(flat, 8) {
		t.Error("a flat backlog reads as growing")
	}
	ramp := []int{2, 10, 20, 30, 40, 50, 60, 70, 80}
	if !backlogGrowing(ramp, 8) {
		t.Error("a ramp reads as steady")
	}
	if backlogGrowing([]int{0, 100}, 8) {
		t.Error("two samples cannot show growth")
	}
	if backlogGrowing(ramp, 1000) {
		t.Error("growth within the slack reads as growing")
	}
}

func TestLadderSearch(t *testing.T) {
	knee := 7300.0
	pass := func(r float64) bool { return r <= knee }
	best, probed := ladderSearch(1000, 1e6, 6, pass)
	if best > knee || best < knee/math.Pow(2, 1.0/64)*0.999 {
		t.Errorf("best %v, knee %v (probed %v)", best, knee, probed)
	}
	// 1000, 2000, 4000, 8000 then six bisections.
	if len(probed) != 10 {
		t.Errorf("probed %d rungs: %v", len(probed), probed)
	}
	// A knee below the start rung is found by halving.
	best, _ = ladderSearch(1000, 1e6, 4, func(r float64) bool { return r <= 300 })
	if best > 300 || best < 250 {
		t.Errorf("knee below start: best %v", best)
	}
	// The ladder stops at maxRate even when every rung passes.
	best, probed = ladderSearch(1000, 5000, 3, func(float64) bool { return true })
	if best != 4000 || len(probed) != 3 {
		t.Errorf("capped ladder: best %v probed %v", best, probed)
	}
	if best, _ = ladderSearch(1000, 1e6, 3, func(float64) bool { return false }); best != 0 {
		t.Errorf("nothing passes: best %v", best)
	}
}

func TestWindowedQuantilesIgnoresOneBadWindow(t *testing.T) {
	var at []time.Duration
	var vals []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 2 {
				v *= 100 // one stalled window
			}
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			vals = append(vals, v)
		}
	}
	at = append(at, 9*time.Second) // a lone sample in a window too thin to count
	vals = append(vals, 1e9)
	p50, p90 := windowedQuantiles(at, vals, time.Second, 20)
	if p50 != 50 || p90 != 90 {
		t.Errorf("windowed p50/p90 = %v/%v, want 50/90", p50, p90)
	}
	p50, p90 = windowedQuantiles(at[:5], vals[:5], time.Second, 20)
	if p50 != 3 || p90 != 5 {
		t.Errorf("fallback p50/p90 = %v/%v, want 3/5", p50, p90)
	}
}

func TestSpeedNormalizedDividesByMeanReference(t *testing.T) {
	// A mean reference of 200 steps/s against a nominal 400 means the
	// host ran at half speed, so 20 ev/s measured is 40 ev/s at nominal
	// speed; a reference twice as fast halves the figure.
	if got := speedNormalized(20, []float64{100, 300, 150, 250}, 400); got != 40 {
		t.Errorf("speedNormalized = %v, want 40", got)
	}
	if got := speedNormalized(20, []float64{200, 600, 300, 500}, 400); got != 20 {
		t.Errorf("speedNormalized at twice the reference = %v, want 20", got)
	}
}
