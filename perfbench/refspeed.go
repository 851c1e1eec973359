package main

import (
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts: on a shared machine the same fixed work runs
// up to a fifth faster or slower from one minute to the next, and the
// drift lasts longer than a run. A wall-clock throughput taken in one
// run therefore spreads across runs by about as much as the largest
// regression the benchmark may let through. The capacity phase measures
// the host's speed alongside: between its rounds the fleet stands idle
// and a fixed reference computation, owned by the benchmark and sharing
// no code with the program, runs on every CPU for refSlice. The phase's
// rate divided by its mean reference rate cancels the drift but not a
// change in the program's own cost.

// refSlice is how long one reference measurement runs.
const refSlice = 200 * time.Millisecond

// refNominalSteps is the reference rate (steps per second, summed over
// the CPUs) of the 2-CPU x86-64 container the baseline was taken on, at
// its median speed. Normalized rates are scaled by it, so they read as
// events per second on that machine.
const refNominalSteps = 494000.0

// refTableLen is the reference's lookup table length: 128 KiB, larger
// than a core's first-level cache and well inside its second level.
const refTableLen = 1 << 15

// refWork is one CPU's reference computation: a few float butterflies,
// as in the program's wavelet kernel, and a run of data-dependent
// branches over table lookups, as in its cell evaluation, pool and
// maps. Both parts matter. Over thirty capacity phases spread across
// several minutes, a float-only reference followed the program's rate
// worse than no correction at all (correlation 0.3–0.5); this mix
// followed it at 0.6–0.8. A walk over a table larger than the caches
// followed the neighbours' memory traffic instead and was noisier
// still. It allocates nothing after newRefWork, so it neither triggers
// nor assists a garbage collection.
type refWork struct {
	x     []float64
	table []uint32
	at    uint32
	sink  float64
}

func newRefWork() *refWork {
	w := &refWork{x: make([]float64, 128), table: make([]uint32, refTableLen)}
	for k := range w.table {
		w.table[k] = uint32(k*2654435761) ^ uint32(k>>3)
	}
	return w
}

// step does one unit of reference work.
func (w *refWork) step() {
	for i := range w.x {
		w.x[i] = float64(i&63)*0.015625 + w.sink*1e-9
	}
	for h := len(w.x) / 2; h >= 8; h /= 2 {
		for i := 0; i < h; i++ {
			a, b := w.x[2*i], w.x[2*i+1]
			w.x[i], w.x[h+i] = (a+b)*0.7071067811865476, (a-b)*0.7071067811865476
		}
	}
	w.sink = w.x[3]
	j := w.at
	for k := uint32(0); k < 512; k++ {
		v := w.table[(j^k)&(refTableLen-1)]
		if v&1 == 0 {
			j += v >> 3
		} else {
			j ^= v << 2
		}
	}
	w.at = j
}

// refMeter runs the reference computation on one goroutine per CPU.
type refMeter struct{ work []*refWork }

func newRefMeter(cpus int) *refMeter {
	m := &refMeter{}
	for i := 0; i < cpus; i++ {
		m.work = append(m.work, newRefWork())
	}
	return m
}

// rate runs the reference on every CPU for about d and returns the
// steps done per second of CPU time, summed over the CPUs. Each
// goroutine holds its OS thread and is timed by that thread's CPU
// clock, so the time a garbage collection or another of the program's
// goroutines takes from it does not count: the rate follows the speed
// of the CPUs, not what else runs in the process.
func (m *refMeter) rate(d time.Duration) float64 {
	rates := make([]float64, len(m.work))
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range m.work {
		wg.Add(1)
		go func(i int, w *refWork) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			n := 0
			for time.Since(start) < d {
				for k := 0; k < 8; k++ {
					w.step()
				}
				n += 8
			}
			if cpu := threadCPU() - c0; cpu > 0 {
				rates[i] = float64(n) / cpu.Seconds()
			}
		}(i, w)
	}
	wg.Wait()
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total
}

// speedNormalized is a capacity phase's throughput at the nominal host
// speed: its answered events per second of round time, times nominal
// over the mean reference rate. Both are whole-phase figures, not taken
// round by round: from one slice to the next the host's speed and the
// program's rate vary independently (a garbage collection of a large
// heap alone moves a round's rate by a fifth), and only the drift over
// many seconds is shared.
func speedNormalized(rate float64, ref []float64, nominal float64) float64 {
	return rate * nominal / mean(ref)
}
