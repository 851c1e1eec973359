package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xpro"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/experiments"
	"xpro/internal/wireless"
)

// caseData is one Table 1 case as the benchmark uses it: the plain
// engine whose construction paid for training, its test segments, and
// (once attachLabs ran) the independent reference built by
// internal/experiments.
type caseData struct {
	sym    string
	plain  *xpro.Engine
	test   []xpro.Segment
	report xpro.Report
	// lab and ref are the lab's engine set and its cross-end label for
	// every test segment; nil until attachLabs runs, and lab stays nil
	// when the run keeps only the labels.
	lab *experiments.EngineSet
	ref []int
}

// env is the state shared by a run's phases.
type env struct {
	o      opts
	cases  []*caseData
	trainS float64
	tr     *tracer // nil on an untraced run
}

// newEnv trains the six cases through xpro.New, timing each first
// construction. Nothing else runs meanwhile: the lab reference is
// trained later, by attachLabs, once the measured phases are over.
func newEnv(o opts) (*env, error) {
	e := &env{o: o}
	if o.trace {
		e.tr = newTracer()
	}
	for _, c := range xpro.Cases() {
		t0 := time.Now()
		eng, err := xpro.New(xpro.Config{Case: c.Symbol})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", c.Symbol, err)
		}
		t1 := time.Now()
		e.tr.add("setup.train", t0, t1, -1)
		e.trainS += t1.Sub(t0).Seconds()
		e.cases = append(e.cases, &caseData{sym: c.Symbol, plain: eng, test: eng.TestSet(), report: eng.Report()})
	}
	return e, nil
}

// attachLabs trains the internal/experiments reference for every case
// and attaches it (attachLab). It runs after the measured phases, so
// neither the timed set-up nor the phases share the CPUs with it, and
// uses one lab per CPU (a lab trains one case at a time) over a share
// of the cases each. With keep false only the reference labels are
// kept and the lab's engine sets are left to the collector.
func (e *env) attachLabs(keep bool) error {
	workers := min(runtime.NumCPU(), len(e.cases))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lab := experiments.NewLab()
			for i := w; i < len(e.cases) && errs[w] == nil; i += workers {
				errs[w] = e.cases[i].attachLab(lab)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !keep {
		for _, c := range e.cases {
			c.lab = nil
		}
	}
	return nil
}

// attachLab labels every test segment with the lab's cross-end system
// and checks that the engine's modeled per-event energy and delay equal
// the lab's for the same cut.
func (c *caseData) attachLab(lab *experiments.Lab) error {
	es, err := lab.Engines(c.sym, celllib.P90, wireless.Model2())
	if err != nil {
		return err
	}
	c.lab = es
	if len(es.Inst.Test.Segs) != len(c.test) {
		return checkFailed("%s: lab holds %d test segments, engine %d", c.sym, len(es.Inst.Test.Segs), len(c.test))
	}
	c.ref = make([]int, len(c.test))
	for i, s := range c.test {
		if c.ref[i], err = es.CrossEnd.Classify(biosig.Segment{Samples: s.Samples}); err != nil {
			return fmt.Errorf("lab reference %s segment %d: %w", c.sym, i, err)
		}
	}
	if got, want := c.report.SensorEnergyPerEvent, es.CrossEnd.EnergyPerEvent().SensorTotal(); got != want {
		return checkFailed("%s: engine energy/event %v J, lab %v J", c.sym, got, want)
	}
	if got, want := c.report.DelayPerEventSeconds, es.CrossEnd.DelayPerEvent().Total(); got != want {
		return checkFailed("%s: engine delay/event %v s, lab %v s", c.sym, got, want)
	}
	return nil
}

// checkReport checks that an engine built for a subject reports the
// same modeled per-event energy and delay as its case's plain engine:
// resilience, faults and recovery must not move the generated cut.
func checkReport(c *caseData, name string, eng *xpro.Engine) error {
	r := eng.Report()
	if r.SensorEnergyPerEvent != c.report.SensorEnergyPerEvent || r.DelayPerEventSeconds != c.report.DelayPerEventSeconds {
		return checkFailed("%s (%s): energy/delay %v J / %v s, plain engine %v J / %v s", name, c.sym,
			r.SensorEnergyPerEvent, r.DelayPerEventSeconds, c.report.SensorEnergyPerEvent, c.report.DelayPerEventSeconds)
	}
	return nil
}

// buildChunks builds n subjects in `chunks` equal timed chunks and
// returns the subjects and each chunk's wall time: the set-up is
// repeated several times within one run so setup_s can take a median.
func buildChunks[T any](n, chunks int, build func(i int) (T, error)) ([]T, []float64, error) {
	out := make([]T, 0, n)
	var times []float64
	for k := 0; k < chunks; k++ {
		lo, hi := k*n/chunks, (k+1)*n/chunks
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			s, err := build(i)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, s)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return out, times, nil
}

// setupSeconds is the run's set-up time: training (paid once per case)
// plus the chunked cohort build extrapolated from its median chunk, plus
// the one-off fleet wiring.
func setupSeconds(trainS float64, chunkS []float64, wiringS float64) float64 {
	return trainS + float64(len(chunkS))*median(chunkS) + wiringS
}

// span is one benchmark-recorded span around a public call.
type span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Event is the workload event index the span served (-1 for none).
	Event int64 `json:"event"`
}

// tracer keeps the benchmark's own spans in memory; they are written
// out once the run ends. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

func (t *tracer) add(name string, start, end time.Time, ev int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, start, end, ev})
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.End.Sub(s.Start)))
		}
	}
	return out
}

// write dumps the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// snap is a process resource reading.
type snap struct {
	t      time.Time
	cpu    time.Duration
	allocs uint64
	gcs    uint64
	pauses *metrics.Float64Histogram
}

// readSnap reads allocations from MemStats, which unlike
// runtime/metrics also counts tiny allocations (the -benchmem figure).
func readSnap() snap {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snap{t: time.Now(), cpu: cpu, allocs: m.Mallocs, gcs: uint64(m.NumGC), pauses: s[0].Value.Float64Histogram()}
}

// usage is the resource use between two readings.
type usage struct {
	wall, cpu   time.Duration
	allocs, gcs uint64
	pauseCounts []uint64
	pauseBounds []float64
}

func (a snap) to(b snap) usage {
	u := usage{wall: b.t.Sub(a.t), cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs, gcs: b.gcs - a.gcs, pauseBounds: b.pauses.Buckets}
	u.pauseCounts = make([]uint64, len(b.pauses.Counts))
	for i := range u.pauseCounts {
		u.pauseCounts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
	}
	return u
}

// add sums two usages (phases measured separately).
func (u usage) add(v usage) usage {
	if u.pauseCounts == nil {
		return v
	}
	out := u
	out.wall += v.wall
	out.cpu += v.cpu
	out.allocs += v.allocs
	out.gcs += v.gcs
	out.pauseCounts = append([]uint64(nil), u.pauseCounts...)
	for i := range out.pauseCounts {
		out.pauseCounts[i] += v.pauseCounts[i]
	}
	return out
}

// pauseP99us is the 99th percentile GC pause in the window (the upper
// bound of its histogram bucket), 0 without pauses.
func (u usage) pauseP99us() float64 {
	var total uint64
	for _, c := range u.pauseCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range u.pauseCounts {
		cum += c
		if cum >= need {
			hi := u.pauseBounds[i+1]
			if math.IsInf(hi, 1) {
				hi = u.pauseBounds[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// heapSampler polls the live heap (what the last GC found reachable)
// and keeps its maximum. The live heap, unlike the allocated total,
// does not depend on where in its GC cycle a poll lands.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	max  atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.max.Load() {
			h.max.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak heap in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.max.Load()) / (1 << 20)
}
