package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xpro"
	"xpro/internal/telemetry"
)

// subject is one wearer: an engine and what the benchmark needs to
// rebuild and drive it.
type subject struct {
	name string
	idx  int
	c    *caseData
	eng  *xpro.Engine
	cfg  xpro.Config
	rate float64 // modeled events per second (Report().EventsPerSecond)

	store *xpro.DurableStore // nil without durable state
	// Tiered subjects: the armed plan and the home placement's chain
	// height (the tier a full-height answer reaches).
	plan *xpro.TierPlan
	home int

	// served counts events the collector saw complete; only the
	// subject's collector goroutine touches it.
	served int
}

// event is one scheduled arrival.
type event struct {
	due  time.Duration // offset from the phase start
	subj int32
	seg  int32
	prio xpro.Priority
}

// outcome is what became of one event.
type outcome struct {
	lat, lag time.Duration
	res      xpro.Result
	tier     int
	err      error
	done     bool
	// refused is set when the fleet turned the event away at submission
	// (shed, full queue): it never reached the engine.
	refused bool
	// probing marks a tiered call let through a collapsed hop to test
	// whether it healed.
	probing bool
	// upS is when the answer was received, on the program's telemetry
	// uptime clock (the clock its brownout log uses).
	upS float64
}

// answered reports whether the event produced a label; degraded whether
// that label came from below the full path; failed covers refusals and
// errors. Quarantined (suspect-data) and tier-degraded answers still
// carry a label and are degraded, not failed.
func (o *outcome) classify(home int) (answered, degraded, failed bool) {
	var tde *xpro.TierDegradedError
	switch {
	case !o.done:
		return false, false, false
	case o.err == nil:
		return true, o.res.Mode != xpro.ModeFull || o.tier < home, false
	case errors.Is(o.err, xpro.ErrSuspectData), errors.As(o.err, &tde):
		return true, true, false
	default:
		return false, false, true
	}
}

// schedule builds an open-loop arrival list: every subject emits
// periodically at mult times its modeled rate for dur, from a seeded
// phase and with each gap jittered by up to ±5%. Segments are drawn
// uniformly from the subject's test set.
func schedule(rng *rand.Rand, subs []*subject, mult float64, dur time.Duration, prio func(*rand.Rand) xpro.Priority) []event {
	var evs []event
	for _, s := range subs {
		period := float64(time.Second) / (s.rate * mult)
		t := rng.Float64() * period
		for t < float64(dur) {
			evs = append(evs, event{due: time.Duration(t), subj: int32(s.idx), seg: int32(rng.Intn(len(s.c.test))), prio: prio(rng)})
			t += period * (0.95 + 0.1*rng.Float64())
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

func interactive(*rand.Rand) xpro.Priority { return xpro.PriorityInteractive }

// mixedPriority draws 10% alert, 60% interactive, 30% batch.
func mixedPriority(r *rand.Rand) xpro.Priority {
	switch x := r.Float64(); {
	case x < 0.1:
		return xpro.PriorityAlert
	case x < 0.7:
		return xpro.PriorityInteractive
	default:
		return xpro.PriorityBatch
	}
}

// phase is one measured open-loop run.
type phase struct {
	name     string
	events   []event
	out      []outcome
	inflight []int // submitted minus completed, sampled every inflightEvery of schedule time
	wall     time.Duration
	dur      time.Duration // scheduled length
	use      usage
	heapMB   float64
	// Capacity phase only: each round's answered events per second and
	// the reference rates measured around the rounds.
	rates, ref []float64
}

const inflightEvery = 20 * time.Millisecond

// fleetRig drives a fleet open loop. Subjects are named in index order,
// so subject i is shard i and is served by worker i % workers in FIFO
// order; one collector per worker therefore receives results in the
// order they complete.
type fleetRig struct {
	fleet   *xpro.Fleet
	subs    []*subject
	workers int
	// window is how many events each capacity caller keeps in flight
	// (at least one).
	window int
	tr     *tracer
	// after, when set, runs after each completed event of a subject
	// (checkpoint scheduling), on the one goroutine that receives that
	// subject's answers in the phase.
	after func(s *subject)
}

type pending struct {
	i   int
	ch  <-chan xpro.FleetResult
	sub time.Time
}

// run plays events against the fleet on their schedule regardless of
// how fast results come back, and waits for every accepted event.
func (r *fleetRig) run(name string, events []event, dur time.Duration) *phase {
	p := &phase{name: name, events: events, out: make([]outcome, len(events)), dur: dur}
	ctx := context.Background()
	// Each collector's queue holds every event of the phase in the worst
	// case, so the generator never blocks on a slow collector.
	queues := make([]chan pending, r.workers)
	for w := range queues {
		queues[w] = make(chan pending, len(events))
	}
	var completed, submitted atomic.Int64
	// Every phase starts from a collected heap, so its garbage
	// collections fall at the same points of the schedule in every run.
	runtime.GC()
	heap := startHeapSampler()
	before := readSnap()
	start := before.t
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(q chan pending) {
			defer wg.Done()
			for pd := range q {
				res := <-pd.ch
				now := time.Now()
				ev := &events[pd.i]
				o := &p.out[pd.i]
				o.lat = now.Sub(start) - ev.due
				o.res, o.err, o.done, o.upS = res.Result, res.Err, true, telemetry.Uptime()
				completed.Add(1)
				r.tr.add("fleet.wait", pd.sub, now, int64(pd.i))
				if r.after != nil {
					s := r.subs[ev.subj]
					s.served++
					r.after(s)
				}
			}
		}(queues[w])
	}
	next := time.Duration(0)
	for i := range events {
		ev := &events[i]
		for ev.due >= next {
			p.inflight = append(p.inflight, int(submitted.Load()-completed.Load()))
			next += inflightEvery
		}
		if d := ev.due - time.Since(start); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		s := r.subs[ev.subj]
		t0 := time.Now()
		ch, err := r.fleet.SubmitRequest(ctx, xpro.FleetRequest{Subject: s.name, Samples: s.c.test[ev.seg].Samples, Priority: ev.prio})
		t1 := time.Now()
		r.tr.add("fleet.submit", t0, t1, int64(i))
		o := &p.out[i]
		o.lag = t0.Sub(start) - ev.due
		if err != nil {
			o.err, o.done, o.refused = err, true, true
			continue
		}
		submitted.Add(1)
		queues[s.idx%r.workers] <- pending{i, ch, t0}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	after := readSnap()
	p.wall = after.t.Sub(start)
	p.use = before.to(after)
	p.heapMB = heap.stopMB()
	return p
}

// A run measures --seconds in three phases: openShare of it at the
// nominal rate, openShare at the peak rate (both open loop), and then
// the closed-loop capacity phase. The capacity phase's fixed work is
// the peak cohort's events over capShare of the run at a multiple of
// their modeled rate that two workers serve in about that time on the
// machine the baseline was taken on; its capRounds+1 reference slices
// take most of the rest.
const (
	openShare = 0.175
	capShare  = 0.45
)

// capRounds is how many rounds the capacity phase's events are served
// in; the host's speed is measured before the first round and after
// each (refspeed.go).
const capRounds = 16

// capacity serves events closed loop: one caller per fleet worker, each
// submitting the events of its worker's subjects in schedule order and
// keeping r.window of them in flight, so the worker always has the
// next event at hand. Due times are ignored. The work is fixed by the
// event list, not by the clock, so the subjects' modeled timelines are
// the same at any speed and the phase's wall time is set by the program
// alone. The events are served in capRounds rounds, each caller serving
// the next share of its events and the round ending when both are done;
// between rounds the fleet is idle while the reference computation
// measures the host's speed. p.rates holds each round's answered events
// per second, p.use the rounds' summed resource use and p.ref the
// reference rates measured around the rounds.
func (r *fleetRig) capacity(name string, events []event) *phase {
	p := &phase{name: name, events: events, out: make([]outcome, len(events))}
	shards := make([][]int, r.workers)
	for i := range events {
		w := int(events[i].subj) % r.workers
		shards[w] = append(shards[w], i)
	}
	meter := newRefMeter(r.workers)
	runtime.GC()
	start := time.Now()
	p.ref = append(p.ref, meter.rate(refSlice))
	for round := 0; round < capRounds; round++ {
		before := readSnap()
		var wg sync.WaitGroup
		for _, shard := range shards {
			lo, hi := round*len(shard)/capRounds, (round+1)*len(shard)/capRounds
			wg.Add(1)
			go func(idx []int) {
				defer wg.Done()
				r.serveShard(p, idx)
			}(shard[lo:hi])
		}
		wg.Wait()
		after := readSnap()
		u := before.to(after)
		p.use = p.use.add(u)
		answered := 0
		for _, shard := range shards {
			lo, hi := round*len(shard)/capRounds, (round+1)*len(shard)/capRounds
			for _, i := range shard[lo:hi] {
				if a, _, _ := p.out[i].classify(r.subs[events[i].subj].home); a {
					answered++
				}
			}
		}
		p.rates = append(p.rates, float64(answered)/u.wall.Seconds())
		p.ref = append(p.ref, meter.rate(refSlice))
	}
	p.wall = time.Since(start)
	p.dur = p.wall
	return p
}

// serveShard is one capacity caller: it serves the given events in
// order, keeping up to r.window of them in flight.
func (r *fleetRig) serveShard(p *phase, idx []int) {
	type call struct {
		i  int
		ch <-chan xpro.FleetResult
		t0 time.Time
	}
	ctx := context.Background()
	window := max(1, r.window)
	inflight := make([]call, 0, window)
	collect := func(c call) {
		res := <-c.ch
		now := time.Now()
		r.tr.add("fleet.call", c.t0, now, int64(c.i))
		o := &p.out[c.i]
		o.lat = now.Sub(c.t0)
		o.res, o.err, o.done, o.upS = res.Result, res.Err, true, telemetry.Uptime()
		if r.after != nil {
			s := r.subs[p.events[c.i].subj]
			s.served++
			r.after(s)
		}
	}
	for _, i := range idx {
		if len(inflight) == window {
			collect(inflight[0])
			inflight = append(inflight[:0], inflight[1:]...)
		}
		ev := &p.events[i]
		s := r.subs[ev.subj]
		t0 := time.Now()
		ch, err := r.fleet.SubmitRequest(ctx, xpro.FleetRequest{Subject: s.name, Samples: s.c.test[ev.seg].Samples, Priority: ev.prio})
		if err != nil {
			o := &p.out[i]
			o.err, o.done, o.refused = err, true, true
			continue
		}
		inflight = append(inflight, call{i, ch, t0})
	}
	for _, c := range inflight {
		collect(c)
	}
}

// phaseStats are the end-to-end figures of one or more phases.
type phaseStats struct {
	attempted, answered, degraded, failed, correct int
	quarantined                                    int
	energyJ                                        float64
	lat                                            latencySummary
	// w50 and w90 are the latency quantiles the metrics report: medians
	// over one-second windows of due time (windowedQuantiles).
	w50, w90  float64
	lagMs     []float64
	failKinds map[string]int
}

// tally summarizes phases; energy falls back to the subject's modeled
// per-event figure on paths whose Result carries none.
func tally(subs []*subject, ps ...*phase) phaseStats {
	var st phaseStats
	var lat []float64
	var at []time.Duration
	for _, p := range ps {
		for i := range p.out {
			o, ev := &p.out[i], &p.events[i]
			s := subs[ev.subj]
			st.attempted++
			st.lagMs = append(st.lagMs, ms(o.lag))
			ans, deg, fail := o.classify(s.home)
			if fail {
				if st.failKinds == nil {
					st.failKinds = map[string]int{}
				}
				msg := o.err.Error()
				if len(msg) > 60 {
					msg = msg[:60]
				}
				st.failKinds[msg]++
				st.failed++
				// A failed event counts as answered after the whole
				// phase: it misses any latency limit, and the quantiles
				// stay finite when many fail.
				lat = append(lat, ms(p.dur))
				at = append(at, ev.due)
				continue
			}
			lat = append(lat, ms(o.lat))
			at = append(at, ev.due)
			if !ans {
				continue
			}
			st.answered++
			if deg {
				st.degraded++
			}
			if errors.Is(o.err, xpro.ErrSuspectData) {
				st.quarantined++
			}
			if o.res.Label == s.c.test[ev.seg].Label {
				st.correct++
			}
			if e := o.res.SensorEnergyJoules; e > 0 {
				st.energyJ += e
			} else {
				st.energyJ += s.c.report.SensorEnergyPerEvent
			}
		}
	}
	st.lat = summarize(lat)
	st.w50, st.w90 = windowedQuantiles(at, lat, time.Second, 50)
	return st
}

// offeredRate is a schedule's event rate over its length.
func offeredRate(events []event, dur time.Duration) float64 {
	return float64(len(events)) / dur.Seconds()
}

// ladder finds sustainable_eps over the whole cohort: the peak schedule
// scaled up and down, 40% of the run's seconds spread over about six
// rungs. It runs untraced, after the measured phases.
func (r *fleetRig) ladder(rng *rand.Rand, o opts, prio func(*rand.Rand) xpro.Priority, res *result) float64 {
	base := 0.0
	for _, s := range r.subs {
		base += s.rate
	}
	probeDur := time.Duration(0.4 * o.seconds / 6 * float64(time.Second))
	best, _ := ladderSearch(base, 64*base, 4, func(rate float64) bool {
		return r.ladderProbe(rng, rate/base, probeDur, prio, res)
	})
	return best
}

// ladderProbe runs one rung, the peak schedule at mult times its rate:
// pass means p90 (failures count as missing it) within the limit, at most 1%
// of events failed, and no growing backlog.
func (r *fleetRig) ladderProbe(rng *rand.Rand, mult float64, dur time.Duration, prio func(*rand.Rand) xpro.Priority, res *result) bool {
	evs := schedule(rng, r.subs, mult, dur, prio)
	p := r.run("ladder", evs, dur)
	st := tally(r.subs, p)
	slack := math.Max(16, 0.02*float64(len(evs)))
	growing := backlogGrowing(p.inflight, slack)
	pass := st.lat.P90 <= latencyLimitMs && float64(st.failed) <= 0.01*float64(st.attempted) && !growing
	res.notef("  ladder rung %8.1f ev/s: p90 %.3g ms, failed %d/%d, backlog growing %v -> pass %v",
		offeredRate(evs, dur), st.lat.P90, st.failed, st.attempted, growing, pass)
	return pass
}
