package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xpro"
)

// The tiered-storm shape: closed loop, one caller goroutine per CPU, each
// owning a shard of 12 subjects (two per case). Every subject is a
// resilience-armed engine planned onto a 3-tier chain at the solver's
// own placement and armed against seeded hub storms with framed
// transport, knobs scaled to its event period. Each subject checkpoints
// into its durable store every 100 events and runs one in-place
// RecoverFrom cycle every 1000. This is the k-tier walk, the collapse
// ladder and multiway planning: the same walk layer as cohort-faults in
// its other shape. It runs inside traced cohort-faults runs (a workload
// of its own did not fit the benchmark's time budget; see README.md).
const (
	tieredPerShard      = 12
	tieredCheckpointN   = 100
	tieredRecoverN      = 1000
	tieredHorizonEvents = 2000
	tieredReplaySubs    = 3
)

// tieredArm arms a subject's plan as the three-tier fault example does,
// with every knob scaled to the event period.
func tieredArm(rate float64, seed int64) *xpro.TierResilience {
	period := 1 / rate
	pol := xpro.DefaultResilience()
	pol.BreakerCooldownSeconds = 25 * period
	return &xpro.TierResilience{
		Policy:         pol,
		HubStorms:      3,
		HorizonSeconds: tieredHorizonEvents * period,
		Seed:           seed,
		Collapse: &xpro.TierCollapse{
			FailThreshold:      2,
			ProbeAfterSeconds:  10 * period,
			ProbeBackoffFactor: 2,
			MaxProbeSeconds:    120 * period,
			RecoverySuccesses:  1,
			ProbationEvents:    3,
		},
		Framed: true,
	}
}

// newTieredSubject builds, plans and arms subject i; tr (may be nil)
// records the planning span.
func newTieredSubject(c *caseData, i int, o opts, tr *tracer) (*subject, error) {
	cfg := xpro.Config{Case: c.sym, Resilience: xpro.DefaultResilience()}
	eng, err := xpro.New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plan, err := eng.PlanTiers(3)
	if err != nil {
		return nil, err
	}
	tr.add("setup.plan_tiers", t0, time.Now(), -1)
	s := &subject{name: fmt.Sprintf("s%04d", i), idx: i, c: c, eng: eng, cfg: cfg, rate: c.report.EventsPerSecond,
		store: xpro.NewDurableStore(), plan: plan}
	if err := plan.Arm(tieredArm(c.report.EventsPerSecond, channelSeed(i))); err != nil {
		return nil, err
	}
	for _, t := range plan.Assignment() {
		s.home = max(s.home, t)
	}
	return s, nil
}

// tieredRig drives armed plans closed loop and does the per-subject
// durable-state upkeep between calls.
type tieredRig struct {
	tr                   *tracer
	mu                   sync.Mutex // guards the upkeep figures below
	ckUS, ckBytes, recUS []float64
	peakStore            int
	checkErr             error
}

// run drives every shard with its own caller goroutine for dur: each
// caller walks its subjects round-robin and sends the next segment as
// soon as the previous answer is back.
func (r *tieredRig) run(name string, shards [][]*subject, dur time.Duration, rng *rand.Rand) *phase {
	seeds := make([]int64, len(shards))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	runtime.GC()
	heap := startHeapSampler()
	before := readSnap()
	parts := make([]*phase, len(shards))
	var wg sync.WaitGroup
	for k, shard := range shards {
		wg.Add(1)
		go func(k int, shard []*subject) {
			defer wg.Done()
			parts[k] = r.caller(shard, dur, rand.New(rand.NewSource(seeds[k])))
		}(k, shard)
	}
	wg.Wait()
	after := readSnap()
	p := &phase{name: name, dur: dur, wall: after.t.Sub(before.t), use: before.to(after), heapMB: heap.stopMB()}
	for _, q := range parts {
		p.events = append(p.events, q.events...)
		p.out = append(p.out, q.out...)
	}
	return p
}

func (r *tieredRig) caller(shard []*subject, dur time.Duration, rng *rand.Rand) *phase {
	p := &phase{}
	start := time.Now()
	for j := 0; time.Since(start) < dur; j++ {
		s := shard[j%len(shard)]
		seg := rng.Intn(len(s.c.test))
		t0 := time.Now()
		tres, err := s.plan.ClassifyResult(s.c.test[seg].Samples)
		t1 := time.Now()
		r.tr.add("tier.classify", t0, t1, int64(len(p.out)))
		p.events = append(p.events, event{subj: int32(s.idx), seg: int32(seg)})
		p.out = append(p.out, outcome{lat: t1.Sub(t0), res: tres.Result, tier: tres.Tier, err: err, done: true, probing: tres.Probing})
		s.served++
		if s.served%tieredCheckpointN == 0 {
			r.upkeep(s)
		}
	}
	return p
}

// upkeep checkpoints the subject and, every tieredRecoverN events,
// recovers it in place from its store: the tiered state must read the
// same before and after.
func (r *tieredRig) upkeep(s *subject) {
	size := s.store.SizeBytes()
	t0 := time.Now()
	err := s.eng.Checkpoint(s.store)
	t1 := time.Now()
	r.tr.add("recovery.checkpoint", t0, t1, -1)
	var recUS float64
	if err == nil && s.served%tieredRecoverN == 0 {
		var before, after xpro.TieredSubjectState
		if before, err = s.plan.TieredState(); err == nil {
			t2 := time.Now()
			_, err = s.eng.RecoverFrom(s.store)
			t3 := time.Now()
			r.tr.add("recovery.recover", t2, t3, -1)
			recUS = us(t3.Sub(t2))
			if err == nil {
				if after, err = s.plan.TieredState(); err == nil && fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
					err = checkFailed("%s: tiered state changed across RecoverFrom:\n before %+v\n after  %+v", s.name, before, after)
				}
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && r.checkErr == nil {
		r.checkErr = fmt.Errorf("%s upkeep: %w", s.name, err)
	}
	r.peakStore = max(r.peakStore, size)
	r.ckUS = append(r.ckUS, us(t1.Sub(t0)))
	r.ckBytes = append(r.ckBytes, float64(s.store.SizeBytes()))
	if recUS > 0 {
		r.recUS = append(r.recUS, recUS)
	}
}

// measureTiers runs the tiered-storm shape closed loop for 30% of the
// run's seconds, with every caller at once, as part of a traced
// cohort-faults run, and fills the tier layer, recovery.recover_us and
// setup.plan_tiers_ms. Its outputs are checked like cohort-faults': the
// tiered state is equal across every RecoverFrom cycle, and seeded
// subjects replay identically on fresh plans.
func measureTiers(res *result, e *env, o opts) error {
	callers := runtime.NumCPU()
	var subs []*subject
	shards := make([][]*subject, callers)
	for i := 0; i < callers*tieredPerShard; i++ {
		c := e.cases[(i/callers)%len(e.cases)]
		s, err := newTieredSubject(c, i, o, e.tr)
		if err != nil {
			return fmt.Errorf("tiered subject %d (%s): %w", i, c.sym, err)
		}
		if err := checkReport(c, s.name, s.eng); err != nil {
			return err
		}
		subs = append(subs, s)
		shards[i%callers] = append(shards[i%callers], s)
	}
	rig := &tieredRig{tr: e.tr}
	rng := rand.New(rand.NewSource(o.seed))
	p := rig.run("tiered", shards, time.Duration(0.3*o.seconds*float64(time.Second)), rng)
	if rig.checkErr != nil {
		return rig.checkErr
	}
	for _, k := range rng.Perm(len(subs))[:tieredReplaySubs] {
		if err := replayTiered(subs[k], o, p); err != nil {
			return err
		}
	}
	st := tally(subs, p)
	l := res.layer
	l["tier.classify_us"] = median(e.tr.durations("tier.classify"))
	l["tier.throughput_eps"] = float64(st.answered) / p.wall.Seconds()
	full, probes, retries := 0, 0, 0
	for i := range p.out {
		o := &p.out[i]
		if ans, deg, _ := o.classify(subs[p.events[i].subj].home); ans && !deg {
			full++
		}
		if o.probing {
			probes++
		}
		retries += o.res.Retries
	}
	l["tier.full_height_ratio"] = float64(full) / float64(st.answered)
	l["tier.probes"] = float64(probes)
	l["tier.hop_retries_per_event"] = float64(retries) / float64(st.answered)
	for _, s := range subs {
		for _, d := range s.plan.Log() {
			switch d.Op {
			case "degrade":
				l["tier.collapses"]++
			case "resolve":
				l["tier.recoveries"]++
			}
		}
	}
	l["recovery.recover_us"] = median(rig.recUS)
	l["setup.plan_tiers_ms"] = median(e.tr.durations("setup.plan_tiers")) / 1000
	res.notef("tiered side run: %d calls over %.2f s by %d callers, failed %d, degraded %d; tiered state equal across %d RecoverFrom cycles; %d subjects replay identically on fresh plans",
		st.attempted, p.wall.Seconds(), callers, st.failed, st.degraded, len(rig.recUS), tieredReplaySubs)
	return nil
}

// replayTiered replays one subject's calls on a fresh, identically armed
// plan without any checkpoint or recovery in between.
func replayTiered(s *subject, o opts, ps ...*phase) error {
	fresh, err := newTieredSubject(s.c, s.idx, o, nil)
	if err != nil {
		return err
	}
	n := 0
	for _, p := range ps {
		for i := range p.out {
			ev, want := &p.events[i], &p.out[i]
			if int(ev.subj) != s.idx {
				continue
			}
			n++
			got, gerr := fresh.plan.ClassifyResult(s.c.test[ev.seg].Samples)
			if got.Label != want.res.Label || got.Tier != want.tier || got.Mode != want.res.Mode ||
				math.Float64bits(got.SensorEnergyJoules) != math.Float64bits(want.res.SensorEnergyJoules) || errText(gerr) != errText(want.err) {
				return checkFailed("%s (%s) call %d (%s) replays as label %d tier %d mode %v err %v; served label %d tier %d mode %v err %v",
					s.name, s.c.sym, n, p.name, got.Label, got.Tier, got.Mode, gerr, want.res.Label, want.tier, want.res.Mode, want.err)
			}
		}
	}
	return nil
}
