package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xpro"
)

// cohort-faults: open loop with the cohort-clean arrival model, but
// every subject is stateful and faulted. Subjects rotate through the
// flaky, bursty, outage, corrupt and hub-storm fault scenarios (seeded
// per subject, over faultHorizon) with the default integrity layer and
// the adaptive re-cut controller; each journals every event into its
// own durable store and compacts it with a checkpoint every ten modeled
// seconds. The fleet runs the default overload protection with a
// 10/60/30% alert/interactive/batch mix. Nominal is 6 subjects
// (≈103 ev/s), peak 12 (≈206 ev/s), then a closed-loop capacity phase
// over the 12 (throughput_eps). The 2-end resilient walk, faults and
// framing, the adaptive controller and the generator it re-runs,
// admission and journal writes all sit on the event path here.
const (
	faultsNominal = 6
	faultsPeak    = 12
	// checkpointModeledS is the modeled time between compactions.
	checkpointModeledS = 10
	// faultsCapMult sets the capacity phase's work: the peak cohort's
	// events at this multiple of its modeled rate over capShare of the
	// run, about what two workers serve in that time.
	faultsCapMult = 2
)

// faultHorizon is the fault plans' horizon in modeled seconds: the
// timeline a nominal subject's events span over the nominal, peak and
// capacity phases (every event advances its engine's modeled clock by
// one event period), so the faults cover the whole run.
func faultHorizon(seconds float64) float64 {
	return seconds * (2*openShare + faultsCapMult*capShare)
}

var faultScenarios = []string{"flaky", "bursty", "outage", "corrupt", "hub-storm"}

// checkpointer compacts subjects' stores off the collectors, so a
// checkpoint waiting on the engine's lock never delays a result.
type checkpointer struct {
	ch   chan *subject
	done chan struct{}
	// read after stop
	us, bytes []float64
	peakStore int
	err       error
}

func startCheckpointer(tr *tracer, n int) *checkpointer {
	// Requests arrive every checkpointModeledS of a subject's events;
	// four per subject is more than can be outstanding.
	c := &checkpointer{ch: make(chan *subject, 4*n), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for s := range c.ch {
			c.peakStore = max(c.peakStore, s.store.SizeBytes())
			t0 := time.Now()
			err := s.eng.Checkpoint(s.store)
			t1 := time.Now()
			if err != nil {
				if c.err == nil {
					c.err = fmt.Errorf("checkpoint %s: %w", s.name, err)
				}
				continue
			}
			tr.add("recovery.checkpoint", t0, t1, -1)
			c.us = append(c.us, us(t1.Sub(t0)))
			c.bytes = append(c.bytes, float64(s.store.SizeBytes()))
		}
	}()
	return c
}

func (c *checkpointer) stop() error {
	close(c.ch)
	<-c.done
	return c.err
}

// faultCohort is one built cohort-faults fleet. A traced run builds a
// second, fresh cohort for its traced pass, so both passes serve the
// same events on the same modeled timelines.
type faultCohort struct {
	subs  []*subject
	net   *xpro.Network
	fleet *xpro.Fleet
	ck    *checkpointer
	rig   *fleetRig
	once  sync.Once
	err   error
}

func newFaultCohort(e *env, o opts, workers int) (*faultCohort, []float64, float64, error) {
	subs, chunkS, err := buildChunks(faultsPeak, 3, func(i int) (*subject, error) {
		c := e.cases[i%len(e.cases)]
		t0 := time.Now()
		s, err := newFaultSubject(c, i, o)
		if err != nil {
			return nil, err
		}
		if err := s.eng.EnableRecovery(s.store); err != nil {
			return nil, err
		}
		e.tr.add("setup.new", t0, time.Now(), -1)
		return s, checkReport(c, s.name, s.eng)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	net, fleet, err := serveSubjects(subs, xpro.ServeOptions{Workers: workers, Overload: xpro.DefaultOverload()})
	if err != nil {
		return nil, nil, 0, err
	}
	wiring := time.Since(t0).Seconds()
	ck := startCheckpointer(e.tr, len(subs))
	// One event in flight per capacity caller: a second one would wait
	// in the queue for a whole event (≈3.5 ms), close to the overload
	// controller's 5 ms target delay, and batch events would be shed.
	rig := &fleetRig{fleet: fleet, subs: subs, workers: workers, window: 1, after: func(s *subject) {
		if s.served%int(math.Max(1, math.Round(checkpointModeledS*s.rate))) == 0 {
			ck.ch <- s
		}
	}}
	return &faultCohort{subs: subs, net: net, fleet: fleet, ck: ck, rig: rig}, chunkS, wiring, nil
}

// close drains the fleet, then stops the checkpointer; later calls
// return the first call's result.
func (c *faultCohort) close() error {
	c.once.Do(func() {
		c.fleet.Close()
		c.err = c.ck.stop()
	})
	return c.err
}

func runFaults(o opts) (*result, error) {
	res := newResult()
	e, err := newEnv(o)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	a, chunkS, wiring, err := newFaultCohort(e, o, workers)
	if err != nil {
		return nil, err
	}
	defer a.close()
	res.notef("set-up: train %.2f s, build chunks %v s, wiring %.3f s", e.trainS, chunkS, wiring)
	rng := rand.New(rand.NewSource(o.seed))
	phaseDur := time.Duration(o.seconds * openShare * float64(time.Second))
	capDur := time.Duration(o.seconds * capShare * float64(time.Second))
	nomEv := schedule(rng, a.subs[:faultsNominal], 1, phaseDur, mixedPriority)
	peakEv := schedule(rng, a.subs, 1, phaseDur, mixedPriority)
	capEv := schedule(rng, a.subs, faultsCapMult, capDur, mixedPriority)
	nom := a.rig.run("nominal", nomEv, phaseDur)
	peak := a.rig.run("peak", peakEv, phaseDur)
	capa := a.rig.capacity("capacity", capEv)
	if err := a.close(); err != nil {
		return nil, err
	}
	// Output check: the admitted events, replayed serially per subject
	// on fresh engines with the same configuration, give bit-equal
	// label, mode, energy and error sequences.
	if _, err := checkReplay(res, "untraced", a, nom, peak, capa); err != nil {
		return nil, err
	}
	fillOpenLoop(res, res.e2e, "untraced", setupSeconds(e.trainS, chunkS, wiring), a.subs, nom, peak, capa)
	res.notef("cohort-faults checks passed: every admitted event replays bit-equal (label, mode, energy, error) on a fresh engine; every engine's modeled energy and delay equal its case's plain engine")
	if !o.trace {
		return res, nil
	}

	b, _, _, err := newFaultCohort(e, o, workers)
	if err != nil {
		return nil, err
	}
	defer b.close()
	b.rig.tr = e.tr
	before, cBefore := readEngineCounters(b.subs), sumCounters(b.subs)
	tnom := b.rig.run("nominal", nomEv, phaseDur)
	tpeak := b.rig.run("peak", peakEv, phaseDur)
	// The per-layer counters cover the open-loop phases.
	after, cAfter := readEngineCounters(b.subs), sumCounters(b.subs)
	tcapa := b.rig.capacity("capacity", capEv)
	b.rig.tr = nil
	brownS := brownoutSeconds(b.fleet.BrownoutLog())
	res.layer["fleet.sustainable_eps"] = b.rig.ladder(rng, o, mixedPriority, res)
	if err := b.close(); err != nil {
		return nil, err
	}
	service, err := checkReplay(res, "traced", b, tnom, tpeak, tcapa)
	if err != nil {
		return nil, err
	}
	subs := b.subs
	traced := map[string]float64{}
	fillOpenLoop(res, traced, "traced", setupSeconds(e.trainS, chunkS, wiring), subs, tnom, tpeak, tcapa)
	fillTracedE2E(res, traced)
	if err := fillFleetLayers(res, e, b.net, subs, workers, tnom, tpeak, before, after); err != nil {
		return nil, err
	}
	l := res.layer
	l["fleet.worker_busy_ratio"] = (service[0] + service[1]).Seconds() / (float64(workers) * (tnom.wall + tpeak.wall).Seconds())
	fillAdmit(res, tnom, tpeak)
	l["admit.brownout_s"] = brownS
	fillTransport(res, subs, tnom, tpeak)
	ran := 0
	for _, p := range []*phase{tnom, tpeak} {
		for i := range p.out {
			if p.out[i].done && !p.out[i].refused {
				ran++
			}
		}
	}
	d := func(name string) float64 { return cAfter[name] - cBefore[name] }
	l["adaptive.evals_per_event"] = d("xpro_recut_evals_total") / float64(ran)
	l["adaptive.generate_per_event"] = d("xpro_generate_total") / float64(ran)
	if g := d("xpro_generate_total"); g > 0 {
		l["adaptive.mincut_per_generate"] = d("xpro_generate_mincut_runs_total") / g
	}
	if ev := d("xpro_recut_evals_total"); ev > 0 {
		l["adaptive.useful_ratio"] = d("xpro_recut_swaps_total") / ev
	}
	l["adaptive.rollbacks"] = d("xpro_recut_rollbacks_total")
	l["recovery.journal_records_per_event"] = d("xpro_journal_records_total") / float64(ran)
	l["recovery.checkpoint_us"] = median(b.ck.us)
	l["recovery.checkpoint_bytes"] = median(b.ck.bytes)
	l["recovery.store_peak_bytes"] = float64(b.ck.peakStore)
	if err := measureTiers(res, e, o); err != nil {
		return nil, err
	}
	if err := e.attachLabs(true); err != nil {
		return nil, err
	}
	if err := layerReplay(res, e, segmentsUsed(subs, tnom, tpeak)); err != nil {
		return nil, err
	}
	return finishTrace(res, e, "cohort-faults")
}

// newFaultSubject builds subject i of cohort-faults with its own seeded
// fault plan. The same (i, run seed) always builds the same subject.
func newFaultSubject(c *caseData, i int, o opts) (*subject, error) {
	seed := channelSeed(i)
	fp, err := xpro.FaultScenario(faultScenarios[i%len(faultScenarios)], seed, faultHorizon(o.seconds))
	if err != nil {
		return nil, err
	}
	cfg := xpro.Config{Case: c.sym, FaultPlan: fp, Integrity: xpro.DefaultIntegrity(), Adaptive: xpro.DefaultAdaptive()}
	eng, err := xpro.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("subject %d (%s): %w", i, c.sym, err)
	}
	return &subject{name: fmt.Sprintf("s%04d", i), idx: i, c: c, eng: eng, cfg: cfg, rate: c.report.EventsPerSecond,
		store: xpro.NewDurableStore()}, nil
}

// checkReplay runs the replay check on a closed cohort's nominal, peak
// and capacity phases. Comparison stops at the fleet's first brownout
// entry, so the check requires it to reach past the nominal phase: a
// program slow enough to brown out at the nominal rate fails the run
// rather than leaving its answers unchecked. It returns the replay's
// serial service time per phase.
func checkReplay(res *result, label string, c *faultCohort, nom, peak, capa *phase) ([]time.Duration, error) {
	log := c.fleet.BrownoutLog()
	service, compared, err := replayFaults(c.subs, brownoutCutoff(log), nom, peak, capa)
	if err != nil {
		return nil, err
	}
	admitted := 0
	for i := range nom.out {
		if nom.out[i].done && !nom.out[i].refused {
			admitted++
		}
	}
	if compared < admitted {
		return nil, checkFailed("%s: the fleet browned out before the nominal phase ended, so the replay compared only %d events, fewer than the nominal phase's %d admitted",
			label, compared, admitted)
	}
	res.notef("%s replay check compared %d admitted events (nominal phase admitted %d); brownout transitions: %d", label, compared, admitted, len(log))
	return service, nil
}

// replayFaults replays every admitted event of the phases, per subject
// in serving order, on a fresh engine built from the same config, and
// compares label, mode, energy and error. A fleet brownout forces every
// engine onto its cheap rung on host timing, which a serial replay
// cannot reproduce, so comparison stops at the first answer received
// at or after cutoffS (the first brownout entry on the telemetry
// clock; +Inf without one). It returns the serial service time summed
// per phase and how many events were compared.
func replayFaults(subs []*subject, cutoffS float64, ps ...*phase) ([]time.Duration, int, error) {
	service := make([]time.Duration, len(ps))
	var wg sync.WaitGroup
	errs := make([]error, len(subs))
	times := make([][]time.Duration, len(subs))
	compared := make([]int, len(subs))
	for si := range subs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			times[si] = make([]time.Duration, len(ps))
			compared[si], errs[si] = replaySubject(subs[si], cutoffS, ps, times[si])
		}(si)
		if (si+1)%runtime.NumCPU() == 0 {
			wg.Wait()
		}
	}
	wg.Wait()
	total := 0
	for si := range subs {
		if errs[si] != nil {
			return nil, 0, errs[si]
		}
		total += compared[si]
		for pi := range ps {
			service[pi] += times[si][pi]
		}
	}
	return service, total, nil
}

func replaySubject(s *subject, cutoffS float64, ps []*phase, service []time.Duration) (int, error) {
	fresh, err := xpro.New(s.cfg)
	if err != nil {
		return 0, err
	}
	n, comparing := 0, true
	for pi, p := range ps {
		for i := range p.out {
			ev, o := &p.events[i], &p.out[i]
			if int(ev.subj) != s.idx || !o.done || o.refused {
				continue
			}
			t0 := time.Now()
			got, gerr := fresh.ClassifyResult(s.c.test[ev.seg].Samples)
			service[pi] += time.Since(t0)
			comparing = comparing && o.upS < cutoffS
			if !comparing {
				continue
			}
			n++
			if got.Label != o.res.Label || got.Mode != o.res.Mode ||
				math.Float64bits(got.SensorEnergyJoules) != math.Float64bits(o.res.SensorEnergyJoules) || errText(gerr) != errText(o.err) {
				return n, checkFailed("%s (%s) admitted event %d (%s #%d) replays as label %d mode %v energy %v err %v; served label %d mode %v energy %v err %v",
					s.name, s.c.sym, n, p.name, i, got.Label, got.Mode, got.SensorEnergyJoules, gerr, o.res.Label, o.res.Mode, o.res.SensorEnergyJoules, o.err)
			}
		}
	}
	return n, nil
}

// brownoutCutoff is the telemetry time of the fleet's first brownout
// entry, +Inf when it never browned out.
func brownoutCutoff(log []xpro.BrownoutEvent) float64 {
	for _, ev := range log {
		if ev.Kind == "enter" {
			return ev.AtSeconds
		}
	}
	return math.Inf(1)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sumCounters sums the engine counters the adaptive and recovery layers
// keep, over every subject.
func sumCounters(subs []*subject) map[string]float64 {
	names := []string{"xpro_recut_evals_total", "xpro_generate_total", "xpro_generate_mincut_runs_total",
		"xpro_recut_swaps_total", "xpro_recut_rollbacks_total", "xpro_journal_records_total"}
	out := map[string]float64{}
	for _, s := range subs {
		for _, n := range names {
			out[n] += s.eng.Observer().MetricValue(n)
		}
	}
	return out
}

// brownoutSeconds sums the browned-out intervals the fleet logged.
func brownoutSeconds(log []xpro.BrownoutEvent) float64 {
	total, enter := 0.0, -1.0
	for _, ev := range log {
		switch {
		case ev.Kind == "enter":
			enter = ev.AtSeconds
		case enter >= 0:
			total += ev.AtSeconds - enter
			enter = -1
		}
	}
	return total
}

// fillAdmit fills the per-class shed ratios of the traced phases.
func fillAdmit(res *result, ps ...*phase) {
	attempted := map[xpro.Priority]float64{}
	shed := map[xpro.Priority]float64{}
	for _, p := range ps {
		for i := range p.out {
			pr := p.events[i].prio
			attempted[pr]++
			var se *xpro.ShedError
			if errors.As(p.out[i].err, &se) {
				shed[pr]++
			}
		}
	}
	for pr, key := range map[xpro.Priority]string{xpro.PriorityBatch: "batch", xpro.PriorityInteractive: "interactive", xpro.PriorityAlert: "alert"} {
		if attempted[pr] > 0 {
			res.layer["admit.shed_ratio."+key] = shed[pr] / attempted[pr]
		}
	}
}

// fillTransport fills the modeled transport layer from the answered
// events' provenance.
func fillTransport(res *result, subs []*subject, ps ...*phase) {
	var n, retries, lost, corrupt, imputed, deadline float64
	for _, p := range ps {
		for i := range p.out {
			o := &p.out[i]
			if ans, _, _ := o.classify(subs[p.events[i].subj].home); !ans {
				continue
			}
			n++
			retries += float64(o.res.Retries)
			lost += float64(o.res.LostTransfers)
			corrupt += float64(o.res.CorruptFrames)
			imputed += float64(o.res.ImputedValues)
			if o.res.DeadlineExceeded {
				deadline++
			}
		}
	}
	if n == 0 {
		return
	}
	l := res.layer
	l["transport.retries_per_event"] = retries / n
	l["transport.lost_per_event"] = lost / n
	l["transport.corrupt_frames_per_event"] = corrupt / n
	l["transport.imputed_values_per_event"] = imputed / n
	l["transport.deadline_exceeded_ratio"] = deadline / n
}
