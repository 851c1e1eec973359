package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"xpro"
)

// cohort-clean: open loop, fleet only, no faults. Plain cross-end
// engines, one per subject, round-robin over the six Table 1 cases,
// each emitting at its own modeled rate. Nominal is 120 subjects
// (≈2.06k ev/s), peak 300 (≈5.15k ev/s); a closed-loop capacity phase
// over the peak cohort follows (throughput_eps), and the traced run's
// sustainable_eps ladder scales the peak cohort's rates. Time goes to
// the kernels, cell evaluation, the engine wrapper and the pool;
// faults, adaptive re-cut, tiers and recovery are bypassed, which makes
// this the control workload for changes to those.
const (
	cleanNominal = 120
	cleanPeak    = 300
	// cleanQueueDepth is the fleet's per-worker queue. At the
	// program's default (64) the peak phase refused events ("queue
	// full") when a garbage collection of the 300 engines' heap stalled
	// the workers: 50, 0 and 14 of 18–25k peak events in three runs at
	// --seconds 14. 256 events is about one latency limit of work at
	// two workers' capacity, so a refused event would have missed the
	// limit anyway.
	cleanQueueDepth = 256
	// cleanCapMult sets the capacity phase's work: the peak cohort's
	// events at this multiple of its modeled rate over capShare of the
	// run, about what two workers serve in that time.
	cleanCapMult = 2
)

func runClean(o opts) (*result, error) {
	res := newResult()
	e, err := newEnv(o)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	subs, chunkS, err := buildChunks(cleanPeak, 3, func(i int) (*subject, error) {
		c := e.cases[i%len(e.cases)]
		t0 := time.Now()
		eng, err := xpro.New(xpro.Config{Case: c.sym})
		if err != nil {
			return nil, err
		}
		e.tr.add("setup.new", t0, time.Now(), -1)
		s := &subject{name: fmt.Sprintf("s%04d", i), idx: i, c: c, eng: eng, rate: c.report.EventsPerSecond}
		return s, checkReport(c, s.name, eng)
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	net, fleet, err := serveSubjects(subs, xpro.ServeOptions{Workers: workers, QueueDepth: cleanQueueDepth})
	if err != nil {
		return nil, err
	}
	wiring := time.Since(t0).Seconds()
	defer fleet.Close()
	res.notef("set-up: train %.2f s, build chunks %v s, wiring %.3f s", e.trainS, chunkS, wiring)

	// Four events in flight per capacity caller keep each worker's queue
	// from running dry while its caller wakes to submit the next.
	rig := &fleetRig{fleet: fleet, subs: subs, workers: workers, window: 4}
	rng := rand.New(rand.NewSource(o.seed))
	poll := startPoller(net)
	phaseDur := time.Duration(o.seconds * openShare * float64(time.Second))
	capDur := time.Duration(o.seconds * capShare * float64(time.Second))
	// The traced pass serves the very same events as the untraced one.
	nomEv := schedule(rng, subs[:cleanNominal], 1, phaseDur, interactive)
	peakEv := schedule(rng, subs, 1, phaseDur, interactive)
	capEv := schedule(rng, subs, cleanCapMult, capDur, interactive)
	nom, peak := rig.run("nominal", nomEv, phaseDur), rig.run("peak", peakEv, phaseDur)
	capa := rig.capacity("capacity", capEv)
	var tnom, tpeak, tcapa *phase
	var before, after engineCounters
	if o.trace {
		rig.tr = e.tr
		// The per-layer counters cover the open-loop phases.
		before = readEngineCounters(subs)
		tnom, tpeak = rig.run("nominal", nomEv, phaseDur), rig.run("peak", peakEv, phaseDur)
		after = readEngineCounters(subs)
		tcapa = rig.capacity("capacity", capEv)
		rig.tr = nil
		res.layer["fleet.sustainable_eps"] = rig.ladder(rng, o, interactive, res)
	}
	polls := poll.stop()

	// Output check: every served label equals the lab's cross-end label
	// for the same segment. The lab trains only now, after every
	// measured phase.
	if err := e.attachLabs(o.trace); err != nil {
		return nil, err
	}
	for _, p := range []*phase{nom, peak, capa, tnom, tpeak, tcapa} {
		if p == nil {
			continue
		}
		for i := range p.out {
			o, ev := &p.out[i], &p.events[i]
			s := subs[ev.subj]
			if ans, _, _ := o.classify(0); ans && o.res.Label != s.c.ref[ev.seg] {
				return nil, checkFailed("%s %s event %d (%s segment %d): label %d, lab reference %d",
					p.name, s.name, i, s.c.sym, ev.seg, o.res.Label, s.c.ref[ev.seg])
			}
		}
	}
	fillOpenLoop(res, res.e2e, "untraced", setupSeconds(e.trainS, chunkS, wiring), subs, nom, peak, capa)
	res.notef("cohort-clean checks passed: every served label equals the lab reference; every engine's modeled energy and delay equal the lab's")
	if !o.trace {
		return res, nil
	}

	traced := map[string]float64{}
	fillOpenLoop(res, traced, "traced", setupSeconds(e.trainS, chunkS, wiring), subs, tnom, tpeak, tcapa)
	fillTracedE2E(res, traced)
	fleet.Close()
	if err := fillFleetLayers(res, e, net, subs, workers, tnom, tpeak, before, after); err != nil {
		return nil, err
	}
	polls.fill(res)
	if err := layerReplay(res, e, segmentsUsed(subs, tnom, tpeak)); err != nil {
		return nil, err
	}
	return finishTrace(res, e, "cohort-clean")
}

// serveSubjects builds the network over the subjects and serves it.
func serveSubjects(subs []*subject, so xpro.ServeOptions) (*xpro.Network, *xpro.Fleet, error) {
	engines := make(map[string]*xpro.Engine, len(subs))
	for _, s := range subs {
		engines[s.name] = s.eng
	}
	net, err := xpro.NewNetwork(engines)
	if err != nil {
		return nil, nil, err
	}
	fleet, err := net.Serve(so)
	if err != nil {
		return nil, nil, err
	}
	return net, fleet, nil
}

// fillOpenLoop writes the end-to-end metrics of an open-loop workload
// into dst from its nominal and peak phases and its closed-loop
// capacity phase. The label names the pass in the report lines.
func fillOpenLoop(res *result, dst map[string]float64, label string, setupS float64, subs []*subject, nom, peak, capa *phase) {
	sn, sp, all, sc := tally(subs, nom), tally(subs, peak), tally(subs, nom, peak), tally(subs, capa)
	use := nom.use.add(peak.use)
	dst["setup_s"] = setupS
	dst["latency_p50_ms"] = sn.w50
	dst["latency_p90_ms"] = sn.w90
	dst["latency_p50_ms.peak"] = sp.w50
	dst["latency_p90_ms.peak"] = sp.w90
	raw := float64(sc.answered) / capa.use.wall.Seconds()
	dst["throughput_eps"] = speedNormalized(raw, capa.ref, refNominalSteps)
	if label == "untraced" {
		res.layer["fleet.capacity_raw_eps"] = raw
		res.layer["host.ref_steps_per_s"] = mean(capa.ref)
	}
	dst["cpu_us_per_event"] = us(use.cpu) / float64(all.answered)
	dst["allocs_per_event"] = float64(use.allocs) / float64(all.answered)
	dst["peak_heap_mb"] = math.Max(nom.heapMB, peak.heapMB)
	dst["answered_ratio"] = float64(all.answered) / float64(all.attempted)
	dst["full_ratio"] = float64(all.answered-all.degraded) / float64(all.answered)
	dst["sensor_energy_uj_per_event"] = all.energyJ / float64(all.answered) * 1e6
	dst["label_accuracy"] = float64(all.correct) / float64(all.answered)
	res.attempted += all.attempted + sc.attempted
	res.failed += all.failed + sc.failed
	for _, x := range []struct {
		name string
		st   phaseStats
		p    *phase
	}{{"nominal", sn, nom}, {"peak", sp, peak}} {
		res.notef("%s %s: %d events over %.2f s (offered %.1f ev/s): whole-phase p50 %.3f ms, p90 %.3f ms, p%g %.3f ms (n=%d); windowed p50 %.3f ms, p90 %.3f ms; failed %d, degraded %d",
			label, x.name, x.st.attempted, x.p.wall.Seconds(), offeredRate(x.p.events, x.p.dur), x.st.lat.P50, x.st.lat.P90,
			100*x.st.lat.TailP, x.st.lat.Tail, x.st.lat.N, x.st.w50, x.st.w90, x.st.failed, x.st.degraded)
	}
	res.notef("%s capacity (closed loop, %d callers): %d events in %.3f s of rounds, %.1f CPU us/event; failed %d, degraded %d; %.1f ev/s (by round %.1f); reference mean %.0f steps/s (by slice %.0f)",
		label, runtime.NumCPU(), sc.attempted, capa.use.wall.Seconds(),
		us(capa.use.cpu)/float64(max(1, sc.answered)), sc.failed, sc.degraded, raw, capa.rates, mean(capa.ref), capa.ref)
	res.notef("%s failed_ratio %.6g (by error %q), degraded_ratio %.6g, GC cycles nominal %d peak %d", label,
		float64(all.failed)/float64(all.attempted), all.failKinds, float64(all.degraded)/float64(all.answered), nom.use.gcs, peak.use.gcs)
}

// fillTracedE2E records the traced pass's ungated end-to-end figures and
// traced minus untraced for every end-to-end figure. Set-up runs once
// per run, before either pass, so its overhead is reported as 0.
func fillTracedE2E(res *result, traced map[string]float64) {
	for _, d := range ungatedDefs {
		res.layer["ungated."+d.name] = traced[d.name]
	}
	for _, d := range allE2E() {
		v := traced[d.name] - res.e2e[d.name]
		if d.name == "setup_s" {
			v = 0
		}
		res.layer[overheadPrefix+d.name] = v
	}
}

// poller is the 1 Hz operator poll: the network SLO report, health and
// a metrics scrape, timed from outside.
type poller struct {
	stopc chan struct{}
	done  chan struct{}
	slo   []float64
	text  []float64
}

func startPoller(net *xpro.Network) *poller {
	p := &poller{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-tk.C:
				t0 := time.Now()
				_, _ = net.SLOReport() // timed for its cost; the report itself is not checked
				_ = net.Health()
				t1 := time.Now()
				_ = net.Observer().WriteMetricsText(io.Discard)
				t2 := time.Now()
				p.slo = append(p.slo, us(t1.Sub(t0)))
				p.text = append(p.text, us(t2.Sub(t1)))
			}
		}
	}()
	return p
}

// pollTimes are the poll durations gathered by a stopped poller.
type pollTimes struct{ slo, text []float64 }

func (p *poller) stop() pollTimes {
	close(p.stopc)
	<-p.done
	return pollTimes{p.slo, p.text}
}

func (t pollTimes) fill(res *result) {
	if len(t.slo) == 0 {
		return
	}
	res.layer["telemetry.slo_report_us"] = median(t.slo)
	res.layer["telemetry.metrics_text_us"] = median(t.text)
	res.notef("operator polls: %d", len(t.slo))
}

// engineCounters sums per-engine counters the traced pass reads.
type engineCounters struct {
	classifyWallS float64
	spans         uint64
	sloEvents     uint64
}

func readEngineCounters(subs []*subject) engineCounters {
	var c engineCounters
	for _, s := range subs {
		for _, m := range s.eng.Observer().Metrics() {
			if m.Name == "xpro_classify_wall_seconds" {
				c.classifyWallS += m.Sum
			}
		}
		_, rec, _ := s.eng.Observer().TraceStats()
		c.spans += rec
		c.sloEvents += s.eng.SLOReport().TotalEvents
	}
	return c
}

// fillFleetLayers fills the fleet, engine-counter, runtime and
// load-generator layers from the traced phases, and replays the traced
// nominal events through a single-worker fleet as the serial baseline.
func fillFleetLayers(res *result, e *env, net *xpro.Network, subs []*subject, workers int, nom, peak *phase, before, after engineCounters) error {
	l := res.layer
	sub := summarize(e.tr.durations("fleet.submit"))
	l["fleet.submit_us"] = sub.P50
	soj := summarize(e.tr.durations("fleet.wait"))
	l["fleet.sojourn_us.p50"], l["fleet.sojourn_us.p90"] = soj.P50, soj.P90
	wall := nom.wall + peak.wall
	if busy := after.classifyWallS - before.classifyWallS; busy > 0 {
		l["fleet.worker_busy_ratio"] = busy / (float64(workers) * wall.Seconds())
	}
	perWorker := make([]float64, workers)
	for i := range peak.out {
		if peak.out[i].done {
			perWorker[int(peak.events[i].subj)%workers]++
		}
	}
	mx, tot := 0.0, 0.0
	for _, v := range perWorker {
		mx, tot = math.Max(mx, v), tot+v
	}
	l["fleet.shard_skew"] = mx / (tot / float64(workers))
	st := tally(subs, nom, peak)
	l["engine.trace_spans_per_event"] = float64(after.spans-before.spans) / float64(st.answered)
	l["engine.slo_observed_ratio"] = float64(after.sloEvents-before.sloEvents) / float64(st.answered)
	l["engine.quality_rejected_ratio"] = float64(st.quarantined) / float64(st.answered)
	use := nom.use.add(peak.use)
	l["runtime.gc_cycles_per_kevent"] = float64(use.gcs) / (float64(st.answered) / 1000)
	l["runtime.gc_pause_p99_us"] = use.pauseP99us()
	lag := summarize(st.lagMs)
	l["loadgen.lag_ms.p90"] = lag.P90
	mxLag := 0.0
	for _, v := range st.lagMs {
		mxLag = math.Max(mxLag, v)
	}
	l["loadgen.lag_ms.max"] = mxLag
	eps, err := serialEPS(net, subs, nom.events)
	if err != nil {
		return err
	}
	l["fleet.serial_eps"] = eps
	return nil
}

// serialEPS replays events back to back through a single-worker fleet:
// the single-threaded baseline of the same job.
func serialEPS(net *xpro.Network, subs []*subject, events []event) (float64, error) {
	if len(events) > 4000 {
		events = events[:4000]
	}
	fleet, err := net.Serve(xpro.ServeOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	defer fleet.Close()
	reqs := make([]xpro.FleetRequest, 0, 64)
	t0 := time.Now()
	n := 0
	for i := 0; i < len(events); i += 64 {
		reqs = reqs[:0]
		for _, ev := range events[i:min(i+64, len(events))] {
			s := subs[ev.subj]
			reqs = append(reqs, xpro.FleetRequest{Subject: s.name, Samples: s.c.test[ev.seg].Samples, Priority: ev.prio})
		}
		for _, r := range fleet.ClassifyBatch(context.Background(), reqs) {
			if errors.Is(r.Err, xpro.ErrOverloaded) {
				return 0, fmt.Errorf("serial replay refused an event: %w", r.Err)
			}
			n++
		}
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
