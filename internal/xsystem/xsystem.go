// Package xsystem simulates a complete XPro wearable computing system:
// a sensor node executing the in-sensor analytic part in Q16.16
// hardware cells, a wireless link, and an aggregator executing the
// in-aggregator part in software (Fig. 2, right).
//
// The simulator does two jobs:
//
//   - Functional execution: Classify pushes a real segment through the
//     partitioned pipeline, computing fixed-point values on the sensor
//     and float64 values on the aggregator, so the cross-end engine's
//     classification output can be validated against the pure-software
//     ensemble.
//
//   - Cost accounting: per-event energy (Eqs. 1–3) split into sensing,
//     compute, transmit and receive on both ends, and per-event delay
//     split into front-end compute, wireless and back-end compute — the
//     three stacked components of Fig. 10. Sensor cells are independent
//     asynchronous hardware units, so the front-end delay is the
//     critical path of the in-sensor subgraph; the aggregator is a
//     single CPU, so back-end delays add.
package xsystem

import (
	"errors"
	"fmt"
	"math"
	"time"

	"xpro/internal/aggregator"
	"xpro/internal/battery"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// System is a fully configured cross-end engine instance.
type System struct {
	Graph     *topology.Graph
	Ens       *ensemble.Ensemble
	HW        *sensornode.Hardware
	CPU       aggregator.CPU
	Link      wireless.Model
	Placement partition.Placement
	// SampleRateHz sets the event rate (events/s = rate / segment len).
	SampleRateHz float64

	// Metrics receives the system's runtime counters; nil falls back to
	// telemetry.Default(). Set it before serving traffic.
	Metrics *telemetry.Registry
	// Tracer, when set (or when a process default is installed with
	// telemetry.SetDefaultTracer), records one span per executed cell
	// during Classify: cell name, end, measured wall time, and the
	// modeled per-activation energy and delay.
	Tracer *telemetry.Tracer

	problem *partition.Problem
	order   []topology.CellID
	// priced memoizes the per-event figures of the placement and link
	// the system was built with (New, WithPlacement). A copy that swaps
	// either reprices on every call.
	priced *pricing
	// program is the pipeline compiled for the placement the system was
	// built with (New, WithPlacement); nil without an ensemble. A copy
	// that swaps the placement (or graph, ensemble or hardware) compiles
	// afresh on every call.
	program *program
}

// pricing is the memoized DelayPerEvent and EnergyPerEvent of one
// (placement, link).
type pricing struct {
	placement partition.Placement
	link      wireless.Model
	delay     Delay
	energy    Energy
}

// build fills the pricing memo for the system's current placement and
// link, and compiles the program for its placement.
func (s *System) build() *System {
	s.priced = &pricing{
		placement: s.Placement,
		link:      s.Link,
		delay:     s.DelayOf(s.Placement),
		energy:    s.computeEnergy(),
	}
	s.program = nil
	if s.Ens != nil {
		s.program = compile(s)
	}
	return s
}

// memo returns the memoized figures when they still describe s.
func (s *System) memo() *pricing {
	m := s.priced
	if m == nil || m.link != s.Link || len(m.placement) != len(s.Placement) ||
		(len(s.Placement) > 0 && &m.placement[0] != &s.Placement[0]) {
		return nil
	}
	return m
}

// metrics returns the effective registry (never nil-dereferenced:
// telemetry handles tolerate nil).
func (s *System) metrics() *telemetry.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return telemetry.Default()
}

// tracer returns the effective span sink; usually nil (tracing is
// opt-in).
func (s *System) tracer() *telemetry.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return telemetry.DefaultTracer()
}

// CellCost returns the modeled per-activation energy (J) and delay (s)
// of cell id on the end the placement assigned it to.
func (s *System) CellCost(id topology.CellID) (energyJ, delayS float64) {
	if s.Placement.OnSensor(id) {
		return s.HW.Energy(id), s.HW.Delay(id)
	}
	cc := s.CPU.CellCost(s.Graph.Cells[id].Spec)
	return cc.Energy, cc.Delay
}

// New builds a system for a trained ensemble, a characterized topology
// and a placement. proc selects the sensor process node.
//
// ens may be nil for cost-analysis-only systems (e.g. multi-class
// topologies built with topology.BuildMulti): energy, delay and lifetime
// work as usual, while Classify and Accuracy return an error.
func New(g *topology.Graph, ens *ensemble.Ensemble, proc celllib.Process, link wireless.Model, cpu aggregator.CPU, p partition.Placement, sampleRateHz float64) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("xsystem: %w", err)
	}
	if len(p) != len(g.Cells) {
		return nil, fmt.Errorf("xsystem: placement covers %d cells, graph has %d", len(p), len(g.Cells))
	}
	if err := cpu.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	hw := sensornode.Characterize(g, proc)
	sensing, err := sensornode.SensingEnergyPerEvent(g.SegLen, sampleRateHz)
	if err != nil {
		return nil, fmt.Errorf("xsystem: %w", err)
	}
	prob := &partition.Problem{
		Graph:         g,
		HW:            hw,
		Link:          link,
		SensingEnergy: sensing,
		AggDelay: func(id topology.CellID) float64 {
			return cpu.CellCost(g.Cells[id].Spec).Delay
		},
	}
	prob.KeepSTGraph()
	s := &System{
		Graph:        g,
		Ens:          ens,
		HW:           hw,
		CPU:          cpu,
		Link:         link,
		Placement:    p,
		SampleRateHz: sampleRateHz,
		problem:      prob,
		order:        order,
	}
	return s.build(), nil
}

// Problem exposes the pricing problem used by this system (shared with
// the Automatic XPro Generator).
func (s *System) Problem() *partition.Problem { return s.problem }

// WithPlacement returns a copy of the system executing the same trained
// pipeline under a different cut. The copy shares the immutable pieces
// (graph, ensemble, hardware characterization, pricing problem) and
// owns its placement, so it is independent of the receiver — this is
// the hot-swap primitive of the adaptive repartitioning controller:
// installing the returned system is one pointer store.
func (s *System) WithPlacement(p partition.Placement) (*System, error) {
	if len(p) != len(s.Graph.Cells) {
		return nil, fmt.Errorf("xsystem: placement covers %d cells, graph has %d", len(p), len(s.Graph.Cells))
	}
	if !s.problem.GroupedOK(p) {
		return nil, errors.New("xsystem: placement splits a source-reader group across ends")
	}
	ns := *s
	ns.Placement = append(partition.Placement(nil), p...)
	return ns.build(), nil
}

// EventsPerSecond returns the segment-analysis rate.
func (s *System) EventsPerSecond() float64 {
	ev, _ := sensornode.EventsPerSecond(s.Graph.SegLen, s.SampleRateHz)
	return ev
}

// Energy is the per-event energy breakdown of both ends.
type Energy struct {
	// Sensor node (Eq. 1): sensing + compute + wireless tx/rx.
	Sensing       float64
	SensorCompute float64
	SensorTx      float64
	SensorRx      float64
	// Aggregator: software compute + its radio.
	AggCompute float64
	AggRx      float64
	AggTx      float64
}

// SensorTotal is the sensor node's per-event energy.
func (e Energy) SensorTotal() float64 {
	return e.Sensing + e.SensorCompute + e.SensorTx + e.SensorRx
}

// SensorWireless is the sensor's communication share.
func (e Energy) SensorWireless() float64 { return e.SensorTx + e.SensorRx }

// AggregatorTotal is the aggregator's per-event energy.
func (e Energy) AggregatorTotal() float64 { return e.AggCompute + e.AggRx + e.AggTx }

// EnergyPerEvent returns the full per-event energy breakdown.
func (s *System) EnergyPerEvent() Energy {
	if m := s.memo(); m != nil {
		return m.energy
	}
	return s.computeEnergy()
}

func (s *System) computeEnergy() Energy {
	g := s.Graph
	p := s.Placement
	var e Energy
	e.Sensing = s.problem.SensingEnergy
	for i, end := range p {
		if end == partition.Sensor {
			e.SensorCompute += s.HW.Energy(topology.CellID(i))
		}
	}
	for i, end := range p {
		if end == partition.Aggregator {
			e.AggCompute += s.CPU.CellCost(g.Cells[i].Spec).Energy
		}
	}
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		tr := s.Link.Cost(g.SourceBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		crosses := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		tr := s.Link.Cost(tg.Bits)
		if fromS {
			e.SensorTx += tr.TxEnergy
			e.AggRx += tr.RxEnergy
		} else {
			e.SensorRx += tr.RxEnergy
			e.AggTx += tr.TxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		tr := s.Link.Cost(wireless.ValueBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	return e
}

// Delay is the per-event delay breakdown of Fig. 10.
type Delay struct {
	// FrontEnd is the critical path through the in-sensor cells
	// (asynchronous hardware units run concurrently once data-ready).
	FrontEnd float64
	// Wireless is the serialized air time of everything crossing the
	// link for one event.
	Wireless float64
	// BackEnd is the sequential software time on the aggregator CPU.
	BackEnd float64
}

// Total is the end-to-end per-event delay.
func (d Delay) Total() float64 { return d.FrontEnd + d.Wireless + d.BackEnd }

// DelayPerEvent returns the delay breakdown for the system's placement.
func (s *System) DelayPerEvent() Delay {
	if m := s.memo(); m != nil {
		return m.delay
	}
	return s.DelayOf(s.Placement)
}

// DelayOf computes the delay breakdown for an arbitrary placement — the
// delay model handed to the Automatic XPro Generator.
func (s *System) DelayOf(p partition.Placement) Delay {
	g := s.Graph
	var d Delay

	// Front end: longest path over in-sensor cells (intra-end
	// communication is free, §2.2).
	finish := make([]float64, len(g.Cells))
	for _, id := range s.order {
		if !p.OnSensor(id) {
			continue
		}
		start := 0.0
		for _, e := range g.InEdges(id) {
			if e.From == topology.SourceID || !p.OnSensor(e.From) {
				continue
			}
			if finish[e.From] > start {
				start = finish[e.From]
			}
		}
		finish[id] = start + s.HW.Delay(id)
		if finish[id] > d.FrontEnd {
			d.FrontEnd = finish[id]
		}
	}

	// Wireless: all crossing payloads, serialized on the link.
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		d.Wireless += s.Link.Cost(g.SourceBits).Delay
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				d.Wireless += s.Link.Cost(tg.Bits).Delay
				break
			}
		}
	}
	if p.OnSensor(g.Output) {
		d.Wireless += s.Link.Cost(wireless.ValueBits).Delay
	}

	// Back end: sequential software execution.
	for i, end := range p {
		if end == partition.Aggregator {
			d.BackEnd += s.CPU.CellCost(g.Cells[i].Spec).Delay
		}
	}
	return d
}

// MaxSustainableEventRate returns the highest steady-state event rate
// the placed system can pipeline, in events/s. With events overlapping,
// each resource is busy once per event: every asynchronous sensor cell
// (initiation interval = its own latency), the half-duplex link (total
// crossing air time), and the aggregator CPU (total back-end time). The
// slowest of these bounds the throughput.
func (s *System) MaxSustainableEventRate() float64 {
	var bottleneck float64
	for _, id := range s.Placement.SensorCells() {
		if d := s.HW.Delay(id); d > bottleneck {
			bottleneck = d
		}
	}
	d := s.DelayPerEvent()
	if d.Wireless > bottleneck {
		bottleneck = d.Wireless
	}
	if d.BackEnd > bottleneck {
		bottleneck = d.BackEnd
	}
	if bottleneck == 0 {
		return math.Inf(1)
	}
	return 1 / bottleneck
}

// MaxSampleRateForLifetime returns the highest biosignal sampling rate
// (Hz) at which the sensor battery still reaches the target lifetime —
// the inverse of the lifetime question, bounded by the pipelining
// throughput of the placement. Returns an error for unreachable targets.
func (s *System) MaxSampleRateForLifetime(hours float64) (float64, error) {
	if hours <= 0 {
		return 0, errors.New("xsystem: non-positive lifetime target")
	}
	// Energy per event is rate-independent except for the sensing term,
	// which is a fixed power draw; solve for the event rate directly:
	// capacity/hours = rate·E_event(no sensing) + SensingPower.
	budget := battery.SensorBattery().EnergyJ() / (hours * 3600)
	e := s.EnergyPerEvent()
	perEvent := e.SensorTotal() - e.Sensing
	available := budget - sensornode.SensingPower
	if available <= 0 || perEvent <= 0 {
		return 0, fmt.Errorf("xsystem: lifetime target %v h unreachable (sensing floor alone exceeds the budget)", hours)
	}
	rate := available / perEvent // events/s
	if cap := s.MaxSustainableEventRate(); rate > cap {
		rate = cap
	}
	return rate * float64(s.Graph.SegLen), nil
}

// SensorAvgPower returns the sensor node's average power draw at the
// configured event rate.
func (s *System) SensorAvgPower() float64 {
	return s.EnergyPerEvent().SensorTotal() * s.EventsPerSecond()
}

// SensorLifetimeHours estimates the 40 mAh sensor battery's lifetime.
func (s *System) SensorLifetimeHours() (float64, error) {
	return sensorLifetime(s.SensorAvgPower())
}

func sensorLifetime(avgPowerW float64) (float64, error) {
	return battery.SensorBattery().LifetimeHours(avgPowerW)
}

// AggregatorAvgPower returns the aggregator's analytic power draw
// (events + idle share).
func (s *System) AggregatorAvgPower() float64 {
	return s.EnergyPerEvent().AggregatorTotal()*s.EventsPerSecond() + s.CPU.IdlePower
}

// AggregatorLifetimeHours estimates the 2900 mAh aggregator battery's
// lifetime under the analytic load (§5.6).
func (s *System) AggregatorLifetimeHours() (float64, error) {
	return battery.AggregatorBattery().LifetimeHours(s.AggregatorAvgPower())
}

// ErrNotClassified reports a pipeline that produced no output.
var ErrNotClassified = errors.New("xsystem: pipeline produced no classification")

// Classify executes the partitioned pipeline on one segment and returns
// the predicted label (0 or 1). Sensor-side cells compute in Q16.16,
// aggregator-side cells in float64; values crossing the link are
// converted, exactly as the fixed-point payloads would be decoded.
//
// Each call increments the registry's xpro_classify_* series, and when
// a tracer is wired it records one span per executed cell plus a
// whole-event "classify" span.
func (s *System) Classify(seg biosig.Segment) (int, error) {
	start := time.Now()
	p := s.prog()
	score, err := s.classify(p, seg, start)
	reg := s.metrics()
	if p == nil {
		reg.Counter("xpro_classify_errors_total",
			"Classify calls that returned an error.").Inc()
		return 0, err
	}
	m := p.classifyMetricsFor(reg)
	if err != nil {
		m.errors.Inc()
		return 0, err
	}
	m.total.Inc()
	wall := time.Since(start).Seconds()
	m.seconds.Observe(wall)
	m.wall.ObserveWall(wall)
	m.sensorCells.Add(float64(p.nSensor))
	m.aggCells.Add(float64(p.nAgg))
	if score >= 0 {
		return 1, nil
	}
	return 0, nil
}

// prog returns the system's compiled program, compiling afresh when s
// is a copy whose placement (or graph, ensemble or hardware) no longer
// matches it; nil for a cost-analysis-only system.
func (s *System) prog() *program {
	if p := s.program; p != nil && p.describes(s) {
		return p
	}
	if s.Ens == nil {
		return nil
	}
	return compile(s)
}

// errNoClassifier reports a cost-analysis-only system asked to classify.
var errNoClassifier = errors.New("xsystem: cost-analysis-only system has no classifier (built with nil ensemble)")

// classify runs s's program p on seg and returns the fused score.
func (s *System) classify(p *program, seg biosig.Segment, start time.Time) (float64, error) {
	if p == nil {
		return 0, errNoClassifier
	}
	if len(seg.Samples) != s.Graph.SegLen {
		return 0, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), s.Graph.SegLen)
	}
	sc := p.acquire()
	defer p.release(sc)
	p.load(&sc.ev, seg.Samples)
	tr := s.tracer()
	if tr == nil {
		for i := range p.steps {
			if err := p.exec(sc, i, &sc.ev); err != nil {
				return 0, fmt.Errorf("xsystem: cell %s: %w", p.steps[i].name, err)
			}
		}
		return p.score(sc)
	}

	// Traced: one monotonic clock read per cell boundary, as an offset
	// from start, and the event's spans recorded under one tracer lock.
	evID := tr.NextEvent()
	spans := sc.spans[:0]
	defer func() { sc.spans = spans[:0] }()
	t := time.Since(start)
	for i := range p.steps {
		st := &p.steps[i]
		err := p.exec(sc, i, &sc.ev)
		now := time.Since(start)
		spans = append(spans, telemetry.Span{
			Event: evID, Name: st.name, End: st.end,
			Start: start.Add(t), Wall: now - t,
			EnergyJoules: st.energy, DelaySeconds: st.delay,
		})
		t = now
		if err != nil {
			spans[len(spans)-1].Err = err.Error()
			tr.AddAll(spans)
			return 0, fmt.Errorf("xsystem: cell %s: %w", st.name, err)
		}
	}
	spans = append(spans, telemetry.Span{
		Event: evID, Name: "classify", End: "event",
		Start: start, Wall: t,
		EnergyJoules: s.EnergyPerEvent().SensorTotal(),
		DelaySeconds: s.DelayPerEvent().Total(),
	})
	tr.AddAll(spans)
	return p.score(sc)
}

// Accuracy classifies every segment of d through the cross-end pipeline.
func (s *System) Accuracy(d *biosig.Dataset) (float64, error) {
	if len(d.Segs) == 0 {
		return 0, errors.New("xsystem: empty dataset")
	}
	correct := 0
	for _, seg := range d.Segs {
		got, err := s.Classify(seg)
		if err != nil {
			return 0, err
		}
		if got == seg.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Segs)), nil
}
