// Package partition implements the Automatic XPro Generator (§3.2): the
// optimizer that distributes functional cells between the wearable
// sensor node and the data aggregator so that sensor-node energy is
// minimal, optionally under an end-to-end delay constraint.
//
// The generator builds the s-t graph of Fig. 7: a source node F (the
// sensor), a sink node B (the aggregator), a dummy node D for the raw
// data segment, and one node per functional cell. Edge capacities are
// energies:
//
//   - F→D: transmitting the whole raw segment to the aggregator;
//   - D→cell (∞): for cells reading raw data, enforcing the "grouped"
//     property of §3.2.2;
//   - cell→B: the cell's in-sensor compute energy (Eq. 2);
//   - u→v / v→u per data dependency: wireless transmit / receive energy
//     of that edge's payload (Eq. 3).
//
// Any F/B cut's capacity equals the sensor's per-event energy under the
// induced placement, so the minimum cut is the energy-optimal placement,
// and the in-sensor and in-aggregator engines — the two extreme cuts —
// can never beat it. The delay-constrained variant (§3.2.3) sweeps a
// Lagrangian relaxation (capacity = energy + λ·delay) and keeps the
// cheapest placement whose simulated delay meets the constraint,
// falling back to the better single-end engine, whose feasibility the
// constraint T_XPro = min(T_F, T_B) guarantees.
package partition

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xpro/internal/maxflow"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// End is one side of the wearable computing system.
type End int

const (
	// Sensor is the front end (the wearable node).
	Sensor End = iota
	// Aggregator is the back end (the smartphone).
	Aggregator
)

func (e End) String() string {
	if e == Sensor {
		return "sensor"
	}
	return "aggregator"
}

// Placement assigns every cell (indexed by topology.CellID) to an end.
type Placement []End

// OnSensor reports whether cell id is placed on the sensor node.
func (p Placement) OnSensor(id topology.CellID) bool { return p[id] == Sensor }

// SensorCells returns the IDs of the in-sensor analytic part.
func (p Placement) SensorCells() []topology.CellID {
	var out []topology.CellID
	for i, e := range p {
		if e == Sensor {
			out = append(out, topology.CellID(i))
		}
	}
	return out
}

// AggregatorCells returns the IDs of the in-aggregator analytic part.
func (p Placement) AggregatorCells() []topology.CellID {
	var out []topology.CellID
	for i, e := range p {
		if e == Aggregator {
			out = append(out, topology.CellID(i))
		}
	}
	return out
}

// Counts returns (#sensor, #aggregator) cells.
func (p Placement) Counts() (sensor, aggregator int) {
	for _, e := range p {
		if e == Sensor {
			sensor++
		} else {
			aggregator++
		}
	}
	return sensor, aggregator
}

// Equal reports whether two placements are identical.
func (p Placement) Equal(q Placement) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// InSensor returns the all-cells-on-sensor placement (the sensor node
// engine baseline).
func InSensor(g *topology.Graph) Placement {
	return make(Placement, len(g.Cells)) // zero value is Sensor
}

// InAggregator returns the all-cells-on-aggregator placement (the
// aggregator engine baseline).
func InAggregator(g *topology.Graph) Placement {
	p := make(Placement, len(g.Cells))
	for i := range p {
		p[i] = Aggregator
	}
	return p
}

// Trivial returns the intuitive cut of §5.5 (Fig. 12): feature
// extraction (DWT chain + feature cells) on the sensor, classification
// (SVMs + fusion) on the aggregator — "the features are usually a
// compact representation of the data".
func Trivial(g *topology.Graph) Placement {
	p := make(Placement, len(g.Cells))
	for i, c := range g.Cells {
		switch c.Role {
		case topology.RoleSVM, topology.RoleFusion:
			p[i] = Aggregator
		default:
			p[i] = Sensor
		}
	}
	return p
}

// Problem carries everything the generator needs to price a placement.
type Problem struct {
	Graph *topology.Graph
	HW    *sensornode.Hardware
	Link  wireless.Model
	// SensingEnergy is Es of Eq. 1 (per event).
	SensingEnergy float64
	// AggDelay optionally returns a cell's software latency on the
	// aggregator. The delay-constrained sweep uses it to penalize
	// back-end-heavy cuts (an offloaded cell costs λ·AggDelay on the
	// F→cell edge), widening the candidate pool toward placements that
	// meet tight delay limits. nil disables the term; energy pricing is
	// unaffected either way.
	AggDelay func(topology.CellID) float64
	// Metrics receives the generator's runtime counters; nil falls back
	// to telemetry.Default().
	Metrics *telemetry.Registry

	// st keeps the s-t graphs of Graph between solves; see KeepSTGraph.
	st *stCache
}

func (pr *Problem) metrics() *telemetry.Registry {
	if pr.Metrics != nil {
		return pr.Metrics
	}
	return telemetry.Default()
}

// SensorEnergy returns the per-event energy of the sensor node under
// placement p, computed directly from the energy model (Eqs. 1–3):
// in-sensor compute + wireless tx/rx crossing the cut + sensing + the
// final result transmission when fusion sits on the sensor.
func (pr *Problem) SensorEnergy(p Placement) float64 {
	g := pr.Graph
	e := pr.SensingEnergy
	for i, end := range p {
		if end == Sensor {
			e += pr.HW.Energy(topology.CellID(i))
		}
	}
	// Raw segment is transmitted when any source reader is in the
	// aggregator.
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		e += pr.Link.Cost(g.SourceBits).TxEnergy
	}
	// Each distinct payload crosses the link at most once per direction
	// (broadcast to all consumers on the other end).
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		anyOther := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				anyOther = true
				break
			}
		}
		if !anyOther {
			continue
		}
		if fromS {
			e += pr.Link.Cost(tg.Bits).TxEnergy
		} else {
			e += pr.Link.Cost(tg.Bits).RxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		e += pr.Link.Cost(wireless.ValueBits).TxEnergy
	}
	return e
}

// GroupedOK reports whether p keeps all source readers on the same end
// (§3.2.2). Placements violating it are legal but provably suboptimal.
func (pr *Problem) GroupedOK(p Placement) bool {
	readers := pr.Graph.SourceReaders()
	if len(readers) == 0 {
		return true
	}
	first := p.OnSensor(readers[0])
	for _, id := range readers[1:] {
		if p.OnSensor(id) != first {
			return false
		}
	}
	return true
}

// stGraph is the s-t graph of Fig. 7 for one topology. Its nodes and
// edges depend on the topology alone; the capacities (energy +
// λ·delay) depend on the hardware, the link, the aggregator delay model
// and λ. A sweep over λ, or a re-pricing under another link, therefore
// rewrites the capacities in place with SetCap and re-solves after
// Reset.
//
// Node layout: 0 = F (sensor), 1 = B (aggregator), 2 = D (raw data),
// 3+i = cell i, then two auxiliary nodes per multi-consumer transfer
// group (broadcast tx and rx pricing).
type stGraph struct {
	graph *topology.Graph
	fg    *maxflow.Graph
	// Indices of the priced edges: F→D, cell→B and F→cell per cell,
	// and the transmit and receive edge of each transfer group.
	raw      int
	out, agg []int
	tx, rx   []int

	// The capacity terms of the problem being solved, set by price.
	rawCost, resCost wireless.Transfer
	groupCost        []wireless.Transfer
	energy, aggDelay []float64

	side []bool
	p    Placement
}

const (
	nodeF = 0
	nodeB = 1
	nodeD = 2
)

func cellNode(id topology.CellID) int { return 3 + int(id) }

// newSTGraph builds the s-t structure of g with every priced edge at
// capacity zero.
func newSTGraph(g *topology.Graph) *stGraph {
	groups := g.TransferGroups()
	multi := 0
	for _, tg := range groups {
		if len(tg.Consumers) > 1 {
			multi++
		}
	}
	n := len(g.Cells)
	st := &stGraph{
		graph:     g,
		fg:        maxflow.New(3 + n + 2*multi),
		out:       make([]int, n),
		agg:       make([]int, n),
		tx:        make([]int, len(groups)),
		rx:        make([]int, len(groups)),
		groupCost: make([]wireless.Transfer, len(groups)),
		energy:    make([]float64, n),
		aggDelay:  make([]float64, n),
		p:         make(Placement, n),
	}
	fg := st.fg
	nextAux := 3 + n

	// F→D: cost of shipping the raw segment.
	st.raw = fg.AddEdge(nodeF, nodeD, 0)
	// D→reader (∞): the grouped constraint.
	for _, id := range g.SourceReaders() {
		fg.AddEdge(nodeD, cellNode(id), maxflow.Inf)
	}
	// cell→B: in-sensor compute energy (+ result transmission for the
	// output cell, paid whenever it stays on the sensor). F→cell: the
	// λ-weighted back-end latency of offloading the cell. A cell without
	// one keeps its F→cell edge at capacity zero, which no augmenting
	// path or residual search ever crosses, so the cut is the same as
	// if the edge were absent.
	for i := range g.Cells {
		st.out[i] = fg.AddEdge(cellNode(topology.CellID(i)), nodeB, 0)
		st.agg[i] = fg.AddEdge(nodeF, cellNode(topology.CellID(i)), 0)
	}
	// Data dependencies, one transfer group at a time. Single-consumer
	// groups use the paper's direct construction (u→v transmit, v→u
	// receive). Multi-consumer groups price the broadcast once per
	// direction via two auxiliary nodes:
	//
	//   u→T (tx), T→v (∞ each): T settles on the aggregator side, so
	//   u→T is cut exactly when u is on the sensor and some consumer is
	//   not;
	//   v→R (∞ each), R→u (rx): R is dragged to the sensor side by any
	//   sensor-side consumer, so R→u is cut exactly when u is on the
	//   aggregator and some consumer is not.
	for gi, tg := range groups {
		u := cellNode(tg.From)
		if len(tg.Consumers) == 1 {
			v := cellNode(tg.Consumers[0])
			st.tx[gi] = fg.AddEdge(u, v, 0)
			st.rx[gi] = fg.AddEdge(v, u, 0)
			continue
		}
		txAux, rxAux := nextAux, nextAux+1
		nextAux += 2
		st.tx[gi] = fg.AddEdge(u, txAux, 0)
		st.rx[gi] = fg.AddEdge(rxAux, u, 0)
		for _, c := range tg.Consumers {
			fg.AddEdge(txAux, cellNode(c), maxflow.Inf)
			fg.AddEdge(cellNode(c), rxAux, maxflow.Inf)
		}
	}
	return st
}

// price loads the capacity terms of pr, whose Graph must be st's.
func (st *stGraph) price(pr *Problem) {
	g := st.graph
	st.rawCost = pr.Link.Cost(g.SourceBits)
	st.resCost = pr.Link.Cost(wireless.ValueBits)
	for i := range g.Cells {
		id := topology.CellID(i)
		st.energy[i] = pr.HW.Energy(id)
		st.aggDelay[i] = 0
		if pr.AggDelay != nil {
			if d := pr.AggDelay(id); d > 0 {
				st.aggDelay[i] = d
			}
		}
	}
	for gi, tg := range g.TransferGroups() {
		st.groupCost[gi] = pr.Link.Cost(tg.Bits)
	}
}

// solve sets the capacities to energy + lambda·delay, re-solves, and
// returns the cut's source side (owned by st, valid until the next
// solve).
//
// The Lagrangian delay terms cover exactly the ADDITIVE components of
// the end-to-end model: wireless air time (on transfer edges and F→D)
// and, when an AggDelay model is present, the serialized back-end
// latency of offloaded cells (on F→cell edges). Sensor-side cell
// latencies are deliberately NOT penalized — in-sensor cells are
// parallel hardware whose critical path is bounded by T_F, so a
// sum-of-delays penalty would push the sweep away from exactly the
// placements that meet tight limits. As λ grows the sweep therefore
// walks from the energy-optimal cut toward the in-sensor engine,
// tracing delay-feasible intermediates; each candidate's true delay is
// still checked by the caller's delay model.
func (st *stGraph) solve(lambda float64) []bool {
	fg := st.fg
	fg.Reset()
	fg.SetCap(st.raw, st.rawCost.TxEnergy+lambda*st.rawCost.Delay)
	for i := range st.out {
		w := st.energy[i]
		if topology.CellID(i) == st.graph.Output {
			w += st.resCost.TxEnergy + lambda*st.resCost.Delay
		}
		fg.SetCap(st.out[i], w)
		agg := 0.0
		if lambda > 0 {
			agg = lambda * st.aggDelay[i]
		}
		fg.SetCap(st.agg[i], agg)
	}
	for gi, tr := range st.groupCost {
		fg.SetCap(st.tx[gi], tr.TxEnergy+lambda*tr.Delay)
		fg.SetCap(st.rx[gi], tr.RxEnergy+lambda*tr.Delay)
	}
	fg.MaxFlow(nodeF, nodeB)
	st.side = fg.ResidualSide(nodeF, st.side)
	return st.side
}

// placement converts the last solve's source side into a Placement
// (owned by st, valid until the next call).
func (st *stGraph) placement() Placement {
	for i := range st.p {
		if st.side[cellNode(topology.CellID(i))] {
			st.p[i] = Sensor
		} else {
			st.p[i] = Aggregator
		}
	}
	return st.p
}

// stCache is a free list of s-t graphs for one topology, shared by a
// Problem and its copies.
type stCache struct {
	graph *topology.Graph
	mu    sync.Mutex
	free  []*stGraph
}

// KeepSTGraph makes pr, and every copy of pr made afterwards, keep the
// generator's s-t graph between solves: MinCut, Frontier and Generate
// then rewrite its capacities in place instead of building it again.
// The structure depends on Graph alone, so copies re-pricing under
// another Link share it. Call it before pr is shared between
// goroutines; concurrent solves each take their own s-t graph.
// Without it, each solve builds the structure once.
func (pr *Problem) KeepSTGraph() { pr.st = &stCache{graph: pr.Graph} }

// acquireST returns an s-t graph of pr.Graph priced for pr: a kept one
// when available, otherwise a fresh one.
func (pr *Problem) acquireST() *stGraph {
	var st *stGraph
	if c := pr.st; c != nil && c.graph == pr.Graph {
		c.mu.Lock()
		if n := len(c.free); n > 0 {
			st = c.free[n-1]
			c.free = c.free[:n-1]
		}
		c.mu.Unlock()
	}
	if st == nil {
		st = newSTGraph(pr.Graph)
	}
	st.price(pr)
	return st
}

// releaseST returns st to pr's kept s-t graphs, if pr keeps them.
func (pr *Problem) releaseST(st *stGraph) {
	if c := pr.st; c != nil && c.graph == st.graph {
		c.mu.Lock()
		c.free = append(c.free, st)
		c.mu.Unlock()
	}
}

// MinCut solves the unconstrained problem (§3.2.2) and returns the
// energy-optimal placement and its modeled sensor energy.
func (pr *Problem) MinCut() (Placement, float64) {
	st := pr.acquireST()
	st.solve(0)
	p := append(Placement(nil), st.placement()...)
	pr.releaseST(st)
	return p, pr.SensorEnergy(p)
}

// floorShade is the relative margin EnergyFloor gives up to float
// rounding: the max flow and a placement's energy add the same
// capacities in different orders.
const floorShade = 1e-9

// EnergyFloor returns a lower bound on SensorEnergy(p) over every
// placement p, from one max-flow solve of the unconstrained s-t graph.
// Every placement prices, less SensingEnergy, as some F/B cut, and no
// flow exceeds the capacity of any cut (weak duality); SensingEnergy
// plus the max-flow value therefore bounds the sensor energy of every
// cut the generator can return, the single-end engines included. It is
// shaded by a relative 1e-9 against float rounding and is otherwise
// the energy of MinCut, up to the solver's residual tolerance.
func (pr *Problem) EnergyFloor() float64 {
	st := pr.acquireST()
	st.solve(0)
	flow := st.fg.Value()
	pr.releaseST(st)
	return (pr.SensingEnergy + flow) * (1 - floorShade)
}

// Result reports what the delay-constrained generator produced.
type Result struct {
	Placement Placement
	// Energy is the modeled per-event sensor energy.
	Energy float64
	// Delay is the simulated end-to-end delay returned by the caller's
	// delay model.
	Delay float64
	// Lambda is the Lagrangian weight of the winning cut (0 when the
	// unconstrained cut was already feasible).
	Lambda float64
	// Fallback is true when no swept cut met the constraint and the
	// better single-end engine was returned (§3.2.3: "we can always
	// guarantee the existence of a solution").
	Fallback bool
}

// lambdaLadder is the geometric sweep of Lagrangian weights. The scale
// spans energy(J)/delay(s) ratios from far below to far above the
// µJ-per-ms regime of the evaluated systems.
var lambdaLadder = func() []float64 {
	ls := []float64{0}
	for l := 1e-7; l <= 1e2; l *= 3 {
		ls = append(ls, l)
	}
	return ls
}()

// cut is one candidate placement with the Lagrangian weight that
// produced it.
type cut struct {
	p      Placement
	lambda float64
}

// sweep solves the s-t graph at every weight of the λ ladder and
// returns the distinct cuts in ladder order, each with the first weight
// that produced it.
func (pr *Problem) sweep() []cut {
	st := pr.acquireST()
	defer pr.releaseST(st)
	var cuts []cut
	for _, l := range lambdaLadder {
		st.solve(l)
		if p := st.placement(); !containsCut(cuts, p) {
			cuts = append(cuts, cut{p: append(Placement(nil), p...), lambda: l})
		}
	}
	return cuts
}

func containsCut(cuts []cut, p Placement) bool {
	for _, c := range cuts {
		if c.p.Equal(p) {
			return true
		}
	}
	return false
}

// Generate solves the delay-constrained problem (§3.2.3). delayOf must
// return the simulated end-to-end per-event delay of a placement; limit
// is T_XPro. Generate returns the minimum-energy swept placement with
// delayOf(p) ≤ limit, or the better single-end engine if none qualifies.
func (pr *Problem) Generate(delayOf func(Placement) float64, limit float64) (Result, error) {
	if delayOf == nil {
		return Result{}, fmt.Errorf("partition: nil delay model")
	}
	if limit <= 0 {
		return Result{}, fmt.Errorf("partition: non-positive delay limit %v", limit)
	}
	start := time.Now()
	cands := pr.sweep()
	pr.metrics().Counter("xpro_generate_mincut_runs_total",
		"Min-cut solves performed by the Automatic XPro Generator.").
		Add(float64(len(lambdaLadder)))
	return pr.generateFrom(cands, delayOf, limit, start)
}

// generateFrom finishes Generate from the sweep's cuts: greedy repair,
// then the cheapest delay-feasible candidate or the single-end
// fallback.
func (pr *Problem) generateFrom(cands []cut, delayOf func(Placement) float64, limit float64, start time.Time) (Result, error) {
	m := pr.metrics()
	// The Lagrangian sweep can jump over the feasibility boundary when
	// many cells share one energy/delay ratio (they all flip at the same
	// λ). Greedy repair fills that gap: walk each infeasible sweep cut
	// toward the limit by pulling back, one at a time, the offloaded
	// cell with the best delay reduction per unit of added energy.
	repairSteps := m.Counter("xpro_generate_repair_steps_total",
		"Greedy-repair placements explored to bridge Lagrangian feasibility gaps.")
	for _, c := range append([]cut(nil), cands...) {
		if delayOf(c.p) <= limit {
			continue
		}
		repaired := pr.greedyRepair(c.p, delayOf, limit)
		repairSteps.Add(float64(len(repaired)))
		for _, q := range repaired {
			if !containsCut(cands, q) {
				cands = append(cands, cut{p: q, lambda: c.lambda})
			}
		}
	}
	m.Counter("xpro_generate_candidates_total",
		"Distinct candidate placements considered by the generator.").
		Add(float64(len(cands)))
	done := func(res Result) Result {
		m.Counter("xpro_generate_total",
			"Delay-constrained generator runs completed.").Inc()
		if res.Fallback {
			m.Counter("xpro_generate_fallback_total",
				"Generator runs that fell back to a single-end engine (§3.2.3).").Inc()
		}
		m.Histogram("xpro_generate_seconds",
			"Wall time of one generator run.", telemetry.DurationBuckets).
			Observe(time.Since(start).Seconds())
		m.Quantile("xpro_generate_wall_seconds",
			"Wall time of one generator run (windowed quantile sketch on host uptime).",
			0).ObserveWall(time.Since(start).Seconds())
		return res
	}

	best := Result{Energy: -1}
	for _, c := range cands {
		d := delayOf(c.p)
		if d > limit {
			continue
		}
		e := pr.SensorEnergy(c.p)
		if best.Energy < 0 || e < best.Energy {
			best = Result{Placement: c.p, Energy: e, Delay: d, Lambda: c.lambda}
		}
	}
	if best.Energy >= 0 {
		return done(best), nil
	}

	// Fallback: the better single-end engine. With limit = min(T_F, T_B)
	// at least one of the two is feasible by construction.
	var fallback Result
	fallback.Fallback = true
	for _, p := range []Placement{InSensor(pr.Graph), InAggregator(pr.Graph)} {
		d := delayOf(p)
		if d > limit*(1+1e-9) {
			continue
		}
		e := pr.SensorEnergy(p)
		if fallback.Placement == nil || e < fallback.Energy {
			fallback = Result{Placement: p, Energy: e, Delay: d, Fallback: true}
		}
	}
	if fallback.Placement == nil {
		// Counted apart so that min-cut runs = ladder length ×
		// (completed + infeasible) runs.
		m.Counter("xpro_generate_infeasible_total",
			"Generator runs that found no cut within the delay limit, single-end engines included.").Inc()
		return Result{}, fmt.Errorf("partition: delay limit %v infeasible even for single-end engines", limit)
	}
	return done(fallback), nil
}

// greedyRepair returns the trajectory of placements produced by moving
// cells from the aggregator back to the sensor, each step choosing the
// move with the best delay reduction per unit of added sensor energy,
// until the delay limit is met or no move reduces delay. The grouped
// source readers move as one unit.
func (pr *Problem) greedyRepair(start Placement, delayOf func(Placement) float64, limit float64) []Placement {
	g := pr.Graph
	readers := g.SourceReaders()
	isReader := make([]bool, len(g.Cells))
	for _, id := range readers {
		isReader[id] = true
	}
	tried := make([]bool, len(g.Cells))
	cur := append(Placement(nil), start...)
	curDelay := delayOf(cur)
	curEnergy := pr.SensorEnergy(cur)
	var out []Placement
	for step := 0; step < len(g.Cells) && curDelay > limit; step++ {
		type move struct {
			p      Placement
			delay  float64
			energy float64
		}
		var best *move
		for i := range tried {
			tried[i] = false
		}
		for _, id := range cur.AggregatorCells() {
			if tried[id] {
				continue
			}
			q := append(Placement(nil), cur...)
			if isReader[id] {
				// Move the whole grouped set together.
				for _, r := range readers {
					q[r] = Sensor
					tried[r] = true
				}
			} else {
				q[id] = Sensor
				tried[id] = true
			}
			d := delayOf(q)
			if d >= curDelay {
				continue
			}
			e := pr.SensorEnergy(q)
			if best == nil ||
				(e-curEnergy)/(curDelay-d) < (best.energy-curEnergy)/(curDelay-best.delay) {
				best = &move{p: q, delay: d, energy: e}
			}
		}
		if best == nil {
			break
		}
		cur, curDelay, curEnergy = best.p, best.delay, best.energy
		out = append(out, append(Placement(nil), cur...))
	}
	return out
}

// Sensitivity is the marginal cost of moving one cell to the other end.
type Sensitivity struct {
	Cell topology.CellID
	// DeltaEnergy is the sensor-energy change if only this cell flips
	// ends (grouped source readers flip as a unit and report the same
	// delta). Positive means the current side is the right one.
	DeltaEnergy float64
}

// Explain returns, for every cell, the energy cost of flipping it to the
// other end — the sensitivity analysis behind a generated cut. For a
// minimum cut every delta is ≥ 0 (up to float noise); large deltas mark
// load-bearing placement decisions, near-zero deltas mark ties.
func (pr *Problem) Explain(p Placement) []Sensitivity {
	g := pr.Graph
	base := pr.SensorEnergy(p)
	readerSet := make(map[topology.CellID]bool)
	for _, id := range g.SourceReaders() {
		readerSet[id] = true
	}
	out := make([]Sensitivity, len(g.Cells))
	var groupDelta float64
	groupDone := false
	for i := range g.Cells {
		id := topology.CellID(i)
		q := append(Placement(nil), p...)
		if readerSet[id] {
			if !groupDone {
				for _, r := range g.SourceReaders() {
					q[r] = flip(q[r])
				}
				groupDelta = pr.SensorEnergy(q) - base
				groupDone = true
			}
			out[i] = Sensitivity{Cell: id, DeltaEnergy: groupDelta}
			continue
		}
		q[id] = flip(q[id])
		out[i] = Sensitivity{Cell: id, DeltaEnergy: pr.SensorEnergy(q) - base}
	}
	return out
}

func flip(e End) End {
	if e == Sensor {
		return Aggregator
	}
	return Sensor
}

// CutEnergies prices the named cuts of Fig. 12 plus the unconstrained
// optimum, sorted by energy (cheapest first).
type NamedCut struct {
	Name      string
	Placement Placement
	Energy    float64
}

// NamedCuts evaluates the four cuts compared in §5.5.
func (pr *Problem) NamedCuts() []NamedCut {
	minP, minE := pr.MinCut()
	cuts := []NamedCut{
		{Name: "aggregator", Placement: InAggregator(pr.Graph)},
		{Name: "trivial", Placement: Trivial(pr.Graph)},
		{Name: "sensor", Placement: InSensor(pr.Graph)},
		{Name: "cross", Placement: minP, Energy: minE},
	}
	for i := range cuts[:3] {
		cuts[i].Energy = pr.SensorEnergy(cuts[i].Placement)
	}
	sort.SliceStable(cuts, func(i, j int) bool { return cuts[i].Energy < cuts[j].Energy })
	return cuts
}
