package xsystem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/dwt"
	"xpro/internal/ensemble"
	"xpro/internal/fixed"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/stats"
	"xpro/internal/svm"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
)

// This file compiles a placed pipeline into a flat cell program, the
// host-side rendition of synthesizing each functional cell once: every
// cell becomes one step record holding its role, its end, its in-edges
// resolved to producer slots, its feature-range constants in float and
// Q16.16, and its modeled per-activation cost. An event then runs the
// steps over reusable scratch buffers without allocating. A payload
// crossing the link is quantized once per (producer, wire width) when
// its producer finishes, however many cells on the other end consume
// it — the runtime twin of the generator's broadcast pricing.

// program is the compiled form of one System: graph, ensemble, hardware
// and placement. It is immutable once built and shared by every
// goroutine classifying through the System.
type program struct {
	// graph, ens, hw, cpu and placement identify what was compiled; a
	// System copy that swaps any of them compiles afresh.
	graph     *topology.Graph
	ens       *ensemble.Ensemble
	hw        *sensornode.Hardware
	cpu       aggregator.CPU
	placement partition.Placement

	steps []step  // in topological order
	ins   []inRef // every step's in-edges, in InEdges order
	slots []slot  // crossing payloads, grouped by producer
	index []int   // cell ID → step index
	out   int     // step index of the graph's output cell

	// Output and crossing buffer sizes of one event, per representation.
	flLen, fxLen, xflLen, xfxLen int
	maxOut                       int
	// The segment forms beyond the raw samples that some cell reads
	// (the padded DWT input; in Q16.16, padded and raw).
	needPadded, needPaddedFx, needRawFx bool

	// fusion constants: the trained bias and per-vote weights.
	biasFx fixed.Num
	wFx    []fixed.Num

	nSensor, nAgg int

	// metrics caches the Classify series of the last registry used.
	metrics atomic.Pointer[classifyMetrics]

	mu   sync.Mutex
	free []*scratch
}

// step is one cell of the program.
type step struct {
	cell   topology.CellID
	name   string
	end    string // span End: "sensor" or "aggregator"
	role   topology.Role
	sensor bool
	// level is the DWT level; time marks a time-domain feature. Both
	// read the event source instead of in-edge 0.
	level int
	time  bool
	feat  stats.Feature
	// rng is the feature's own normalization (features and Std stages);
	// varRng is the Var range a Std stage inverts. rngMin and rngScale
	// are rng in Q16.16.
	rng, varRng      ensemble.Range
	rngMin, rngScale fixed.Num
	model            *svm.Model
	base             int
	// energy and delay are the modeled per-activation cost on the end.
	energy, delay float64
	// in0:in1 indexes the step's in-edges in program.ins, slot0:slot1
	// the crossing payloads it produces in program.slots.
	in0, in1     int
	slot0, slot1 int
	// out:out+outLen is the step's output in the scratch buffer of its
	// end (fx on the sensor, fl on the aggregator).
	out, outLen int
}

// inRef is one in-edge, resolved against the program.
type inRef struct {
	// from is the producer's step index, -1 for the raw source.
	from int
	// lo:hi is the part of the producer's output the consumer reads
	// (a DWT producer's detail or approximation half).
	lo, hi int
	// cross marks an edge whose ends differ: the consumer reads slot,
	// the producer's output quantized at bits per value.
	cross bool
	slot  int
	bits  int64
}

// slot is one crossing payload: a producer's whole output quantized at
// one wire width, in the representation of the consuming end.
type slot struct {
	from int
	bits int64
	off  int // in xfx when the producer is on the aggregator, else xfl
}

// source is one event's raw segment in the forms cells read.
type source struct {
	raw, padded     []float64
	rawFx, paddedFx []fixed.Num
}

// scratch is one event's working memory.
type scratch struct {
	fl  []float64   // aggregator-cell outputs
	fx  []fixed.Num // sensor-cell outputs
	xfl []float64   // crossing payloads consumed on the aggregator
	xfx []fixed.Num // crossing payloads consumed on the sensor
	ev  source      // the segment as sampled
	rx  source      // the segment as received, when it crossed damaged
	// rxRaw holds rx.raw. svmFl and svmFx, indexed like program.ins,
	// hold the SVM cells' input vectors, each cell its own part.
	rxRaw []float64
	svmFl []float64
	svmFx []fixed.Num
	// over, indexed like program.ins, lets a fault-tolerant walk hand an
	// in-edge the receiver's damaged view of its producer's output;
	// dfl and dfx hold that view converted for the consumer. lost (by
	// cell) and avail (a step's in-edges) are the walks' bookkeeping.
	over  [][]float64
	dfl   []float64
	dfx   []fixed.Num
	lost  []bool
	avail []bool
	spans []telemetry.Span
	// pending counts the cells of a streamed event still running.
	pending atomic.Int32
}

// compile builds the program of s. s.Ens must be set.
func compile(s *System) *program {
	g := s.Graph
	p := &program{
		graph: g, ens: s.Ens, hw: s.HW, cpu: s.CPU, placement: s.Placement,
		index: make([]int, len(g.Cells)),
		steps: make([]step, len(s.order)),
	}
	for i, id := range s.order {
		p.index[id] = i
	}
	nb := len(s.Ens.Bases)
	if nb < len(s.Ens.Weights) {
		p.biasFx = fixed.FromFloat(s.Ens.Weights[nb])
	}
	p.wFx = fixed.FromSlice(s.Ens.Weights)
	p.nSensor, p.nAgg = s.Placement.Counts()

	for i, id := range s.order {
		c := &g.Cells[id]
		st := &p.steps[i]
		*st = step{cell: id, name: c.Name, role: c.Role, sensor: s.Placement.OnSensor(id), end: "aggregator", base: c.Base}
		if st.sensor {
			st.end = "sensor"
		}
		st.energy, st.delay = s.CellCost(id)
		switch c.Role {
		case topology.RoleDWT:
			st.level = c.Level
		case topology.RoleFeature, topology.RoleStdStage:
			st.time = c.Role == topology.RoleFeature && c.Feature.Domain == ensemble.TimeDomain
			st.feat = c.Feature.Feat
			st.rng = s.Ens.FeatureRange(c.Feature)
			st.rngMin, st.rngScale = fixed.FromFloat(st.rng.Min), fixed.FromFloat(st.rng.Scale)
			if c.Role == topology.RoleStdStage {
				st.varRng = s.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
			}
		case topology.RoleSVM:
			if c.Base >= 0 && c.Base < nb {
				st.model = s.Ens.Bases[c.Base].Model
			}
		}
		switch {
		case st.level == 1:
			p.needPadded = true
			p.needPaddedFx = p.needPaddedFx || st.sensor
		case st.time && st.sensor:
			p.needRawFx = true
		}

		// In-edges, with the part of the producer each one reads.
		st.in0 = len(p.ins)
		for _, e := range g.InEdges(id) {
			in := inRef{from: -1, bits: perValueBits(e)}
			if e.From != topology.SourceID {
				from := &p.steps[p.index[e.From]]
				in.from = p.index[e.From]
				in.lo, in.hi = 0, from.outLen
				if from.role == topology.RoleDWT {
					half := g.Cells[e.From].OutValues
					approx := c.Role == topology.RoleDWT ||
						(c.Role == topology.RoleFeature && c.Feature.Domain == ensemble.DWTLevels+1)
					in.lo, in.hi = 0, half
					if approx {
						in.lo, in.hi = half, from.outLen
					}
				}
				in.cross = from.sensor != st.sensor
			}
			p.ins = append(p.ins, in)
		}
		st.in1 = len(p.ins)

		// The output: a DWT cell emits detail ‖ approx of its input.
		st.outLen = 1
		if c.Role == topology.RoleDWT {
			st.outLen = ensemble.DWTInputLen
			if c.Level != 1 {
				st.outLen = 0
				if st.in1 > st.in0 {
					in := &p.ins[st.in0]
					st.outLen = in.hi - in.lo
				}
			}
		}
		if st.sensor {
			st.out, p.fxLen = p.fxLen, p.fxLen+st.outLen
		} else {
			st.out, p.flLen = p.flLen, p.flLen+st.outLen
		}
		if st.outLen > p.maxOut {
			p.maxOut = st.outLen
		}
	}

	// Crossing slots: one per (producer, wire width), in step order so
	// each producer's slots are contiguous.
	for i := range p.steps {
		st := &p.steps[i]
		st.slot0 = len(p.slots)
		for _, e := range g.OutEdges(st.cell) {
			if p.steps[p.index[e.To]].sensor == st.sensor {
				continue
			}
			bits := perValueBits(e)
			if p.findSlot(i, bits) >= 0 {
				continue
			}
			sl := slot{from: i, bits: bits}
			if st.sensor {
				sl.off, p.xflLen = p.xflLen, p.xflLen+st.outLen
			} else {
				sl.off, p.xfxLen = p.xfxLen, p.xfxLen+st.outLen
			}
			p.slots = append(p.slots, sl)
		}
		st.slot1 = len(p.slots)
	}
	for k := range p.ins {
		if in := &p.ins[k]; in.cross {
			in.slot = p.findSlot(in.from, in.bits)
		}
	}
	p.out = p.index[g.Output]
	return p
}

// findSlot returns the index of producer step i's slot at bits, or -1.
func (p *program) findSlot(i int, bits int64) int {
	st := &p.steps[i]
	for j := st.slot0; j < len(p.slots) && p.slots[j].from == i; j++ {
		if p.slots[j].bits == bits {
			return j
		}
	}
	return -1
}

// describes reports whether p was compiled for s as it is now.
func (p *program) describes(s *System) bool {
	return p.graph == s.Graph && p.ens == s.Ens && p.hw == s.HW && p.cpu == s.CPU &&
		len(p.placement) == len(s.Placement) &&
		(len(s.Placement) == 0 || &p.placement[0] == &s.Placement[0])
}

// acquire takes a scratch from the free list, or makes one.
func (p *program) acquire() *scratch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return sc
	}
	p.mu.Unlock()
	segLen := p.graph.SegLen
	sc := &scratch{
		fl:    make([]float64, p.flLen),
		fx:    make([]fixed.Num, p.fxLen),
		xfl:   make([]float64, p.xflLen),
		xfx:   make([]fixed.Num, p.xfxLen),
		rxRaw: make([]float64, segLen),
		svmFl: make([]float64, len(p.ins)),
		svmFx: make([]fixed.Num, len(p.ins)),
		over:  make([][]float64, len(p.ins)),
		dfl:   make([]float64, p.maxOut),
		dfx:   make([]fixed.Num, p.maxOut),
		lost:  make([]bool, len(p.steps)),
		avail: make([]bool, len(p.ins)),
	}
	for _, src := range []*source{&sc.ev, &sc.rx} {
		if p.needPadded {
			src.padded = make([]float64, ensemble.DWTInputLen)
		}
		if p.needPaddedFx {
			src.paddedFx = make([]fixed.Num, ensemble.DWTInputLen)
		}
		if p.needRawFx {
			src.rawFx = make([]fixed.Num, segLen)
		}
	}
	return sc
}

// release returns sc to the free list.
func (p *program) release(sc *scratch) {
	p.mu.Lock()
	p.free = append(p.free, sc)
	p.mu.Unlock()
}

// load fills src from samples (len SegLen) in the forms the program
// reads. src keeps samples, which must not change while the event runs.
func (p *program) load(src *source, samples []float64) {
	src.raw = samples
	if src.padded != nil {
		biosig.Segment{Samples: samples}.PadInto(src.padded)
	}
	for i, v := range src.padded[:len(src.paddedFx)] {
		src.paddedFx[i] = fixed.FromFloat(v)
	}
	for i, v := range samples[:len(src.rawFx)] {
		src.rawFx[i] = fixed.FromFloat(v)
	}
}

// exec runs step i of the event in sc on the segment form src and
// publishes its crossing payloads. A fusion step fuses every vote.
func (p *program) exec(sc *scratch, i int, src *source) error {
	st := &p.steps[i]
	if st.role == topology.RoleFusion {
		p.fuse(sc, i, nil)
		return nil
	}
	var err error
	if st.sensor {
		err = p.execFixed(sc, st, src)
	} else {
		err = p.execFloat(sc, st, src)
	}
	if err != nil {
		return err
	}
	p.publish(sc, i)
	return nil
}

// execFixed computes a sensor cell in Q16.16.
func (p *program) execFixed(sc *scratch, st *step, src *source) error {
	out := sc.fx[st.out : st.out+st.outLen]
	switch st.role {
	case topology.RoleDWT:
		in := src.paddedFx
		if st.level != 1 {
			in = p.inFixed(sc, st.in0)
		}
		half := len(in) / 2
		return dwt.StepFixedInto(in, out[half:], out[:half]) // detail ‖ approx
	case topology.RoleFeature:
		in := src.rawFx
		if !st.time {
			in = p.inFixed(sc, st.in0)
		}
		// Feature cells emit the §4.4 [0,1]-normalized value.
		out[0] = normFixed(stats.ComputeFixed(st.feat, in), st.rngMin, st.rngScale)
	case topology.RoleStdStage:
		// The Var cell emits a normalized variance; undo that, take the
		// square root, and apply the Std feature's own normalization.
		raw := fixed.FromFloat(st.varRng.Invert(p.inFixed(sc, st.in0)[0].Float()))
		out[0] = normFixed(fixed.Sqrt(raw), st.rngMin, st.rngScale)
	case topology.RoleSVM:
		if st.model == nil {
			return fmt.Errorf("no base classifier %d", st.base)
		}
		x := sc.svmFx[st.in0:st.in1]
		for k := range x {
			x[k] = p.inFixed(sc, st.in0+k)[0]
		}
		out[0] = st.model.DecisionFixed(x)
	default:
		return fmt.Errorf("unknown role %v", st.role)
	}
	return nil
}

// execFloat computes an aggregator cell in float64.
func (p *program) execFloat(sc *scratch, st *step, src *source) error {
	out := sc.fl[st.out : st.out+st.outLen]
	switch st.role {
	case topology.RoleDWT:
		in := src.padded
		if st.level != 1 {
			in = p.inFloat(sc, st.in0)
		}
		half := len(in) / 2
		return dwt.StepInto(dwt.Haar, in, out[half:], out[:half])
	case topology.RoleFeature:
		in := src.raw
		if !st.time {
			in = p.inFloat(sc, st.in0)
		}
		out[0] = st.rng.Apply(stats.Compute(st.feat, in))
	case topology.RoleStdStage:
		rawVar := st.varRng.Invert(p.inFloat(sc, st.in0)[0])
		if rawVar < 0 {
			rawVar = 0
		}
		out[0] = st.rng.Apply(math.Sqrt(rawVar))
	case topology.RoleSVM:
		if st.model == nil {
			return fmt.Errorf("no base classifier %d", st.base)
		}
		x := sc.svmFl[st.in0:st.in1]
		for k := range x {
			x[k] = p.inFloat(sc, st.in0+k)[0]
		}
		out[0] = st.model.Decision(x)
	default:
		return fmt.Errorf("unknown role %v", st.role)
	}
	return nil
}

// fuse computes fusion step i over the votes avail marks (nil: all):
// the trained bias plus each vote's weighted sign. It returns the
// number of votes used.
func (p *program) fuse(sc *scratch, i int, avail []bool) int {
	st := &p.steps[i]
	n := st.in1 - st.in0
	used := 0
	if st.sensor {
		score := p.biasFx
		for k := 0; k < n; k++ {
			if avail != nil && !avail[k] {
				continue
			}
			vote := -fixed.One
			if p.inFixed(sc, st.in0+k)[0] >= 0 {
				vote = fixed.One
			}
			score = fixed.Add(score, fixed.Mul(p.wFx[k], vote))
			used++
		}
		sc.fx[st.out] = score
	} else {
		score := p.ens.Weights[len(p.ens.Bases)]
		for k := 0; k < n; k++ {
			if avail != nil && !avail[k] {
				continue
			}
			vote := -1.0
			if p.inFloat(sc, st.in0+k)[0] >= 0 {
				vote = 1.0
			}
			score += p.ens.Weights[k] * vote
			used++
		}
		sc.fl[st.out] = score
	}
	p.publish(sc, i)
	return used
}

// publish quantizes step i's output into each of its crossing slots.
func (p *program) publish(sc *scratch, i int) {
	st := &p.steps[i]
	for _, sl := range p.slots[st.slot0:st.slot1] {
		if st.sensor {
			dst := sc.xfl[sl.off : sl.off+st.outLen]
			for k, v := range sc.fx[st.out : st.out+st.outLen] {
				dst[k] = quantizeWire(v.Float(), sl.bits)
			}
		} else {
			dst := sc.xfx[sl.off : sl.off+st.outLen]
			for k, v := range sc.fl[st.out : st.out+st.outLen] {
				dst[k] = fixed.FromFloat(quantizeWire(v, sl.bits))
			}
		}
	}
}

// inFixed returns in-edge k's values as a sensor consumer reads them:
// the producer's output, its crossing slot, or the walk's override
// view converted (quantized at the wire width when the edge crosses).
func (p *program) inFixed(sc *scratch, k int) []fixed.Num {
	in := &p.ins[k]
	switch {
	case in.from < 0:
		return nil
	case sc.over[k] != nil:
		v := sc.over[k]
		d := sc.dfx[:len(v)]
		for j, f := range v {
			if in.cross {
				f = quantizeWire(f, in.bits)
			}
			d[j] = fixed.FromFloat(f)
		}
		return d[in.lo:in.hi]
	case in.cross:
		off := p.slots[in.slot].off
		return sc.xfx[off+in.lo : off+in.hi]
	default:
		off := p.steps[in.from].out
		return sc.fx[off+in.lo : off+in.hi]
	}
}

// inFloat is inFixed for an aggregator consumer.
func (p *program) inFloat(sc *scratch, k int) []float64 {
	in := &p.ins[k]
	switch {
	case in.from < 0:
		return nil
	case sc.over[k] != nil:
		v := sc.over[k]
		if !in.cross {
			return v[in.lo:in.hi]
		}
		d := sc.dfl[:len(v)]
		for j, f := range v {
			d[j] = quantizeWire(f, in.bits)
		}
		return d[in.lo:in.hi]
	case in.cross:
		off := p.slots[in.slot].off
		return sc.xfl[off+in.lo : off+in.hi]
	default:
		off := p.steps[in.from].out
		return sc.fl[off+in.lo : off+in.hi]
	}
}

// appendOutput appends step i's output to dst as float64 values.
func (p *program) appendOutput(dst []float64, sc *scratch, i int) []float64 {
	st := &p.steps[i]
	if !st.sensor {
		return append(dst, sc.fl[st.out:st.out+st.outLen]...)
	}
	for _, v := range sc.fx[st.out : st.out+st.outLen] {
		dst = append(dst, v.Float())
	}
	return dst
}

// score returns the output cell's fused decision value.
func (p *program) score(sc *scratch) (float64, error) {
	st := &p.steps[p.out]
	switch {
	case st.outLen == 0:
		return 0, ErrNotClassified
	case st.sensor:
		return sc.fx[st.out].Float(), nil
	default:
		return sc.fl[st.out], nil
	}
}

// classifyMetrics are the series System.Classify records, resolved
// once per registry.
type classifyMetrics struct {
	reg                   *telemetry.Registry
	errors, total         *telemetry.Counter
	seconds               *telemetry.Histogram
	wall                  *telemetry.Quantile
	sensorCells, aggCells *telemetry.Counter
}

// classifyMetricsFor returns the Classify series in reg.
func (p *program) classifyMetricsFor(reg *telemetry.Registry) *classifyMetrics {
	if m := p.metrics.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &classifyMetrics{
		reg: reg,
		errors: reg.Counter("xpro_classify_errors_total",
			"Classify calls that returned an error."),
		total: reg.Counter("xpro_classify_total",
			"Segments classified through the partitioned pipeline."),
		seconds: reg.Histogram("xpro_classify_seconds",
			"Wall time of one Classify call.", telemetry.DurationBuckets),
		wall: reg.Quantile("xpro_classify_wall_seconds",
			"Wall time of one Classify call (windowed quantile sketch on host uptime).", 0),
		sensorCells: reg.Counter(telemetry.WithLabels("xpro_cells_executed_total", map[string]string{"end": "sensor"}),
			"Functional-cell activations by end."),
		aggCells: reg.Counter(telemetry.WithLabels("xpro_cells_executed_total", map[string]string{"end": "aggregator"}),
			"Functional-cell activations by end."),
	}
	p.metrics.Store(m)
	return m
}
