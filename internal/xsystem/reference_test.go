package xsystem

import (
	"fmt"
	"math"
	"time"

	"xpro/internal/biosig"
	"xpro/internal/dwt"
	"xpro/internal/ensemble"
	"xpro/internal/fixed"
	"xpro/internal/stats"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
)

// This file keeps the interpretive evaluator the cell program replaced:
// each cell re-derived from the graph on every event, in-edges gathered
// through closures, crossing payloads converted once per consuming
// edge. The differential battery checks the program against it.

// refValue is one cell's computed output, on whichever end produced it.
type refValue struct {
	fx []fixed.Num // sensor-side representation
	fl []float64   // aggregator-side representation
}

func (v refValue) asFixed() []fixed.Num {
	if v.fx != nil {
		return v.fx
	}
	return fixed.FromSlice(v.fl)
}

func (v refValue) asFloat() []float64 {
	if v.fl != nil {
		return v.fl
	}
	return fixed.ToSlice(v.fx)
}

// refEvent carries one segment's source data in both representations.
type refEvent struct {
	rawFloat    []float64
	paddedFloat []float64
	rawFixed    []fixed.Num
	paddedFixed []fixed.Num
}

func refNewEvent(g *topology.Graph, seg biosig.Segment) *refEvent {
	rawFloat := seg.Samples
	paddedFloat := seg.PadTo(ensemble.DWTInputLen)
	return &refEvent{
		rawFloat:    rawFloat,
		paddedFloat: paddedFloat,
		rawFixed:    fixed.FromSlice(rawFloat),
		paddedFixed: fixed.FromSlice(paddedFloat),
	}
}

// refDWTSlice selects what a consumer takes from a DWT producer's output
// (detail‖approx): feature cells of band l take the detail half; the
// next DWT level and approximation-band features take the approx half.
func refDWTSlice[T any](producer topology.Cell, wantApprox bool, out []T) []T {
	half := producer.OutValues
	if wantApprox {
		return out[half:]
	}
	return out[:half]
}

// refEvalCell executes one functional cell on one refEvent. fetch returns the
// producer refValue of the i-th in-edge; the cell computes in Q16.16 when
// placed on the sensor, float64 on the aggregator.
func (s *System) refEvalCell(c topology.Cell, ins []topology.Edge, fetch func(int) refValue, ev *refEvent) (refValue, error) {
	var out refValue
	var err error
	if s.Placement.OnSensor(c.ID) {
		out.fx, err = s.refEvalFixed(c, ins, fetch, ev)
	} else {
		out.fl, err = s.refEvalFloat(c, ins, fetch, ev)
	}
	return out, err
}

func (s *System) refEvalFixed(c topology.Cell, ins []topology.Edge, fetch func(int) refValue, ev *refEvent) ([]fixed.Num, error) {
	raw, padded := ev.rawFixed, ev.paddedFixed
	gather := func(i int, wantApprox bool) []fixed.Num {
		e := ins[i]
		if e.From == topology.SourceID {
			return nil // handled by caller context
		}
		from := s.Graph.Cells[e.From]
		var v []fixed.Num
		if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
			v = fetch(i).asFixed()
		} else {
			// The payload crossed the link: apply wire quantization.
			v = refCrossFixed(fetch(i), e)
		}
		if from.Role == topology.RoleDWT {
			return refDWTSlice(from, wantApprox, v)
		}
		return v
	}
	switch c.Role {
	case topology.RoleDWT:
		var in []fixed.Num
		if c.Level == 1 {
			in = padded
		} else {
			in = gather(0, true)
		}
		a, d, err := dwt.StepFixed(in)
		if err != nil {
			return nil, err
		}
		return append(d, a...), nil // detail ‖ approx
	case topology.RoleFeature:
		var in []fixed.Num
		if c.Feature.Domain == ensemble.TimeDomain {
			in = raw
		} else {
			in = gather(0, c.Feature.Domain == ensemble.DWTLevels+1)
		}
		v := stats.ComputeFixed(c.Feature.Feat, in)
		// Feature cells emit the §4.4 [0,1]-normalized refValue.
		return []fixed.Num{refNormFixed(v, s.Ens.FeatureRange(c.Feature))}, nil
	case topology.RoleStdStage:
		// The Var cell emits a normalized variance; undo that, take the
		// square root, and apply the Std feature's own normalization.
		varRange := s.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
		raw := fixed.FromFloat(varRange.Invert(gather(0, false)[0].Float()))
		return []fixed.Num{refNormFixed(fixed.Sqrt(raw), s.Ens.FeatureRange(c.Feature))}, nil
	case topology.RoleSVM:
		x := make([]fixed.Num, len(ins))
		for i := range ins {
			x[i] = gather(i, false)[0]
		}
		return []fixed.Num{s.Ens.Bases[c.Base].Model.DecisionFixed(x)}, nil
	case topology.RoleFusion:
		score := fixed.FromFloat(s.Ens.Weights[len(s.Ens.Bases)])
		for i := range ins {
			vote := fixed.FromInt(-1)
			if gather(i, false)[0] >= 0 {
				vote = fixed.One
			}
			score = fixed.Add(score, fixed.Mul(fixed.FromFloat(s.Ens.Weights[i]), vote))
		}
		return []fixed.Num{score}, nil
	default:
		return nil, fmt.Errorf("unknown role %v", c.Role)
	}
}

func (s *System) refEvalFloat(c topology.Cell, ins []topology.Edge, fetch func(int) refValue, ev *refEvent) ([]float64, error) {
	raw, padded := ev.rawFloat, ev.paddedFloat
	gather := func(i int, wantApprox bool) []float64 {
		e := ins[i]
		if e.From == topology.SourceID {
			return nil
		}
		from := s.Graph.Cells[e.From]
		var v []float64
		if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
			v = fetch(i).asFloat()
		} else {
			// The payload crossed the link: apply wire quantization.
			v = refCrossFloat(fetch(i), e)
		}
		if from.Role == topology.RoleDWT {
			return refDWTSlice(from, wantApprox, v)
		}
		return v
	}
	switch c.Role {
	case topology.RoleDWT:
		var in []float64
		if c.Level == 1 {
			in = padded
		} else {
			in = gather(0, true)
		}
		a, d, err := dwt.Step(dwt.Haar, in)
		if err != nil {
			return nil, err
		}
		return append(d, a...), nil
	case topology.RoleFeature:
		var in []float64
		if c.Feature.Domain == ensemble.TimeDomain {
			in = raw
		} else {
			in = gather(0, c.Feature.Domain == ensemble.DWTLevels+1)
		}
		// Feature cells emit the §4.4 [0,1]-normalized refValue.
		return []float64{s.Ens.FeatureRange(c.Feature).Apply(stats.Compute(c.Feature.Feat, in))}, nil
	case topology.RoleStdStage:
		// The Var cell emits a normalized variance; undo that, take the
		// square root, and apply the Std feature's own normalization.
		varRange := s.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
		rawVar := varRange.Invert(gather(0, false)[0])
		if rawVar < 0 {
			rawVar = 0
		}
		return []float64{s.Ens.FeatureRange(c.Feature).Apply(math.Sqrt(rawVar))}, nil
	case topology.RoleSVM:
		x := make([]float64, len(ins))
		for i := range ins {
			x[i] = gather(i, false)[0]
		}
		return []float64{s.Ens.Bases[c.Base].Model.Decision(x)}, nil
	case topology.RoleFusion:
		score := s.Ens.Weights[len(s.Ens.Bases)]
		for i := range ins {
			vote := -1.0
			if gather(i, false)[0] >= 0 {
				vote = 1.0
			}
			score += s.Ens.Weights[i] * vote
		}
		return []float64{score}, nil
	default:
		return nil, fmt.Errorf("unknown role %v", c.Role)
	}
}

// refCrossFloat converts a producer refValue for consumption on the other end
// in float64, applying wire quantization.
func refCrossFloat(v refValue, e topology.Edge) []float64 {
	fs := v.asFloat()
	bits := perValueBits(e)
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = quantizeWire(f, bits)
	}
	return out
}

// refCrossFixed converts a producer refValue for consumption on the other end
// in Q16.16, applying wire quantization.
func refCrossFixed(v refValue, e topology.Edge) []fixed.Num {
	fs := refCrossFloat(v, e)
	return fixed.FromSlice(fs)
}

// refNormFixed applies a feature normalization range in Q16.16: the
// hardware cell's final (v − min)·scale stage with [0,1] clamping.
func refNormFixed(v fixed.Num, r ensemble.Range) fixed.Num {
	if r.Scale == 0 {
		return 0
	}
	n := fixed.Mul(fixed.Sub(v, fixed.FromFloat(r.Min)), fixed.FromFloat(r.Scale))
	if n < 0 {
		return 0
	}
	if n > fixed.One {
		return fixed.One
	}
	return n
}

// refClassify is Classify as the interpretive evaluator ran it: the
// fused score and the spans it recorded (tr may be nil).
func (s *System) refClassify(seg biosig.Segment, tr *telemetry.Tracer) (float64, error) {
	start := time.Now()
	if s.Ens == nil {
		return 0, fmt.Errorf("xsystem: cost-analysis-only system has no classifier (built with nil ensemble)")
	}
	if len(seg.Samples) != s.Graph.SegLen {
		return 0, fmt.Errorf("xsystem: segment length %d, engine built for %d", len(seg.Samples), s.Graph.SegLen)
	}
	g := s.Graph
	outputs := make([]refValue, len(g.Cells))
	var evID uint64
	if tr != nil {
		evID = tr.NextEvent()
	}
	ev := refNewEvent(s.Graph, seg)
	for _, id := range s.order {
		c := g.Cells[id]
		ins := g.InEdges(id)
		fetch := func(i int) refValue { return outputs[ins[i].From] }
		t0 := time.Now()
		out, err := s.refEvalCell(c, ins, fetch, ev)
		if tr != nil {
			end := "aggregator"
			if s.Placement.OnSensor(id) {
				end = "sensor"
			}
			energy, delay := s.CellCost(id)
			span := telemetry.Span{
				Event: evID, Name: c.Name, End: end,
				Start: t0, Wall: time.Since(t0),
				EnergyJoules: energy, DelaySeconds: delay,
			}
			if err != nil {
				span.Err = err.Error()
			}
			tr.Add(span)
		}
		if err != nil {
			return 0, fmt.Errorf("xsystem: cell %s: %w", c.Name, err)
		}
		outputs[id] = out
	}
	if tr != nil {
		d := s.DelayPerEvent()
		tr.Add(telemetry.Span{
			Event: evID, Name: "classify", End: "event",
			Start: start, Wall: time.Since(start),
			EnergyJoules: s.EnergyPerEvent().SensorTotal(),
			DelaySeconds: d.Total(),
		})
	}
	final := outputs[g.Output]
	switch {
	case final.fl != nil && len(final.fl) > 0:
		return final.fl[0], nil
	case final.fx != nil && len(final.fx) > 0:
		return final.fx[0].Float(), nil
	}
	return 0, ErrNotClassified
}
