package xsystem

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// table1Case is one Table 1 case trained for the program batteries.
type table1Case struct {
	symbol string
	sys    *System // in-sensor
	test   *biosig.Dataset
}

var (
	table1Once  sync.Once
	table1Cases []table1Case
	table1Err   error
)

// table1 trains every Table 1 case once per test binary, with the
// reduced protocol of the package fixture.
func table1(t testing.TB) []table1Case {
	t.Helper()
	table1Once.Do(func() {
		for _, spec := range biosig.TestCases() {
			d := biosig.Generate(spec)
			train, test := d.Split(0.75, rand.New(rand.NewSource(spec.Seed)))
			cfg := ensemble.DefaultConfig(spec.Seed)
			cfg.Candidates = 10
			cfg.Folds = 3
			cfg.TopFrac = 0.3
			ens, err := ensemble.Train(train, cfg)
			if err != nil {
				table1Err = err
				return
			}
			g, err := topology.Build(ens, d.SegLen)
			if err != nil {
				table1Err = err
				return
			}
			sys, err := New(g, ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.InSensor(g), sensornode.DefaultSampleRateHz)
			if err != nil {
				table1Err = err
				return
			}
			table1Cases = append(table1Cases, table1Case{symbol: spec.Symbol, sys: sys, test: test})
		}
	})
	if table1Err != nil {
		t.Fatal(table1Err)
	}
	return table1Cases
}

// generatedCut is the generator's cut for s with every bit on the air
// inflation times, under the engine's T_XPro = min(T_F, T_B) at that
// link; ok is false when no cut meets it.
func generatedCut(s *System, inflation float64) (partition.Placement, bool) {
	prob := *s.Problem()
	prob.Link.TxJPerBit *= inflation
	prob.Link.RxJPerBit *= inflation
	prob.Link.RateBps /= inflation
	esys := *s
	esys.Link = prob.Link
	delay := func(p partition.Placement) float64 { return esys.DelayOf(p).Total() }
	limit := math.Min(delay(partition.InSensor(s.Graph)), delay(partition.InAggregator(s.Graph)))
	res, err := prob.Generate(delay, limit)
	if err != nil {
		return nil, false
	}
	return res.Placement, true
}

// placements lists the cuts the batteries run: both single-end
// engines, the trivial cut, a cut alternating ends, the cross-end cut,
// and the generator's cut on links inflated 1.5 and 4 times.
func placements(t testing.TB, s *System) map[string]*System {
	t.Helper()
	g := s.Graph
	cuts := map[string]partition.Placement{
		"InSensor":     partition.InSensor(g),
		"InAggregator": partition.InAggregator(g),
		"TrivialCut":   partition.Trivial(g),
	}
	// Every other cell on the sensor, the source readers on the
	// aggregator: payloads cross both ways, DWT halves included.
	alt := partition.InAggregator(g)
	readers := map[topology.CellID]bool{}
	for _, id := range g.SourceReaders() {
		readers[id] = true
	}
	for i := range alt {
		if i%2 == 1 && !readers[topology.CellID(i)] {
			alt[i] = partition.Sensor
		}
	}
	cuts["alternating"] = alt
	for name, inf := range map[string]float64{"CrossEnd": 1, "inflation1.5": 1.5, "inflation4": 4} {
		if p, ok := generatedCut(s, inf); ok {
			cuts[name] = p
		}
	}
	if cuts["CrossEnd"] == nil {
		t.Fatal("no cross-end cut")
	}
	out := make(map[string]*System, len(cuts))
	for name, p := range cuts {
		sys, err := s.WithPlacement(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sys
	}
	return out
}

// spanKey is what the battery compares of a span: everything but the
// host's clock and the tracer's sequence numbers.
type spanKey struct {
	Name, End     string
	Energy, Delay float64
	Event         uint64
}

func spanKeys(spans []telemetry.Span) []spanKey {
	out := make([]spanKey, len(spans))
	for i, s := range spans {
		out[i] = spanKey{s.Name, s.End, s.EnergyJoules, s.DelaySeconds, s.Event}
	}
	return out
}

// The cell program classifies every test segment of the six cases,
// under every battery cut, exactly as the interpretive evaluator did:
// the same score bits and label, the same span sequence, and counter
// deltas of one classification and the placement's cell counts per
// event. The clean 2-end walk and the stream agree with it too.
func TestProgramMatchesReference(t *testing.T) {
	for _, tc := range table1(t) {
		for name, sys := range placements(t, tc.sys) {
			reg := telemetry.NewRegistry()
			traced := *sys
			traced.Metrics = reg
			traced.Tracer = telemetry.NewTracer(len(tc.test.Segs) * (len(sys.Graph.Cells) + 1))
			refTracer := telemetry.NewTracer(traced.Tracer.Cap())
			p := sys.prog()
			if p != sys.program || traced.prog() != sys.program {
				t.Fatalf("%s/%s: a copy sharing the placement recompiled", tc.symbol, name)
			}
			in := make(chan biosig.Segment, len(tc.test.Segs))
			for _, seg := range tc.test.Segs {
				in <- seg
			}
			close(in)
			streamed := sys.Stream(in)
			for i, seg := range tc.test.Segs {
				want, err := sys.refClassify(seg, refTracer)
				if err != nil {
					t.Fatalf("%s/%s seg %d: reference: %v", tc.symbol, name, i, err)
				}
				wantLabel := 0
				if want >= 0 {
					wantLabel = 1
				}
				got, err := sys.classify(p, seg, time.Now())
				if err != nil {
					t.Fatalf("%s/%s seg %d: %v", tc.symbol, name, i, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s seg %d: score %v, reference %v", tc.symbol, name, i, got, want)
				}
				label, err := traced.Classify(seg)
				if err != nil || label != wantLabel {
					t.Fatalf("%s/%s seg %d: label %d (%v), reference %d", tc.symbol, name, i, label, err, wantLabel)
				}
				walk, err := sys.ClassifyOver(seg, nil)
				if err != nil || math.Float64bits(walk.Score) != math.Float64bits(want) || walk.Label != wantLabel {
					t.Fatalf("%s/%s seg %d: clean walk score %v label %d (%v), reference %v", tc.symbol, name, i, walk.Score, walk.Label, err, want)
				}
				r := <-streamed
				if r.Err != nil || r.Index != i || r.Label != wantLabel {
					t.Fatalf("%s/%s seg %d: stream result %+v, reference label %d", tc.symbol, name, i, r, wantLabel)
				}
			}
			if r, ok := <-streamed; ok {
				t.Fatalf("%s/%s: stream sent %+v past the last segment", tc.symbol, name, r)
			}
			gotSpans, wantSpans := spanKeys(traced.Tracer.Spans()), spanKeys(refTracer.Spans())
			if len(gotSpans) != len(wantSpans) {
				t.Fatalf("%s/%s: %d spans, reference %d", tc.symbol, name, len(gotSpans), len(wantSpans))
			}
			for i := range wantSpans {
				if gotSpans[i] != wantSpans[i] {
					t.Fatalf("%s/%s span %d: %+v, reference %+v", tc.symbol, name, i, gotSpans[i], wantSpans[i])
				}
			}
			n := float64(len(tc.test.Segs))
			ns, na := sys.Placement.Counts()
			for series, want := range map[string]float64{
				"xpro_classify_total":                         n,
				"xpro_classify_errors_total":                  0,
				`xpro_cells_executed_total{end="sensor"}`:     n * float64(ns),
				`xpro_cells_executed_total{end="aggregator"}`: n * float64(na),
			} {
				if got := registryCounter(reg, series); got != want {
					t.Errorf("%s/%s: %s = %v, want %v", tc.symbol, name, series, got, want)
				}
			}
			if h := reg.Histogram("xpro_classify_seconds", "", telemetry.DurationBuckets); h.Count() != uint64(n) {
				t.Errorf("%s/%s: classify_seconds count %d, want %v", tc.symbol, name, h.Count(), n)
			}
			if q := reg.Quantile("xpro_classify_wall_seconds", "", 0); q.Count() != uint64(n) {
				t.Errorf("%s/%s: classify_wall_seconds count %d, want %v", tc.symbol, name, q.Count(), n)
			}
		}
	}
}

// A copy that swaps the placement runs its own cut, not the program
// compiled for the original.
func TestProgramFollowsSwappedPlacement(t *testing.T) {
	tc := table1(t)[0]
	sys := placements(t, tc.sys)["InAggregator"]
	swapped := *sys
	swapped.Placement = partition.InSensor(sys.Graph)
	if swapped.prog() == sys.program {
		t.Fatal("swapped placement served the original program")
	}
	for i, seg := range tc.test.Segs[:20] {
		want, err := tc.sys.refClassify(seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := swapped.classify(swapped.prog(), seg, time.Now())
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seg %d: swapped copy scored %v (%v), in-sensor reference %v", i, got, err, want)
		}
	}
}

// System.Classify allocates nothing in steady state on every case's
// cross-end system, traced and untraced.
func TestClassifyAllocs(t *testing.T) {
	for _, tc := range table1(t) {
		sys := placements(t, tc.sys)["CrossEnd"]
		untraced := *sys
		untraced.Metrics = telemetry.NewRegistry()
		traced := untraced
		traced.Metrics = telemetry.NewRegistry()
		traced.Tracer = telemetry.NewTracer(256)
		for name, s := range map[string]*System{"untraced": &untraced, "traced": &traced} {
			segs := tc.test.Segs
			i := 0
			classify := func() {
				if _, err := s.Classify(segs[i%len(segs)]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			classify() // resolve the metric handles, fill the free list
			if n := testing.AllocsPerRun(200, classify); n != 0 {
				t.Errorf("%s %s: Classify allocates %v times per event", tc.symbol, name, n)
			}
		}
	}
}
