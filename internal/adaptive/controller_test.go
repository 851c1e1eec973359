package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

var cachedCross *xsystem.System

// crossSystem trains a small E2 ensemble and returns its generated
// cross-end system on Model3's radio, a genuinely cross-end cut that
// gives the controller room to move.
func crossSystem(t testing.TB) *xsystem.System {
	t.Helper()
	if cachedCross != nil {
		return cachedCross
	}
	spec, err := biosig.CaseBySymbol("E2")
	if err != nil {
		t.Fatal(err)
	}
	d := biosig.Generate(spec)
	train, _ := d.Split(0.75, rand.New(rand.NewSource(11)))
	cfg := ensemble.DefaultConfig(11)
	cfg.Candidates = 10
	cfg.Folds = 3
	cfg.TopFrac = 0.3
	ens, err := ensemble.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Build(ens, d.SegLen)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xsystem.New(g, ens, celllib.P90, wireless.Model3(), aggregator.CortexA8(),
		partition.InSensor(g), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Problem().Generate(func(p partition.Placement) float64 { return sys.DelayOf(p).Total() }, recutLimit(sys))
	if err != nil {
		t.Fatal(err)
	}
	if cachedCross, err = sys.WithPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
	return cachedCross
}

// recutLimit is T_XPro = min(T_F, T_B) under the clean delay model.
func recutLimit(sys *xsystem.System) float64 {
	limit := sys.DelayOf(partition.InSensor(sys.Graph)).Total()
	if d := sys.DelayOf(partition.InAggregator(sys.Graph)).Total(); d < limit {
		limit = d
	}
	return limit
}

// wander is the channel a differential run drives the controller
// through, one ambient observation per step: a loss ramp (inflation
// rising), a hard outage (pinned at the cap), a long clean spell
// (decaying toward 1, then exactly 1 once the EWMAs underflow 1−loss)
// and a noisy loss burst.
func wander(i int, rng *rand.Rand) faults.State {
	var st faults.State
	switch k := i % 400; {
	case k < 80:
		st.Loss = 0.2 + 0.7*float64(k)/80
	case k < 120:
		st.LinkDown = true
	case k < 320:
		// Clean.
	default:
		st.Loss = 0.3 + 0.4*rng.Float64()
	}
	return st
}

// The floor-gated, memoized controller logs exactly the decisions and
// changes of a reference that runs the full generator on every
// evaluation, over a channel that rises, decays back toward 1, sits at
// exactly 1 and is pinned at the cap, at the default improvement
// threshold and at a near-zero one that leaves the floor the least room.
func TestFloorGateMatchesFullEvaluation(t *testing.T) {
	sys := crossSystem(t)
	for _, tc := range []struct {
		threshold float64
		// minSettled is the least number of evaluations the floor must
		// settle, so that the comparison exercises it.
		minSettled float64
	}{{0.05, 600}, {0.001, 400}} {
		cfg := DefaultConfig()
		cfg.ImprovementThreshold = tc.threshold
		type run struct {
			decisions []Decision
			changes   []string
			settled   float64
			reused    float64
			infs      map[string]int
		}
		drive := func(reference bool) run {
			c, err := NewController(cfg, sys, recutLimit(sys), telemetry.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			c.noFloor = reference
			rng := rand.New(rand.NewSource(4))
			r := run{infs: map[string]int{}}
			prevInf, now := 1.0, 0.0
			for i := 0; i < 800; i++ {
				now += 0.25
				c.Estimator().ObserveState(wander(i, rng))
				switch inf := c.Estimator().Estimate().Inflation(cfg.MaxInflation); {
				case inf == 1:
					r.infs["one"]++
				case inf == cfg.MaxInflation:
					r.infs["cap"]++
				case inf > prevInf:
					r.infs["rising"]++
				case inf < prevInf:
					r.infs["decaying"]++
				}
				prevInf = c.Estimator().Estimate().Inflation(cfg.MaxInflation)
				if reference {
					c.memoCand = nil
				}
				ch, err := c.Evaluate(now)
				if err != nil {
					t.Fatal(err)
				}
				if ch != nil {
					r.changes = append(r.changes, fmt.Sprint(ch.Kind, ch.Placement))
				}
				if ch := c.ObserveEvent(now, xsystem.Outcome{}, rng.Intn(3) == 0); ch != nil {
					r.changes = append(r.changes, fmt.Sprint(ch.Kind, ch.Placement))
				}
			}
			r.decisions = c.Decisions()
			r.reused = c.floorReused.Value()
			r.settled = r.reused + c.floorSolved.Value()
			return r
		}
		gated, ref := drive(false), drive(true)
		for _, regime := range []string{"one", "cap", "rising", "decaying"} {
			if ref.infs[regime] == 0 {
				t.Fatalf("threshold %v: the channel never reached the %q regime %v", tc.threshold, regime, ref.infs)
			}
		}
		if len(ref.decisions) == 0 {
			t.Fatalf("threshold %v: no decisions; the comparison is vacuous", tc.threshold)
		}
		if ref.settled != 0 {
			t.Fatalf("threshold %v: the reference settled %v evaluations on the floor", tc.threshold, ref.settled)
		}
		if gated.settled < tc.minSettled {
			t.Fatalf("threshold %v: the floor settled %v evaluations, want at least %v", tc.threshold, gated.settled, tc.minSettled)
		}
		if !reflect.DeepEqual(gated.decisions, ref.decisions) || !reflect.DeepEqual(gated.changes, ref.changes) {
			t.Fatalf("threshold %v: floor-gated controller decided %v / %v, full evaluation %v / %v",
				tc.threshold, gated.decisions, gated.changes, ref.decisions, ref.changes)
		}
		t.Logf("threshold %v: %d decisions, floor settled %v evaluations (%v on a reused floor), channel regimes %v",
			tc.threshold, len(ref.decisions), gated.settled, gated.reused, ref.infs)
	}
}

// BenchmarkRecutEvaluate is one full controller re-pricing under a
// derated channel: the loss estimate moves on every evaluation, so each
// one re-runs the generator, the energy floor is off so that it cannot
// settle the evaluation first, and the improvement threshold is set so
// that no swap (and so no probation) interrupts the loop.
func BenchmarkRecutEvaluate(b *testing.B) {
	sys := crossSystem(b)
	cfg := DefaultConfig()
	cfg.ImprovementThreshold = 0.99
	c, err := NewController(cfg, sys, recutLimit(sys), telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	c.noFloor = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Estimator().ObserveState(faults.State{Loss: 0.2 + 0.4*float64(i%2)})
		if _, err := c.Evaluate(float64(i+1) * 2 * cfg.MinDwellSeconds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecutEvaluateDrift is the controller at its default tuning
// on the channel shape the fault workloads give it: a short loss burst,
// then the inflation decaying back toward 1 over many evaluations, each
// past the dwell and fed back one clean event.
func BenchmarkRecutEvaluateDrift(b *testing.B) {
	sys := crossSystem(b)
	cfg := DefaultConfig()
	c, err := NewController(cfg, sys, recutLimit(sys), telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st faults.State
		if i%100 < 10 {
			st.Loss = 0.5
		}
		c.Estimator().ObserveState(st)
		now := float64(i+1) * 2 * cfg.MinDwellSeconds
		if _, err := c.Evaluate(now); err != nil {
			b.Fatal(err)
		}
		c.ObserveEvent(now, xsystem.Outcome{}, false)
	}
}
