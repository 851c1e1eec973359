package adaptive

import (
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

// A controller that keeps its last candidate logs exactly the decisions
// of one that re-runs the generator on every evaluation, over a channel
// that returns to the same inflation (clean, and pinned at the cap by
// outages) and wanders between.
func TestCandidateMemoMatchesRegeneration(t *testing.T) {
	sys := crossSystem(t)
	cfg := DefaultConfig()
	generations := telemetry.Default().Counter("xpro_generate_total",
		"Delay-constrained generator runs completed.")
	run := func(regenerate bool) ([]Decision, []string, float64) {
		c, err := NewController(cfg, sys, recutLimit(sys), telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		before := generations.Value()
		rng := rand.New(rand.NewSource(4))
		var changes []string
		now := 0.0
		for i := 0; i < 600; i++ {
			now += 0.25
			var st faults.State
			switch phase := (i / 60) % 4; phase {
			case 1:
				st.LinkDown = true
			case 3:
				st.Loss = 0.3 + 0.4*rng.Float64()
			}
			c.Estimator().ObserveState(st)
			if regenerate {
				c.memoCand = nil
			}
			ch, err := c.Evaluate(now)
			if err != nil {
				t.Fatal(err)
			}
			if ch != nil {
				changes = append(changes, ch.Kind)
			}
			if ch := c.ObserveEvent(now, xsystem.Outcome{}, rng.Intn(3) == 0); ch != nil {
				changes = append(changes, ch.Kind)
			}
		}
		return c.Decisions(), changes, generations.Value() - before
	}
	memoDec, memoChanges, memoGens := run(false)
	regenDec, regenChanges, regenGens := run(true)
	if len(memoDec) == 0 {
		t.Fatal("no decisions; the comparison is vacuous")
	}
	if !reflect.DeepEqual(memoDec, regenDec) || !reflect.DeepEqual(memoChanges, regenChanges) {
		t.Fatalf("memoized controller decided %v, regenerating one %v", memoDec, regenDec)
	}
	if !(memoGens < regenGens) {
		t.Fatalf("memoized controller ran the generator %v times, regenerating one %v", memoGens, regenGens)
	}
}

// BenchmarkRecutEvaluate is one full controller re-pricing under a
// derated channel: the loss estimate moves on every evaluation, so each
// one re-runs the generator, and the improvement threshold is set so
// that no swap (and so no probation) interrupts the loop.
func BenchmarkRecutEvaluate(b *testing.B) {
	sys := crossSystem(b)
	cfg := DefaultConfig()
	cfg.ImprovementThreshold = 0.99
	c, err := NewController(cfg, sys, recutLimit(sys), telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Estimator().ObserveState(faults.State{Loss: 0.2 + 0.4*float64(i%2)})
		if _, err := c.Evaluate(float64(i+1) * 2 * cfg.MinDwellSeconds); err != nil {
			b.Fatal(err)
		}
	}
}
