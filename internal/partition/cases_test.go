package partition_test

import (
	"math/rand"
	"reflect"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// table1 is one trained Table 1 case on the Model2 radio.
type table1 struct {
	symbol string
	sys    *xsystem.System
	// limit is T_XPro = min(T_F, T_B) under the clean delay model.
	limit float64
}

var table1Cache []table1

// table1Systems trains every Table 1 case once per test binary.
func table1Systems(t *testing.T) []table1 {
	t.Helper()
	if table1Cache != nil {
		return table1Cache
	}
	var out []table1
	for _, spec := range biosig.TestCases() {
		d := biosig.Generate(spec)
		train, _ := d.Split(0.75, rand.New(rand.NewSource(spec.Seed)))
		cfg := ensemble.DefaultConfig(spec.Seed)
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
		sys, err := xsystem.New(g, ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(),
			partition.InSensor(g), sensornode.DefaultSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		limit := sys.DelayOf(partition.InSensor(g)).Total()
		if da := sys.DelayOf(partition.InAggregator(g)).Total(); da < limit {
			limit = da
		}
		out = append(out, table1{symbol: spec.Symbol, sys: sys, limit: limit})
	}
	table1Cache = out
	return out
}

// delayModel is the clean delay model of sys re-priced on prob's link.
func delayModel(sys *xsystem.System, prob *partition.Problem) func(partition.Placement) float64 {
	esys := *sys
	esys.Link = prob.Link
	return func(p partition.Placement) float64 { return esys.DelayOf(p).Total() }
}

// For every Table 1 case, under the clean datasheet link and the
// derated links the adaptive controller re-prices (each bit on the air
// 1.5, 4 and 64 times), the in-place sweep yields the same source side
// as a fresh s-t graph at every λ, and Generate the same Result.
func TestSweepMatchesFreshGraphsTable1(t *testing.T) {
	for _, tc := range table1Systems(t) {
		for _, inf := range []float64{1, 1.5, 4, 64} {
			prob := tc.sys.Problem().Inflated(inf)
			delayOf := delayModel(tc.sys, prob)
			if got, want := prob.LadderSides(), prob.ReferenceLadderSides(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ×%g: in-place sides differ from fresh graphs", tc.symbol, inf)
			}
			got, gotErr := prob.Generate(delayOf, tc.limit)
			want, wantErr := prob.ReferenceGenerate(delayOf, tc.limit)
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s ×%g: Generate = %+v, %v; from fresh graphs %+v, %v",
					tc.symbol, inf, got, gotErr, want, wantErr)
			}
		}
	}
}

// For every Table 1 case, the energy floor is a lower bound on the
// generator's cut, the sweep's cuts, the trivial cut and both
// single-end engines at every inflation the controller can price, and
// reused across inflations it still bounds the min cut.
func TestEnergyFloorTable1(t *testing.T) {
	for _, tc := range table1Systems(t) {
		partition.CheckEnergyFloor(t, tc.symbol, tc.sys.Problem(), func(prob *partition.Problem, visit func(partition.Placement)) {
			visit(partition.Trivial(prob.Graph))
			if res, err := prob.Generate(delayModel(tc.sys, prob), tc.limit); err == nil {
				visit(res.Placement)
			}
		})
	}
}
