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

// For every Table 1 case, under the clean datasheet link and the
// derated links the adaptive controller re-prices (each bit on the air
// 1.5, 4 and 64 times), the in-place sweep yields the same source side
// as a fresh s-t graph at every λ, and Generate the same Result.
func TestSweepMatchesFreshGraphsTable1(t *testing.T) {
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
		for _, inf := range []float64{1, 1.5, 4, 64} {
			prob := *sys.Problem()
			prob.Link.TxJPerBit *= inf
			prob.Link.RxJPerBit *= inf
			prob.Link.RateBps /= inf
			esys := *sys
			esys.Link = prob.Link
			delayOf := func(p partition.Placement) float64 { return esys.DelayOf(p).Total() }

			if got, want := prob.LadderSides(), prob.ReferenceLadderSides(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ×%g: in-place sides differ from fresh graphs", spec.Symbol, inf)
			}
			got, gotErr := prob.Generate(delayOf, limit)
			want, wantErr := prob.ReferenceGenerate(delayOf, limit)
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s ×%g: Generate = %+v, %v; from fresh graphs %+v, %v",
					spec.Symbol, inf, got, gotErr, want, wantErr)
			}
		}
	}
}
