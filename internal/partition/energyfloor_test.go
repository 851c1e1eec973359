package partition

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/celllib"
	"xpro/internal/sensornode"
	"xpro/internal/wireless"
)

// floorInflations are the channel inflations the energy-floor
// properties are checked at: clean, one ulp-scale step off clean, and
// the derated links of the sweep battery up to the controller's cap.
var floorInflations = []float64{1, 1 + 1e-15, 1.5, 4, 64}

// stEdgeCount is the number of edges of pr's s-t graph.
func stEdgeCount(pr *Problem) int {
	g := pr.Graph
	n := 1 + len(g.SourceReaders()) + 2*len(g.Cells)
	for _, tg := range g.TransferGroups() {
		n += 2
		if len(tg.Consumers) > 1 {
			n += 2 * len(tg.Consumers)
		}
	}
	return n
}

// checkEnergyFloor asserts the EnergyFloor properties of one problem at
// each of floorInflations: the floor is a lower bound on every placement
// cuts visits, on the sweep's cuts and on both single-end engines, and
// is tight against the min cut's energy. Reused at another inflation
// through f(x) ≥ f(x0)·min(1, x/x0), it is still a lower bound on the
// min cut and every visited placement there, and it never exceeds the
// floor solved there by more than the float rounding the shade absorbs.
func checkEnergyFloor(t *testing.T, name string, pr *Problem, cuts func(pr *Problem, visit func(Placement))) {
	t.Helper()
	floors := make([]float64, len(floorInflations))
	for i, inf := range floorInflations {
		q := pr.Inflated(inf)
		f := q.EnergyFloor()
		floors[i] = f
		below := func(what string, p Placement) {
			if e := q.SensorEnergy(p); f > e {
				t.Fatalf("%s ×%v: floor %v above the %s energy %v", name, inf, f, what, e)
			}
		}
		for _, c := range q.sweep() {
			below("sweep cut", c.p)
		}
		below("in-sensor", InSensor(q.Graph))
		below("in-aggregator", InAggregator(q.Graph))
		if cuts != nil {
			cuts(q, func(p Placement) { below("enumerated", p) })
		}
		_, minE := q.MinCut()
		if slack := float64(stEdgeCount(q)) * 1e-12; f < minE-slack {
			t.Fatalf("%s ×%v: floor %v more than %v below the min cut's %v", name, inf, f, slack, minE)
		}
	}
	for i, x := range floorInflations {
		for j, x0 := range floorInflations {
			reused := floors[j] * math.Min(1, x/x0)
			if reused > floors[i]/(1-floorShade) {
				t.Fatalf("%s: floor %v at ×%v, reused from ×%v it reads %v", name, floors[i], x, x0, reused)
			}
			q := pr.Inflated(x)
			above := func(what string, p Placement) {
				if e := q.SensorEnergy(p); reused > e {
					t.Fatalf("%s: floor reused from ×%v at ×%v is %v, above the %s energy %v", name, x0, x, reused, what, e)
				}
			}
			minP, _ := q.MinCut()
			above("min cut", minP)
			if cuts != nil {
				cuts(q, func(p Placement) { above("enumerated", p) })
			}
		}
	}
}

// enumerate visits every grouped placement of pr the oracle enumerates.
func enumerate(t *testing.T) func(pr *Problem, visit func(Placement)) {
	return func(pr *Problem, visit func(Placement)) {
		buf := make(Placement, len(pr.Graph.Cells))
		if _, err := legacyOracle(pr).Enumerate(func(assign []int) bool {
			for i, e := range assign {
				buf[i] = End(e)
			}
			visit(buf)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// The energy floor bounds every placement of oracle-sized synthetic
// topologies and hand-built DAGs from below, at every inflation the
// adaptive controller can price, and stays within solver tolerance of
// the min cut.
func TestEnergyFloorOracle(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 400 && checked < 12; seed++ {
		pr, err := syntheticProblem(seed)
		if err != nil || legacyOracle(pr).Space() > 1<<12 {
			continue
		}
		checked++
		checkEnergyFloor(t, pr.Graph.Cells[pr.Graph.Output].Name, pr, enumerate(t))
	}
	if checked < 8 {
		t.Fatalf("only %d synthetic instances were small enough to enumerate", checked)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 12; i++ {
		g := tinyDAG(rng, 3+rng.Intn(9))
		pr := &Problem{Graph: g, HW: sensornode.Characterize(g, celllib.P90),
			Link: wireless.Models()[i%len(wireless.Models())], SensingEnergy: rng.Float64() * 1e-7}
		checkEnergyFloor(t, "tiny DAG", pr, enumerate(t))
	}
	checkEnergyFloor(t, "E1", testProblem(t), nil)
}

// The floor is one max-flow solve on the kept s-t graph and allocates
// nothing once the graph is kept.
func TestEnergyFloorAllocs(t *testing.T) {
	pr := *testProblem(t)
	pr.KeepSTGraph()
	pr.EnergyFloor()
	if n := testing.AllocsPerRun(20, func() { pr.EnergyFloor() }); n != 0 {
		t.Fatalf("EnergyFloor allocates %v times per call on a kept s-t graph", n)
	}
}
