package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/maxflow"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// referenceSTGraph builds the s-t graph of Fig. 7 from scratch at one
// Lagrangian weight, adding an F→cell edge only where λ·AggDelay is
// priced. It is the straightforward construction the in-place sweep
// must reproduce cut for cut.
func referenceSTGraph(pr *Problem, lambda float64) *maxflow.Graph {
	g := pr.Graph
	groups := g.TransferGroups()
	multi := 0
	for _, tg := range groups {
		if len(tg.Consumers) > 1 {
			multi++
		}
	}
	fg := maxflow.New(3 + len(g.Cells) + 2*multi)
	nextAux := 3 + len(g.Cells)
	raw := pr.Link.Cost(g.SourceBits)
	fg.AddEdge(nodeF, nodeD, raw.TxEnergy+lambda*raw.Delay)
	for _, id := range g.SourceReaders() {
		fg.AddEdge(nodeD, cellNode(id), maxflow.Inf)
	}
	for i := range g.Cells {
		id := topology.CellID(i)
		w := pr.HW.Energy(id)
		if id == g.Output {
			res := pr.Link.Cost(wireless.ValueBits)
			w += res.TxEnergy + lambda*res.Delay
		}
		fg.AddEdge(cellNode(id), nodeB, w)
		if lambda > 0 && pr.AggDelay != nil {
			if d := pr.AggDelay(id); d > 0 {
				fg.AddEdge(nodeF, cellNode(id), lambda*d)
			}
		}
	}
	for _, tg := range groups {
		tr := pr.Link.Cost(tg.Bits)
		u := cellNode(tg.From)
		if len(tg.Consumers) == 1 {
			v := cellNode(tg.Consumers[0])
			fg.AddEdge(u, v, tr.TxEnergy+lambda*tr.Delay)
			fg.AddEdge(v, u, tr.RxEnergy+lambda*tr.Delay)
			continue
		}
		txAux, rxAux := nextAux, nextAux+1
		nextAux += 2
		fg.AddEdge(u, txAux, tr.TxEnergy+lambda*tr.Delay)
		fg.AddEdge(rxAux, u, tr.RxEnergy+lambda*tr.Delay)
		for _, c := range tg.Consumers {
			fg.AddEdge(txAux, cellNode(c), maxflow.Inf)
			fg.AddEdge(cellNode(c), rxAux, maxflow.Inf)
		}
	}
	return fg
}

// referenceSweep is sweep with a freshly built graph per weight.
func referenceSweep(pr *Problem) []cut {
	var cuts []cut
	for _, l := range lambdaLadder {
		_, side, _ := referenceSTGraph(pr, l).MinCut(nodeF, nodeB)
		p := make(Placement, len(pr.Graph.Cells))
		for i := range p {
			if !side[cellNode(topology.CellID(i))] {
				p[i] = Aggregator
			}
		}
		if !containsCut(cuts, p) {
			cuts = append(cuts, cut{p: p, lambda: l})
		}
	}
	return cuts
}

// checkSweepMatchesReference asserts that one kept s-t graph, re-solved
// in place across the whole ladder, yields exactly the source side of a
// freshly built graph at every weight.
func checkSweepMatchesReference(t *testing.T, name string, pr *Problem) {
	t.Helper()
	st := pr.acquireST()
	defer pr.releaseST(st)
	for _, l := range lambdaLadder {
		got := st.solve(l)
		_, want, _ := referenceSTGraph(pr, l).MinCut(nodeF, nodeB)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s λ=%g: in-place source side %v, fresh graph %v", name, l, got, want)
		}
	}
	if got, want := pr.sweep(), referenceSweep(pr); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sweep cuts %v, fresh graphs %v", name, got, want)
	}
}

// The in-place sweep agrees with fresh graphs on the trained fixture
// (no AggDelay), on hand-built DAGs and on synthetic topologies priced
// with the aggregator delay model and derated links, and the generator
// returns the same Result either way.
func TestSweepMatchesFreshGraphs(t *testing.T) {
	checkSweepMatchesReference(t, "E1", testProblem(t))

	cpu := aggregator.CortexA8()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		var g *topology.Graph
		if i%2 == 0 {
			g = tinyDAG(rng, 3+rng.Intn(10))
		} else {
			var err error
			if g, err = topology.Synthetic(rng, 64+rng.Intn(200)); err != nil {
				t.Fatal(err)
			}
		}
		link := wireless.Model2()
		inf := []float64{1, 1.5, 4, 64}[i%4]
		link.TxJPerBit *= inf
		link.RxJPerBit *= inf
		link.RateBps /= inf
		pr := &Problem{
			Graph: g, HW: sensornode.Characterize(g, celllib.P90), Link: link,
			AggDelay: func(id topology.CellID) float64 { return cpu.CellCost(g.Cells[id].Spec).Delay },
		}
		pr.KeepSTGraph()
		name := g.Cells[g.Output].Name
		checkSweepMatchesReference(t, name, pr)

		delayOf := func(p Placement) float64 {
			d := 0.0
			for id, e := range p {
				if e == Aggregator {
					d += pr.AggDelay(topology.CellID(id))
				}
			}
			return d
		}
		limit := 0.5 * delayOf(InAggregator(g))
		got, gotErr := pr.Generate(delayOf, limit)
		want, wantErr := pr.generateFrom(referenceSweep(pr), delayOf, limit, time.Now())
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("graph %d: Generate = %+v, %v; from fresh graphs %+v, %v", i, got, gotErr, want, wantErr)
		}
	}
}

// A kept s-t graph is handed to one solve at a time, and copies of the
// problem re-pricing another link share it without mixing prices.
func TestKeptSTGraphConcurrentCopies(t *testing.T) {
	base := *testProblem(t)
	base.KeepSTGraph()
	want := make([]Placement, 4)
	for k := range want {
		pr := base
		pr.Link.TxJPerBit *= float64(k + 1)
		want[k], _ = pr.MinCut()
	}
	done := make(chan error, len(want))
	for k := range want {
		go func(k int) {
			pr := base
			pr.Link.TxJPerBit *= float64(k + 1)
			for i := 0; i < 20; i++ {
				if p, _ := pr.MinCut(); !p.Equal(want[k]) {
					done <- fmt.Errorf("copy %d: kept s-t graph priced with another copy's link", k)
					return
				}
			}
			done <- nil
		}(k)
	}
	for range want {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
