package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkInvariants compares every cached lookup of g with a
// recomputation straight from the edge list. cached says whether g must
// be serving its lookups from the constructor's cache.
func checkInvariants(t *testing.T, name string, g *Graph, cached bool) {
	t.Helper()
	if got := g.inv != nil && g.inv.describes(g); got != cached {
		t.Fatalf("%s: serving cached invariants = %v, want %v", name, got, cached)
	}
	if got, want := g.SourceReaders(), sourceReaders(g.Edges); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: SourceReaders %v, recomputed %v", name, got, want)
	}
	if got, want := g.TransferGroups(), transferGroups(g.Edges); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: TransferGroups %v, recomputed %v", name, got, want)
	}
	for i := range g.Cells {
		id := CellID(i)
		var in, out []Edge
		for _, e := range g.Edges {
			if e.To == id {
				in = append(in, e)
			}
			if e.From == id {
				out = append(out, e)
			}
		}
		if got := g.InEdges(id); len(got) != len(in) || (len(in) > 0 && !reflect.DeepEqual(got, in)) {
			t.Errorf("%s: InEdges(%d) %v, scanned %v", name, id, got, in)
		}
		if got := g.OutEdges(id); len(got) != len(out) || (len(out) > 0 && !reflect.DeepEqual(got, out)) {
			t.Errorf("%s: OutEdges(%d) %v, scanned %v", name, id, got, out)
		}
	}
}

func TestInvariantsMatchRecomputation(t *testing.T) {
	g, _ := buildGraph(t)
	checkInvariants(t, "Build", g, true)
	mg, _ := buildMultiGraph(t)
	checkInvariants(t, "BuildMulti", mg, true)

	rng := rand.New(rand.NewSource(9))
	perm := make([]CellID, len(g.Cells))
	for i, p := range rng.Perm(len(g.Cells)) {
		perm[i] = CellID(p)
	}
	rg, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, "Relabel", rg, true)
	for i := 0; i < 30; i++ {
		sg, err := Synthetic(rng, 64+rng.Intn(200))
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, "Synthetic", sg, true)
	}

	// A literal graph has no cache and computes its lookups per call.
	lit := &Graph{Cells: g.Cells, Edges: g.Edges, SegLen: g.SegLen, SourceBits: g.SourceBits, Output: g.Output}
	checkInvariants(t, "literal", lit, false)

	// A copy given new edges must not serve the original's cache, and
	// the original keeps its own.
	mut := *g
	mut.Edges = append(append([]Edge(nil), g.Edges...),
		Edge{From: SourceID, To: g.Output, Class: PayloadRaw, Values: g.SegLen, Bits: g.SourceBits},
		Edge{From: 0, To: g.Output, Class: PayloadValue, Values: 1, Bits: 8})
	checkInvariants(t, "copy-then-mutate", &mut, false)
	if !reflect.DeepEqual(mut.SourceReaders(), append(g.SourceReaders(), g.Output)) {
		t.Errorf("mutated copy reads stale source readers %v", mut.SourceReaders())
	}
	checkInvariants(t, "original after copy", g, true)
}

// The shared slices are capped, so appending to one never writes into
// a neighbouring cell's edges or another group.
func TestInvariantSlicesAreCapped(t *testing.T) {
	g, _ := buildGraph(t)
	for i := range g.Cells {
		in := g.InEdges(CellID(i))
		if cap(in) != len(in) {
			t.Fatalf("InEdges(%d) has spare capacity %d", i, cap(in)-len(in))
		}
	}
	groups := g.TransferGroups()
	if cap(groups) != len(groups) {
		t.Fatal("TransferGroups has spare capacity")
	}
	for _, tg := range groups {
		if cap(tg.Consumers) != len(tg.Consumers) {
			t.Fatalf("group from %d has spare consumer capacity", tg.From)
		}
	}
}
