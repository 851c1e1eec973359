// Package maxflow implements a max-flow/min-cut solver (Dinic's
// algorithm) on directed graphs with float64 capacities and support for
// effectively-infinite edges.
//
// The Automatic XPro Generator (§3.2) reduces functional-cell placement
// to a minimum s-t cut: after the cut, nodes reachable from the source
// in the residual graph form the in-sensor analytic part, the rest the
// in-aggregator part. The infinite edges implement the "grouped"
// constraint via the dummy source-data node D (Fig. 7).
package maxflow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for constraint edges that must never be cut.
const Inf = math.MaxFloat64 / 4

// eps guards float comparisons in the solver.
const eps = 1e-12

// Edge is one directed edge of the flow network.
type Edge struct {
	From, To int
	Cap      float64
	Flow     float64
	// rev is the index of the reverse edge in the adjacency list of To.
	rev int
}

// Graph is a flow network over nodes 0..N-1.
type Graph struct {
	n     int
	adj   [][]int // node → indices into edges
	edges []Edge

	// value is the flow value of the last MaxFlow, zero after Reset.
	value float64

	// Solver scratch, kept so that re-solving after SetCap and Reset
	// allocates nothing.
	level, iter, queue, stack []int
}

// New creates a flow network with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge with the given capacity and returns its
// index. Adding an edge with negative capacity panics — the s-t graph
// construction must map energies (always ≥ 0) to capacities.
func (g *Graph) AddEdge(from, to int, capacity float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) outside graph of %d nodes", from, to, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on edge (%d,%d)", capacity, from, to))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Cap: capacity, rev: len(g.adj[to])})
	g.adj[from] = append(g.adj[from], idx)
	// Residual reverse edge with zero capacity.
	g.edges = append(g.edges, Edge{From: to, To: from, Cap: 0, rev: len(g.adj[from]) - 1})
	g.adj[to] = append(g.adj[to], idx+1)
	return idx
}

// Edge returns a copy of the edge with the given index (as returned by
// AddEdge).
func (g *Graph) Edge(idx int) Edge { return g.edges[idx] }

// Reset clears all flow, allowing the network to be solved again
// (e.g. after capacity updates via SetCap).
func (g *Graph) Reset() {
	for i := range g.edges {
		g.edges[i].Flow = 0
	}
	g.value = 0
}

// SetCap updates the capacity of edge idx (its reverse residual is
// reset too). Reset must be called before re-solving.
func (g *Graph) SetCap(idx int, capacity float64) {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v", capacity))
	}
	g.edges[idx].Cap = capacity
}

// MaxFlow computes the maximum s→t flow with Dinic's algorithm and
// returns its value. Flows are left on the edges for cut extraction.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		g.value = 0
		return 0
	}
	if len(g.level) != g.n {
		g.level = make([]int, g.n)
		g.iter = make([]int, g.n)
	}
	total := 0.0
	for g.levels(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.augment(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			total += f
		}
	}
	g.value = total
	return total
}

// Value returns the flow value the last MaxFlow computed (zero after
// Reset). By weak duality it is at most the capacity of every s-t cut.
func (g *Graph) Value() float64 { return g.value }

// levels labels every node with its BFS distance from s over residual
// edges (-1 when unreachable) and reports whether t is reachable.
func (g *Graph) levels(s, t int) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(g.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ei := range g.adj[u] {
			e := &g.edges[ei]
			if level[e.To] < 0 && e.Cap-e.Flow > eps {
				level[e.To] = level[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

// augment pushes one blocking-flow path of at most f from u to t along
// the level graph and returns the amount pushed.
func (g *Graph) augment(u, t int, f float64) float64 {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		ei := g.adj[u][g.iter[u]]
		e := &g.edges[ei]
		if g.level[e.To] != g.level[u]+1 || e.Cap-e.Flow <= eps {
			continue
		}
		d := g.augment(e.To, t, math.Min(f, e.Cap-e.Flow))
		if d > eps {
			e.Flow += d
			g.edges[g.adj[e.To][e.rev]].Flow -= d
			return d
		}
	}
	return 0
}

// MinCut computes the minimum s-t cut. It returns the cut value, the
// set of nodes on the source side (sourceSide[v] == true ⇔ v reachable
// from s in the residual graph), and the indices of the cut edges.
func (g *Graph) MinCut(s, t int) (value float64, sourceSide []bool, cutEdges []int) {
	value = g.MaxFlow(s, t)
	sourceSide = g.ResidualSide(s, nil)
	for i := 0; i < len(g.edges); i += 2 { // forward edges only
		e := g.edges[i]
		if sourceSide[e.From] && !sourceSide[e.To] && e.Cap > eps {
			cutEdges = append(cutEdges, i)
		}
	}
	return value, sourceSide, cutEdges
}

// ResidualSide marks the nodes reachable from s in the residual graph
// — after MaxFlow, the source side of the minimum cut. It reuses side
// when its length is the node count (so a re-solve loop allocates
// nothing) and returns the marked slice.
func (g *Graph) ResidualSide(s int, side []bool) []bool {
	if len(side) != g.n {
		side = make([]bool, g.n)
	} else {
		for i := range side {
			side[i] = false
		}
	}
	stack := append(g.stack[:0], s)
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.adj[u] {
			e := &g.edges[ei]
			if !side[e.To] && e.Cap-e.Flow > eps {
				side[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	g.stack = stack
	return side
}

// AddNodeSideCosts wires node v between the terminals of a binary
// labeling problem: paying sinkCost when v lands on the source side and
// sourceCost when it lands on the sink side. It is the standard
// node-potential encoding used by the k-way partitioner's per-hop
// re-cut — "stay low" and "promote" costs become s→v and v→t
// capacities — and returns the two edge indices (s→v, v→t). Zero-cost
// edges are skipped (index -1).
func (g *Graph) AddNodeSideCosts(s, t, v int, sourceCost, sinkCost float64) (sv, vt int) {
	sv, vt = -1, -1
	if sourceCost > 0 {
		sv = g.AddEdge(s, v, sourceCost)
	}
	if sinkCost > 0 {
		vt = g.AddEdge(v, t, sinkCost)
	}
	return sv, vt
}

// CutValue returns the total capacity crossing the given partition
// (source side → sink side, forward edges only). It lets callers price
// arbitrary placements — e.g. the in-sensor / in-aggregator / trivial
// cuts — on the same graph used by the optimizer.
func (g *Graph) CutValue(sourceSide []bool) float64 {
	var total float64
	for i := 0; i < len(g.edges); i += 2 {
		e := g.edges[i]
		if sourceSide[e.From] && !sourceSide[e.To] {
			total += e.Cap
		}
	}
	return total
}
