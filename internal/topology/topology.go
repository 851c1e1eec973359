// Package topology builds the functional-cell DAG of a trained XPro
// classifier (§2.2, Fig. 2): the raw-segment source feeds time-domain
// feature cells and the DWT chain; each DWT level feeds the feature
// cells of its band and the next level; feature cells feed the base-SVM
// cells of the random-subspace ensemble; SVM scores feed the fusion
// cell, whose single output is the classification result.
//
// The graph records, per edge, how many values flow and how many bits
// they occupy on the wire — the inputs to the Automatic XPro Generator's
// s-t graph (§3.2) and to the cross-end system simulator.
//
// Cells that read the raw data segment (time-domain features and DWT
// level 1) are "grouped": an energy-minimal placement keeps them on the
// same end (§3.2.2), which the generator enforces through the dummy
// source node.
package topology

import (
	"fmt"

	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/stats"
	"xpro/internal/svm"
	"xpro/internal/wireless"
)

// CellID indexes a cell within a Graph.
type CellID int

// SourceID is the pseudo-cell representing the raw data segment (the
// dummy node "D" of the paper's s-t graph).
const SourceID CellID = -1

// Role describes what a cell computes.
type Role int

const (
	RoleDWT Role = iota
	RoleFeature
	RoleStdStage
	RoleSVM
	RoleFusion
)

func (r Role) String() string {
	switch r {
	case RoleDWT:
		return "dwt"
	case RoleFeature:
		return "feature"
	case RoleStdStage:
		return "std-stage"
	case RoleSVM:
		return "svm"
	case RoleFusion:
		return "fusion"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Cell is one functional cell of the analytic engine.
type Cell struct {
	ID   CellID
	Name string
	Role Role
	// Spec is the hardware characterization input for this cell.
	Spec celllib.Spec
	// Level is the 1-based DWT level for RoleDWT cells.
	Level int
	// Feature identifies the computed feature for RoleFeature and
	// RoleStdStage cells.
	Feature ensemble.FeatureSpec
	// Base is the ensemble base index for RoleSVM cells; Head is the
	// one-vs-rest head index for multi-class topologies (0 for binary).
	Base int
	Head int
	// OutValues is the number of values one activation produces
	// toward feature consumers (detail length for DWT cells, 1 for
	// feature/SVM/fusion cells).
	OutValues int
}

// Payload classifies what an edge carries. Two out-edges of the same
// cell with the same payload class carry *identical data*: if several
// consumers sit on the other end, the payload crosses the link once
// (broadcast), which the generator's s-t graph models with auxiliary
// transfer nodes.
type Payload int

const (
	// PayloadRaw is the raw data segment (source edges).
	PayloadRaw Payload = iota
	// PayloadDetail is the detail (high-pass) half of a DWT cell.
	PayloadDetail
	// PayloadApprox is the approximation half of a DWT cell.
	PayloadApprox
	// PayloadValue is a single computed value (feature, score).
	PayloadValue
)

func (p Payload) String() string {
	switch p {
	case PayloadRaw:
		return "raw"
	case PayloadDetail:
		return "detail"
	case PayloadApprox:
		return "approx"
	case PayloadValue:
		return "value"
	default:
		return fmt.Sprintf("Payload(%d)", int(p))
	}
}

// Edge is a data dependency between two cells (or from the source).
type Edge struct {
	From CellID // SourceID or a cell
	To   CellID
	// Class identifies the payload; edges with equal (From, Class)
	// carry the same data.
	Class Payload
	// Values is the number of values carried per event.
	Values int
	// Bits is the on-wire payload size if this edge crosses ends.
	Bits int64
}

// Graph is the functional-cell topology of one XPro instance.
type Graph struct {
	Cells []Cell
	Edges []Edge
	// SegLen is the raw segment length; SourceBits its wire size.
	SegLen     int
	SourceBits int64
	// Output is the fusion cell producing the final result.
	Output CellID

	// inv caches the lookups derived from Cells and Edges. The
	// constructors fill it once; a Graph is immutable after
	// construction, so every reader shares it. It is a plain pointer so
	// that copying a Graph stays legal, and it is trusted only while the
	// graph still holds the very slices it was computed from.
	inv *invariants
}

// invariants are the placement-independent lookups every pricing and
// execution path needs: the grouped source readers, the transfer
// groups, and the in/out edge lists of each cell in compressed sparse
// row form (the edges feeding cell i are in[inOff[i]:inOff[i+1]], in
// Edges order).
type invariants struct {
	// cells, edges and their lengths identify the slices the lookups
	// were computed from.
	cells          *Cell
	edges          *Edge
	nCells, nEdges int

	readers       []CellID
	groups        []TransferGroup
	inOff, outOff []int
	in, out       []Edge
}

// seal computes the graph's invariants and keeps them; constructors
// call it as their last step.
func (g *Graph) seal() *Graph {
	g.inv = computeInvariants(g)
	return g
}

// invariants returns the cached lookups when they still describe g,
// and otherwise computes them afresh without keeping them (a
// hand-built literal graph, or a copy whose Cells or Edges were
// replaced).
func (g *Graph) invariants() *invariants {
	if v := g.inv; v != nil && v.describes(g) {
		return v
	}
	return computeInvariants(g)
}

func (v *invariants) describes(g *Graph) bool {
	return len(g.Cells) == v.nCells && len(g.Edges) == v.nEdges &&
		(v.nCells == 0 || &g.Cells[0] == v.cells) &&
		(v.nEdges == 0 || &g.Edges[0] == v.edges)
}

// computeInvariants derives the lookups from scratch. Edges naming a
// cell outside the graph are left out of that cell's edge lists, so an
// invalid graph can still be inspected (Validate reports it).
func computeInvariants(g *Graph) *invariants {
	n := len(g.Cells)
	v := &invariants{
		nCells:  n,
		nEdges:  len(g.Edges),
		readers: sourceReaders(g.Edges),
		groups:  transferGroups(g.Edges),
		inOff:   make([]int, n+1),
		outOff:  make([]int, n+1),
	}
	if n > 0 {
		v.cells = &g.Cells[0]
	}
	if len(g.Edges) > 0 {
		v.edges = &g.Edges[0]
	}
	valid := func(id CellID) bool { return id >= 0 && int(id) < n }
	for _, e := range g.Edges {
		if valid(e.To) {
			v.inOff[e.To+1]++
		}
		if valid(e.From) {
			v.outOff[e.From+1]++
		}
	}
	for i := 0; i < n; i++ {
		v.inOff[i+1] += v.inOff[i]
		v.outOff[i+1] += v.outOff[i]
	}
	v.in = make([]Edge, v.inOff[n])
	v.out = make([]Edge, v.outOff[n])
	inNext := append([]int(nil), v.inOff[:n]...)
	outNext := append([]int(nil), v.outOff[:n]...)
	for _, e := range g.Edges {
		if valid(e.To) {
			v.in[inNext[e.To]] = e
			inNext[e.To]++
		}
		if valid(e.From) {
			v.out[outNext[e.From]] = e
			outNext[e.From]++
		}
	}
	return v
}

// bandLen returns the sample count of DWT band domain d (1..5 details,
// 6 = approximation) for the padded 128-sample DWT input.
func bandLen(d int) int {
	if d >= 1 && d <= ensemble.DWTLevels {
		return ensemble.DWTInputLen >> uint(d)
	}
	return ensemble.DWTInputLen >> uint(ensemble.DWTLevels)
}

// domainLevel returns the deepest DWT level required to produce domain d.
func domainLevel(d int) int {
	if d == ensemble.TimeDomain {
		return 0
	}
	if d <= ensemble.DWTLevels {
		return d
	}
	return ensemble.DWTLevels
}

// baseInfo is one base classifier to instantiate as an SVM cell.
type baseInfo struct {
	model  *svm.Model
	subset []ensemble.FeatureSpec
	head   int
}

// Options tune graph construction.
type Options struct {
	// FeatureBits is the wire width of one feature value (default
	// wireless.FeatureBits = 8, the Q0.8 byte of normalized features).
	// Sweeping it trades transmission energy against quantization
	// noise.
	FeatureBits int64
}

// DefaultOptions returns the evaluation defaults.
func DefaultOptions() Options { return Options{FeatureBits: wireless.FeatureBits} }

// Build constructs the functional-cell graph for a trained ensemble
// classifying segments of the given raw length, with default options.
func Build(ens *ensemble.Ensemble, segLen int) (*Graph, error) {
	return BuildWith(ens, segLen, DefaultOptions())
}

// BuildWith constructs the graph with explicit options.
func BuildWith(ens *ensemble.Ensemble, segLen int, opts Options) (*Graph, error) {
	if len(ens.Bases) == 0 {
		return nil, fmt.Errorf("topology: ensemble has no base classifiers")
	}
	if opts.FeatureBits < 1 || opts.FeatureBits > 32 {
		return nil, fmt.Errorf("topology: feature wire width %d outside 1..32", opts.FeatureBits)
	}
	bases := make([]baseInfo, len(ens.Bases))
	for i, b := range ens.Bases {
		bases[i] = baseInfo{model: b.Model, subset: b.Subset}
	}
	return buildFrom(ens.UsedFeatures(), ens.UsedDomains(), bases, segLen, opts)
}

// BuildMulti constructs the graph for a one-vs-rest multi-class
// classifier (§5.7): the heads’ base classifiers all become SVM cells of
// the shared topology and the fusion cell performs the per-class fusion
// plus argmax. The resulting graph supports the full cost analysis and
// the Automatic XPro Generator; functional multi-class execution stays
// at the software-ensemble level (see ensemble.MultiEnsemble).
func BuildMulti(me *ensemble.MultiEnsemble, segLen int) (*Graph, error) {
	if me.TotalBases() == 0 {
		return nil, fmt.Errorf("topology: multi-class ensemble has no base classifiers")
	}
	var bases []baseInfo
	for h, head := range me.Heads {
		for _, b := range head.Bases {
			bases = append(bases, baseInfo{model: b.Model, subset: b.Subset, head: h})
		}
	}
	return buildFrom(me.UsedFeatures(), me.UsedDomains(), bases, segLen, DefaultOptions())
}

func buildFrom(used []ensemble.FeatureSpec, domains []int, bases []baseInfo, segLen int, opts Options) (*Graph, error) {
	if segLen < 1 {
		return nil, fmt.Errorf("topology: segment length %d", segLen)
	}
	g := &Graph{SegLen: segLen, SourceBits: int64(segLen) * wireless.SampleBits}

	add := func(c Cell) CellID {
		c.ID = CellID(len(g.Cells))
		g.Cells = append(g.Cells, c)
		return c.ID
	}
	addEdge := func(from, to CellID, class Payload, values int) {
		g.Edges = append(g.Edges, Edge{From: from, To: to, Class: class, Values: values, Bits: int64(values) * wireless.ValueBits})
	}
	// valueEdge wires a single computed value; feature outputs are
	// normalized to [0, 1] and cross the link at the configured feature
	// width (Q0.<bits>, default one byte), SVM scores as Q8.8.
	valueEdge := func(from, to CellID) {
		bits := int64(wireless.ValueBits)
		if c := g.Cells[from]; c.Role == RoleFeature || c.Role == RoleStdStage {
			bits = opts.FeatureBits
		}
		g.Edges = append(g.Edges, Edge{From: from, To: to, Class: PayloadValue, Values: 1, Bits: bits})
	}

	// DWT chain, up to the deepest level any used feature needs.
	maxLevel := 0
	for _, d := range domains {
		if l := domainLevel(d); l > maxLevel {
			maxLevel = l
		}
	}
	dwtCells := make([]CellID, maxLevel+1) // 1-based
	for l := 1; l <= maxLevel; l++ {
		inLen := ensemble.DWTInputLen >> uint(l-1)
		id := add(Cell{
			Name:      fmt.Sprintf("DWT%d", l),
			Role:      RoleDWT,
			Spec:      celllib.Spec{Kind: celllib.KindDWT, N: inLen},
			Level:     l,
			OutValues: inLen / 2,
		})
		dwtCells[l] = id
		if l == 1 {
			g.Edges = append(g.Edges, Edge{From: SourceID, To: id, Class: PayloadRaw, Values: segLen, Bits: g.SourceBits})
		} else {
			// The approximation half of the previous level.
			addEdge(dwtCells[l-1], id, PayloadApprox, inLen)
		}
	}

	// Feature cells, with Var-cell reuse for Std (design rule 3).
	usedSet := make(map[ensemble.FeatureSpec]bool, len(used))
	for _, fs := range used {
		usedSet[fs] = true
	}
	featCells := make(map[ensemble.FeatureSpec]CellID, len(used))
	// First pass: every non-Std feature (so Var cells exist before the
	// Std stages that reuse them).
	for _, fs := range used {
		if fs.Feat == stats.Std {
			continue
		}
		n := segLen
		if fs.Domain != ensemble.TimeDomain {
			n = bandLen(fs.Domain)
		}
		id := add(Cell{
			Name:      fs.String(),
			Role:      RoleFeature,
			Spec:      celllib.Spec{Kind: celllib.KindFeature, Feat: fs.Feat, N: n},
			Feature:   fs,
			OutValues: 1,
		})
		featCells[fs] = id
		connectDomain(g, fs.Domain, id, segLen, dwtCells, addEdge)
	}
	// Second pass: Std cells, reusing a Var cell on the same domain when
	// present.
	for _, fs := range used {
		if fs.Feat != stats.Std {
			continue
		}
		varSpec := ensemble.FeatureSpec{Domain: fs.Domain, Feat: stats.Var}
		if varID, ok := featCells[varSpec]; ok && usedSet[varSpec] {
			id := add(Cell{
				Name:      fs.String() + "(reuse)",
				Role:      RoleStdStage,
				Spec:      celllib.Spec{Kind: celllib.KindStdStage},
				Feature:   fs,
				OutValues: 1,
			})
			featCells[fs] = id
			valueEdge(varID, id)
			continue
		}
		n := segLen
		if fs.Domain != ensemble.TimeDomain {
			n = bandLen(fs.Domain)
		}
		id := add(Cell{
			Name:      fs.String(),
			Role:      RoleFeature,
			Spec:      celllib.Spec{Kind: celllib.KindFeature, Feat: stats.Std, N: n},
			Feature:   fs,
			OutValues: 1,
		})
		featCells[fs] = id
		connectDomain(g, fs.Domain, id, segLen, dwtCells, addEdge)
	}

	// SVM cells.
	svmCells := make([]CellID, len(bases))
	for b, base := range bases {
		id := add(Cell{
			Name: fmt.Sprintf("SVM%d", b+1),
			Role: RoleSVM,
			Spec: celllib.Spec{
				Kind:   celllib.KindSVM,
				SVs:    base.model.NumSV(),
				Dim:    len(base.subset),
				Linear: base.model.Kernel == svm.Linear,
			},
			Base:      b,
			Head:      base.head,
			OutValues: 1,
		})
		svmCells[b] = id
		for _, fs := range base.subset {
			valueEdge(featCells[fs], id)
		}
	}

	// Fusion cell.
	fusion := add(Cell{
		Name:      "Fusion",
		Role:      RoleFusion,
		Spec:      celllib.Spec{Kind: celllib.KindFusion, Bases: len(bases)},
		OutValues: 1,
	})
	for _, id := range svmCells {
		valueEdge(id, fusion)
	}
	g.Output = fusion
	return g.seal(), nil
}

// connectDomain wires a feature cell to its data producer: the source
// for time-domain features, the detail half of DWT level d for band
// features, the approximation half of the last level for the
// approximation band.
func connectDomain(g *Graph, domain int, id CellID, segLen int, dwtCells []CellID, addEdge func(CellID, CellID, Payload, int)) {
	if domain == ensemble.TimeDomain {
		g.Edges = append(g.Edges, Edge{From: SourceID, To: id, Class: PayloadRaw, Values: segLen, Bits: g.SourceBits})
		return
	}
	class := PayloadDetail
	if domain > ensemble.DWTLevels {
		class = PayloadApprox
	}
	addEdge(dwtCells[domainLevel(domain)], id, class, bandLen(domain))
}

// SourceReaders returns the IDs of cells reading the raw segment — the
// "grouped" set of §3.2.2. The slice is shared; callers must not modify
// it.
func (g *Graph) SourceReaders() []CellID {
	r := g.invariants().readers
	return r[:len(r):len(r)]
}

func sourceReaders(edges []Edge) []CellID {
	var out []CellID
	seen := make(map[CellID]bool)
	for _, e := range edges {
		if e.From == SourceID && !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	return out
}

// InEdges returns the edges feeding cell id, in Edges order. The slice
// is shared; callers must not modify it.
func (g *Graph) InEdges(id CellID) []Edge {
	v := g.invariants()
	if id < 0 || int(id) >= v.nCells {
		return nil
	}
	return v.in[v.inOff[id]:v.inOff[id+1]:v.inOff[id+1]]
}

// OutEdges returns the edges leaving cell id, in Edges order. The slice
// is shared; callers must not modify it.
func (g *Graph) OutEdges(id CellID) []Edge {
	v := g.invariants()
	if id < 0 || int(id) >= v.nCells {
		return nil
	}
	return v.out[v.outOff[id]:v.outOff[id+1]:v.outOff[id+1]]
}

// TransferGroup is a set of edges leaving one producer with identical
// payloads. When any consumer sits on the other end, the payload crosses
// the wireless link exactly once for the whole group.
type TransferGroup struct {
	From      CellID
	Class     Payload
	Bits      int64
	Values    int
	Consumers []CellID
}

// TransferGroups partitions the non-source edges by (producer, payload
// class), in deterministic order. Source edges are excluded: the raw
// segment is priced by the generator's F→D edge. The groups and their
// Consumers slices are shared; callers must not modify them.
func (g *Graph) TransferGroups() []TransferGroup {
	tg := g.invariants().groups
	return tg[:len(tg):len(tg)]
}

func transferGroups(edges []Edge) []TransferGroup {
	type key struct {
		from  CellID
		class Payload
	}
	idx := make(map[key]int)
	var out []TransferGroup
	for _, e := range edges {
		if e.From == SourceID {
			continue
		}
		k := key{e.From, e.Class}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, TransferGroup{From: e.From, Class: e.Class, Bits: e.Bits, Values: e.Values})
		}
		if out[i].Bits != e.Bits {
			// Same payload class must carry the same data; keep the max
			// defensively (cannot happen for graphs built by Build).
			if e.Bits > out[i].Bits {
				out[i].Bits = e.Bits
			}
		}
		out[i].Consumers = append(out[i].Consumers, e.To)
	}
	for i := range out {
		c := out[i].Consumers
		out[i].Consumers = c[:len(c):len(c)]
	}
	return out
}

// TopoOrder returns the cell IDs in a topological order (the data-driven
// execution order of §2.2). The construction in Build already appends
// cells in dependency order, but TopoOrder verifies it and returns an
// explicit order, erroring on cycles.
func (g *Graph) TopoOrder() ([]CellID, error) {
	indeg := make([]int, len(g.Cells))
	for _, e := range g.Edges {
		if e.From != SourceID {
			indeg[e.To]++
		}
	}
	queue := make([]CellID, 0, len(g.Cells))
	for i := range g.Cells {
		if indeg[i] == 0 {
			queue = append(queue, CellID(i))
		}
	}
	order := make([]CellID, 0, len(g.Cells))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.Edges {
			if e.From == u {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != len(g.Cells) {
		return nil, fmt.Errorf("topology: cycle detected (%d of %d cells ordered)", len(order), len(g.Cells))
	}
	return order, nil
}

// Relabel returns a copy of the graph with cell IDs permuted:
// perm[old] is the new ID of the cell currently numbered old. perm must
// be a permutation of 0..len(Cells)-1. Edges, the output cell and each
// Cell.ID are rewritten consistently; SourceID is left untouched. The
// metamorphic battery uses this to assert the partitioner is invariant
// under renaming.
func (g *Graph) Relabel(perm []CellID) (*Graph, error) {
	n := len(g.Cells)
	if len(perm) != n {
		return nil, fmt.Errorf("topology: perm has %d entries for %d cells", len(perm), n)
	}
	seen := make([]bool, n)
	for old, nw := range perm {
		if int(nw) < 0 || int(nw) >= n {
			return nil, fmt.Errorf("topology: perm[%d] = %d out of range", old, nw)
		}
		if seen[nw] {
			return nil, fmt.Errorf("topology: perm maps two cells to %d", nw)
		}
		seen[nw] = true
	}
	out := &Graph{
		Cells:      make([]Cell, n),
		Edges:      make([]Edge, len(g.Edges)),
		SegLen:     g.SegLen,
		SourceBits: g.SourceBits,
		Output:     perm[g.Output],
	}
	for old, c := range g.Cells {
		c.ID = perm[old]
		out.Cells[perm[old]] = c
	}
	for i, e := range g.Edges {
		if e.From != SourceID {
			e.From = perm[e.From]
		}
		e.To = perm[e.To]
		out.Edges[i] = e
	}
	return out.seal(), nil
}

// NumByRole counts cells per role.
func (g *Graph) NumByRole() map[Role]int {
	m := make(map[Role]int)
	for _, c := range g.Cells {
		m[c.Role]++
	}
	return m
}

// Validate checks structural invariants: edges reference valid cells,
// every non-source cell has at least one input, the output is a fusion
// cell with no out-edges.
func (g *Graph) Validate() error {
	if int(g.Output) < 0 || int(g.Output) >= len(g.Cells) {
		return fmt.Errorf("topology: output cell %d out of range", g.Output)
	}
	if g.Cells[g.Output].Role != RoleFusion {
		return fmt.Errorf("topology: output cell is %v, want fusion", g.Cells[g.Output].Role)
	}
	hasIn := make([]bool, len(g.Cells))
	for _, e := range g.Edges {
		if e.From != SourceID && (int(e.From) < 0 || int(e.From) >= len(g.Cells)) {
			return fmt.Errorf("topology: edge from invalid cell %d", e.From)
		}
		if int(e.To) < 0 || int(e.To) >= len(g.Cells) {
			return fmt.Errorf("topology: edge to invalid cell %d", e.To)
		}
		if e.Values <= 0 || e.Bits <= 0 {
			return fmt.Errorf("topology: edge %d→%d carries no data", e.From, e.To)
		}
		hasIn[e.To] = true
	}
	for i, c := range g.Cells {
		if !hasIn[i] {
			return fmt.Errorf("topology: cell %s has no inputs", c.Name)
		}
	}
	if len(g.OutEdges(g.Output)) != 0 {
		return fmt.Errorf("topology: fusion cell must be terminal")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}
