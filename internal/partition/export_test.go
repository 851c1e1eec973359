package partition

import "time"

// LadderSides returns the source side of every weight of the λ ladder,
// solved in place on one s-t graph.
func (pr *Problem) LadderSides() [][]bool {
	st := pr.acquireST()
	defer pr.releaseST(st)
	sides := make([][]bool, len(lambdaLadder))
	for i, l := range lambdaLadder {
		sides[i] = append([]bool(nil), st.solve(l)...)
	}
	return sides
}

// ReferenceLadderSides is LadderSides on a fresh graph per weight.
func (pr *Problem) ReferenceLadderSides() [][]bool {
	sides := make([][]bool, len(lambdaLadder))
	for i, l := range lambdaLadder {
		_, sides[i], _ = referenceSTGraph(pr, l).MinCut(nodeF, nodeB)
	}
	return sides
}

// ReferenceGenerate is Generate with the cuts of fresh graphs.
func (pr *Problem) ReferenceGenerate(delayOf func(Placement) float64, limit float64) (Result, error) {
	return pr.generateFrom(referenceSweep(pr), delayOf, limit, time.Now())
}

// Inflated is pr re-priced on a link whose every bit goes on the air
// inf times, the way the adaptive controller derates the channel.
func (pr *Problem) Inflated(inf float64) *Problem {
	q := *pr
	q.Link.TxJPerBit *= inf
	q.Link.RxJPerBit *= inf
	q.Link.RateBps /= inf
	return &q
}

// CheckEnergyFloor exports checkEnergyFloor.
var CheckEnergyFloor = checkEnergyFloor
