package svm

import (
	"fmt"
	"math"
	"sort"
)

// Prune returns a copy of the model keeping only the ceil(keepFrac·n)
// support vectors with the largest |coefficient|. Small-coefficient SVs
// contribute least to the decision function, so pruning trades a little
// accuracy for a proportional cut in the in-sensor SVM cell's energy and
// latency (which scale with the SV count, §5.5). Linear models are
// returned unchanged — their cell already collapses to one dot product.
func (m *Model) Prune(keepFrac float64) (*Model, error) {
	if keepFrac <= 0 || keepFrac > 1 {
		return nil, fmt.Errorf("svm: keep fraction %v outside (0,1]", keepFrac)
	}
	if m.Kernel == Linear || len(m.Vectors) == 0 {
		return m, nil
	}
	n := len(m.Vectors)
	keep := int(math.Ceil(keepFrac * float64(n)))
	if keep >= n {
		return m, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(m.Coeffs[idx[a]]) > math.Abs(m.Coeffs[idx[b]])
	})
	out := &Model{Kernel: m.Kernel, Gamma: m.Gamma, Bias: m.Bias}
	// Rescale the kept coefficients so the summed positive and negative
	// masses match the original model's — first-order compensation for
	// the dropped mass, keeping the decision boundary near its place.
	var posAll, negAll, posKeep, negKeep float64
	for _, c := range m.Coeffs {
		if c > 0 {
			posAll += c
		} else {
			negAll -= c
		}
	}
	for _, i := range idx[:keep] {
		if c := m.Coeffs[i]; c > 0 {
			posKeep += c
		} else {
			negKeep -= c
		}
	}
	posScale, negScale := 1.0, 1.0
	if posKeep > 0 {
		posScale = posAll / posKeep
	}
	if negKeep > 0 {
		negScale = negAll / negKeep
	}
	for _, i := range idx[:keep] {
		out.Vectors = append(out.Vectors, m.Vectors[i])
		c := m.Coeffs[i]
		if c > 0 {
			c *= posScale
		} else {
			c *= negScale
		}
		out.Coeffs = append(out.Coeffs, c)
	}
	return out.Quantize(), nil
}
