// Package svm implements the binary support vector machine used as the
// base classifier of XPro's random-subspace ensemble (§2.1, §4.4).
//
// The paper uses SVMs with a radial-basis-function (RBF) kernel as the
// base classifiers ("We choose a binary SVM classifier with radial basis
// function (RBF) as its kernel", §4.4) and cites the linear kernel as the
// limit of what a pure in-sensor engine can traditionally afford. Both
// kernels are provided. Training uses sequential minimal optimization
// (SMO) with a full kernel cache — training happens offline on the
// aggregator/workstation; only the resulting support vectors are
// compiled into functional cells.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xpro/internal/fixed"
	"xpro/internal/linalg"
)

// KernelKind selects the kernel function.
type KernelKind int

const (
	// Linear is K(a,b) = a·b.
	Linear KernelKind = iota
	// RBF is K(a,b) = exp(−γ‖a−b‖²).
	RBF
)

func (k KernelKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case RBF:
		return "rbf"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// Algorithm selects the dual optimizer.
type Algorithm int

const (
	// AlgSMO is Platt-style SMO with a randomized second choice — the
	// default, whose randomized behaviour is part of the calibrated
	// evaluation protocol.
	AlgSMO Algorithm = iota
	// AlgMVP is maximal-violating-pair working-set selection
	// (LIBSVM-style): deterministic and typically much faster on
	// overlapping training sets.
	AlgMVP
)

// Params configures SMO training.
type Params struct {
	Kernel KernelKind
	// Algorithm selects the optimizer (default AlgSMO).
	Algorithm Algorithm
	// C is the soft-margin penalty. Defaults to 1.
	C float64
	// Gamma is the RBF width. Defaults to 1/dim.
	Gamma float64
	// Tol is the KKT violation tolerance. Defaults to 1e-3.
	Tol float64
	// MaxPasses bounds full no-progress sweeps. Defaults to 5.
	MaxPasses int
	// Seed drives SMO's randomized second-choice heuristic.
	Seed int64
}

func (p Params) withDefaults(dim int) Params {
	if p.C == 0 {
		p.C = 1
	}
	if p.Gamma == 0 && dim > 0 {
		p.Gamma = 1 / float64(dim)
	}
	if p.Tol == 0 {
		p.Tol = 1e-3
	}
	if p.MaxPasses == 0 {
		p.MaxPasses = 5
	}
	return p
}

// Model is a trained binary SVM. Labels are −1/+1.
type Model struct {
	Kernel  KernelKind
	Gamma   float64
	Vectors [][]float64 // support vectors
	Coeffs  []float64   // αᵢ·yᵢ per support vector
	Bias    float64
	// W is the explicit weight vector, available for linear kernels
	// (collapsing the SVs to one dot product, as an in-sensor linear
	// SVM cell would).
	W []float64

	// q holds the model's constants in Q16.16, as the in-sensor SVM
	// cell's registers hold them. Train, TrainMVP and Prune set it;
	// Quantize sets it for a model built or decoded by hand.
	q *quantized
}

// quantized is a model's Q16.16 register file: the support vectors
// flattened row-major, the coefficients, gamma, the bias and, for a
// linear model with W, the weight vector.
type quantized struct {
	linear      bool
	dim         int
	gamma, bias fixed.Num
	sv, coeffs  []fixed.Num
	w           []fixed.Num
}

func quantize(m *Model) *quantized {
	q := &quantized{
		linear: m.Kernel == Linear && m.W != nil,
		gamma:  fixed.FromFloat(m.Gamma),
		bias:   fixed.FromFloat(m.Bias),
	}
	if q.linear {
		q.w = fixed.FromSlice(m.W)
		return q
	}
	q.coeffs = fixed.FromSlice(m.Coeffs)
	if len(m.Vectors) > 0 {
		q.dim = len(m.Vectors[0])
	}
	q.sv = make([]fixed.Num, 0, len(m.Vectors)*q.dim)
	for _, v := range m.Vectors {
		q.sv = append(q.sv, fixed.FromSlice(v)...)
	}
	return q
}

// Quantize converts the model's constants to Q16.16 once, for
// DecisionFixed. Call it after building a Model literal or decoding
// one, and again after changing its fields; it returns m.
func (m *Model) Quantize() *Model {
	m.q = quantize(m)
	return m
}

// ErrBadTrainingSet reports an unusable training set.
var ErrBadTrainingSet = errors.New("svm: training set must contain both classes and equal-length rows")

func kernel(kind KernelKind, gamma float64, a, b []float64) float64 {
	switch kind {
	case RBF:
		var d2 float64
		for i := range a {
			d := a[i] - b[i]
			d2 += d * d
		}
		return math.Exp(-gamma * d2)
	default:
		return linalg.Dot(a, b)
	}
}

// Train fits an SVM to rows x with labels y ∈ {−1, +1} using the
// configured algorithm.
func Train(x [][]float64, y []int, p Params) (*Model, error) {
	if p.Algorithm == AlgMVP {
		return TrainMVP(x, y, p)
	}
	return trainSMO(x, y, p)
}

func trainSMO(x [][]float64, y []int, p Params) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrBadTrainingSet
	}
	dim := len(x[0])
	pos, neg := 0, 0
	for i, row := range x {
		if len(row) != dim {
			return nil, ErrBadTrainingSet
		}
		switch y[i] {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, fmt.Errorf("svm: label %d at row %d, want -1 or +1", y[i], i)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrBadTrainingSet
	}
	p = p.withDefaults(dim)
	rng := rand.New(rand.NewSource(p.Seed))

	// Full kernel matrix; the training sets here are ≤ ~1k rows.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel(p.Kernel, p.Gamma, x[i], x[j])
			k[i][j], k[j][i] = v, v
		}
	}

	alpha := make([]float64, n)
	var b float64
	// nonzero lists, ascending, the indices with alpha != 0: f sums the
	// same terms in the same order as a scan over all n, skipping the
	// zeros (most of them, for a sparse solution) without visiting them.
	var nonzero []int
	inNonzero := make([]bool, n)
	track := func(j int) {
		if (alpha[j] != 0) == inNonzero[j] {
			return
		}
		pos := sort.SearchInts(nonzero, j)
		if inNonzero[j] {
			nonzero = append(nonzero[:pos], nonzero[pos+1:]...)
		} else {
			nonzero = append(nonzero, 0)
			copy(nonzero[pos+1:], nonzero[pos:])
			nonzero[pos] = j
		}
		inNonzero[j] = !inNonzero[j]
	}
	f := func(i int) float64 {
		s := -b
		ki := k[i]
		for _, j := range nonzero {
			s += alpha[j] * float64(y[j]) * ki[j]
		}
		return s
	}

	passes := 0
	for passes < p.MaxPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - float64(y[i])
			if (float64(y[i])*ei < -p.Tol && alpha[i] < p.C) || (float64(y[i])*ei > p.Tol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - float64(y[j])
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(p.C, p.C+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-p.C)
					hi = math.Min(p.C, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*k[i][j] - k[i][i] - k[j][j]
				if eta >= 0 {
					continue
				}
				alpha[j] = aj - float64(y[j])*(ei-ej)/eta
				if alpha[j] > hi {
					alpha[j] = hi
				} else if alpha[j] < lo {
					alpha[j] = lo
				}
				if math.Abs(alpha[j]-aj) < 1e-7 {
					alpha[j] = aj
					continue
				}
				alpha[i] = ai + float64(y[i]*y[j])*(aj-alpha[j])
				track(i)
				track(j)
				b1 := b + ei + float64(y[i])*(alpha[i]-ai)*k[i][i] + float64(y[j])*(alpha[j]-aj)*k[i][j]
				b2 := b + ej + float64(y[i])*(alpha[i]-ai)*k[i][j] + float64(y[j])*(alpha[j]-aj)*k[j][j]
				switch {
				case alpha[i] > 0 && alpha[i] < p.C:
					b = b1
				case alpha[j] > 0 && alpha[j] < p.C:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &Model{Kernel: p.Kernel, Gamma: p.Gamma, Bias: -b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			m.Vectors = append(m.Vectors, append([]float64(nil), x[i]...))
			m.Coeffs = append(m.Coeffs, alpha[i]*float64(y[i]))
		}
	}
	if p.Kernel == Linear {
		m.W = make([]float64, dim)
		for s, v := range m.Vectors {
			for d := range v {
				m.W[d] += m.Coeffs[s] * v[d]
			}
		}
	}
	return m.Quantize(), nil
}

// Decision returns the real-valued decision function at x
// (positive → class +1).
func (m *Model) Decision(x []float64) float64 {
	if m.Kernel == Linear && m.W != nil {
		return linalg.Dot(m.W, x) + m.Bias
	}
	s := m.Bias
	for i, v := range m.Vectors {
		s += m.Coeffs[i] * kernel(m.Kernel, m.Gamma, v, x)
	}
	return s
}

// Predict returns the predicted label (−1 or +1) at x.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy returns the fraction of rows classified correctly.
func (m *Model) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i, row := range x {
		if m.Predict(row) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

// NumSV returns the support-vector count, which sizes the in-sensor SVM
// functional cell ("some basic SVM classifiers have fewer supporting
// vectors due to the good data separability of the dataset", §5.5).
func (m *Model) NumSV() int { return len(m.Vectors) }

// Dim returns the input dimensionality.
func (m *Model) Dim() int {
	if len(m.Vectors) > 0 {
		return len(m.Vectors[0])
	}
	return len(m.W)
}

// DecisionFixed evaluates the decision function in Q16.16 fixed point,
// exactly as the in-sensor SVM functional cell computes it: the S-ALU's
// multiply/accumulate plus the super-computation exp primitive for the
// RBF kernel (§3.1.1). It reads the constants Quantize converted; a
// model without them converts them for this call only.
func (m *Model) DecisionFixed(x []fixed.Num) fixed.Num {
	q := m.q
	if q == nil {
		q = quantize(m)
	}
	acc := q.bias
	if q.linear {
		for d, w := range q.w {
			acc = fixed.Add(acc, fixed.Mul(w, x[d]))
		}
		return acc
	}
	for i, c := range q.coeffs {
		v := q.sv[i*q.dim : (i+1)*q.dim]
		var d2 fixed.Num
		for d, sv := range v {
			diff := fixed.Sub(sv, x[d])
			d2 = fixed.Add(d2, fixed.Mul(diff, diff))
		}
		kv := fixed.Exp(fixed.Neg(fixed.Mul(q.gamma, d2)))
		acc = fixed.Add(acc, fixed.Mul(c, kv))
	}
	return acc
}

// PredictFixed returns the fixed-point predicted label (−1 or +1).
func (m *Model) PredictFixed(x []fixed.Num) int {
	if m.DecisionFixed(x) >= 0 {
		return 1
	}
	return -1
}
