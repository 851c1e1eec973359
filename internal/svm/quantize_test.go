package svm

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/fixed"
)

// decisionFixedByFloat is DecisionFixed as first written: every
// constant converted with FromFloat on every call.
func decisionFixedByFloat(m *Model, x []fixed.Num) fixed.Num {
	if m.Kernel == Linear && m.W != nil {
		acc := fixed.FromFloat(m.Bias)
		for d, w := range m.W {
			acc = fixed.Add(acc, fixed.Mul(fixed.FromFloat(w), x[d]))
		}
		return acc
	}
	gamma := fixed.FromFloat(m.Gamma)
	acc := fixed.FromFloat(m.Bias)
	for i, v := range m.Vectors {
		var d2 fixed.Num
		for d := range v {
			diff := fixed.Sub(fixed.FromFloat(v[d]), x[d])
			d2 = fixed.Add(d2, fixed.Mul(diff, diff))
		}
		kv := fixed.Exp(fixed.Neg(fixed.Mul(gamma, d2)))
		acc = fixed.Add(acc, fixed.Mul(fixed.FromFloat(m.Coeffs[i]), kv))
	}
	return acc
}

// randomModel builds a model literal whose constants are drawn from
// pick; kernel and W presence vary with the draw.
func randomModel(rng *rand.Rand, dim int, pick func() float64) *Model {
	m := &Model{Kernel: RBF, Gamma: pick(), Bias: pick()}
	switch rng.Intn(3) {
	case 0:
		m.Kernel = Linear
		m.W = make([]float64, dim)
		for d := range m.W {
			m.W[d] = pick()
		}
	case 1:
		m.Kernel = Linear // no W: the SV sum with the exp kernel
	}
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = pick()
		}
		m.Vectors = append(m.Vectors, v)
		m.Coeffs = append(m.Coeffs, pick())
	}
	return m
}

// DecisionFixed on quantized constants equals the per-call conversion,
// for trained models, random literals, and literals holding NaN, ±Inf
// and values past the Q16.16 range; a literal never quantized takes the
// same result through its one-call conversion.
func TestQuantizedDecisionFixedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 40000, -40000, 32767.99999, -32768, 1e-6, 0}
	x, y := blobs(rng, 120, 6, 2)
	var models []*Model
	for _, p := range []Params{{Kernel: RBF, Seed: 3}, {Kernel: Linear, Seed: 3}, {Kernel: RBF, Algorithm: AlgMVP}} {
		m, err := Train(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := m.Prune(0.5)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m, pruned)
	}
	for i := 0; i < 300; i++ {
		pick := func() float64 { return rng.NormFloat64() * 3 }
		if i%3 == 0 {
			pick = func() float64 {
				if rng.Intn(3) == 0 {
					return special[rng.Intn(len(special))]
				}
				return rng.NormFloat64() * 2
			}
		}
		models = append(models, randomModel(rng, 6, pick))
	}
	for mi, m := range models {
		literal := *m
		literal.q = nil
		quantized := *m
		quantized.Quantize()
		for k := 0; k < 20; k++ {
			in := make([]fixed.Num, 6)
			for d := range in {
				switch rng.Intn(6) {
				case 0:
					in[d] = fixed.Num(rng.Int31())
				case 1:
					in[d] = fixed.Min
				default:
					in[d] = fixed.FromFloat(rng.NormFloat64() * 2)
				}
			}
			want := decisionFixedByFloat(m, in)
			if got := quantized.DecisionFixed(in); got != want {
				t.Fatalf("model %d input %v: quantized %d, reference %d", mi, in, got, want)
			}
			if got := literal.DecisionFixed(in); got != want {
				t.Fatalf("model %d input %v: unquantized literal %d, reference %d", mi, in, got, want)
			}
			if got := m.DecisionFixed(in); got != want {
				t.Fatalf("model %d input %v: as built %d, reference %d", mi, in, got, want)
			}
		}
	}
}

// A trained model evaluates DecisionFixed without allocating.
func TestDecisionFixedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := blobs(rng, 100, 5, 2)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := fixed.FromSlice(x[0])
	if n := testing.AllocsPerRun(100, func() { m.DecisionFixed(in) }); n != 0 {
		t.Errorf("DecisionFixed allocates %v times per call", n)
	}
}

func BenchmarkDecisionFixed(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := blobs(rng, 200, 12, 2)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	in := make([][]fixed.Num, len(x))
	for i, row := range x {
		in[i] = fixed.FromSlice(row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.DecisionFixed(in[i%len(in)])
	}
}
