package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, -3.25, 100.125, -100.125, 32767, -32768}
	for _, f := range cases {
		got := FromFloat(f).Float()
		if got != f {
			t.Errorf("FromFloat(%v).Float() = %v", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e9) != Max {
		t.Errorf("FromFloat(1e9) = %v, want Max", FromFloat(1e9))
	}
	if FromFloat(-1e9) != Min {
		t.Errorf("FromFloat(-1e9) = %v, want Min", FromFloat(-1e9))
	}
	if FromFloat(math.NaN()) != 0 {
		t.Errorf("FromFloat(NaN) = %v, want 0", FromFloat(math.NaN()))
	}
}

func TestFromFloatRounding(t *testing.T) {
	// 2^-17 is below the resolution; it must round to nearest, not truncate.
	tiny := 1.0 / (1 << 17)
	if got := FromFloat(1 + 3*tiny); got != One+Num(2) {
		t.Errorf("FromFloat(1+3·2^-17) = %d, want %d", got, One+Num(2))
	}
}

func TestFromInt(t *testing.T) {
	for _, i := range []int{0, 1, -1, 42, -42, 32767, -32768} {
		if got := FromInt(i).Int(); got != i {
			t.Errorf("FromInt(%d).Int() = %d", i, got)
		}
	}
	if FromInt(1<<20) != Max {
		t.Error("FromInt(2^20) should saturate to Max")
	}
	if FromInt(-(1 << 20)) != Min {
		t.Error("FromInt(-2^20) should saturate to Min")
	}
}

func TestIntTruncatesTowardZero(t *testing.T) {
	if got := FromFloat(-1.5).Int(); got != -1 {
		t.Errorf("(-1.5).Int() = %d, want -1", got)
	}
	if got := FromFloat(1.5).Int(); got != 1 {
		t.Errorf("(1.5).Int() = %d, want 1", got)
	}
}

func TestAddSubSaturate(t *testing.T) {
	if Add(Max, One) != Max {
		t.Error("Max+1 should saturate")
	}
	if Sub(Min, One) != Min {
		t.Error("Min-1 should saturate")
	}
	if Add(FromInt(2), FromInt(3)) != FromInt(5) {
		t.Error("2+3 != 5")
	}
}

func TestNegAbs(t *testing.T) {
	if Neg(Min) != Max {
		t.Error("Neg(Min) should saturate to Max")
	}
	if Abs(Min) != Max {
		t.Error("Abs(Min) should saturate to Max")
	}
	if Abs(FromInt(-7)) != FromInt(7) {
		t.Error("Abs(-7) != 7")
	}
}

func TestMul(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.5, -0.5, 0.25},
		{100, 100, 10000},
	}
	for _, c := range cases {
		got := Mul(FromFloat(c.x), FromFloat(c.y)).Float()
		if got != c.want {
			t.Errorf("Mul(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if Mul(FromInt(30000), FromInt(30000)) != Max {
		t.Error("30000*30000 should saturate")
	}
}

func TestDiv(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 4, 0.25},
		{1, -4, -0.25},
		{10, 0.5, 20},
	}
	for _, c := range cases {
		got := Div(FromFloat(c.x), FromFloat(c.y)).Float()
		if got != c.want {
			t.Errorf("Div(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestDivByZero(t *testing.T) {
	if Div(One, 0) != Max {
		t.Error("1/0 should saturate to Max")
	}
	if Div(-One, 0) != Min {
		t.Error("-1/0 should saturate to Min")
	}
	if Div(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
}

func TestSqrtExact(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 1}, {4, 2}, {9, 3}, {0.25, 0.5}, {2.25, 1.5}, {10000, 100},
	}
	for _, c := range cases {
		got := Sqrt(FromFloat(c.x)).Float()
		if got != c.want {
			t.Errorf("Sqrt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if Sqrt(FromInt(-4)) != 0 {
		t.Error("Sqrt of negative should clamp to 0")
	}
}

func TestSqrtAccuracy(t *testing.T) {
	for f := 0.01; f < 30000; f *= 1.7 {
		got := Sqrt(FromFloat(f)).Float()
		want := math.Sqrt(f)
		if math.Abs(got-want) > 2.0/(1<<16)+want*1e-4 {
			t.Errorf("Sqrt(%v) = %v, want %v", f, got, want)
		}
	}
}

func TestExpAccuracy(t *testing.T) {
	for f := -10.0; f <= 10.0; f += 0.37 {
		got := Exp(FromFloat(f)).Float()
		want := math.Exp(f)
		// Relative error budget: polynomial truncation + fixed-point
		// quantization of intermediate terms.
		tol := want*2e-3 + 3.0/(1<<16)
		if math.Abs(got-want) > tol {
			t.Errorf("Exp(%v) = %v, want %v (err %v > tol %v)", f, got, want, got-want, tol)
		}
	}
}

func TestExpSaturation(t *testing.T) {
	if Exp(FromInt(20)) != Max {
		t.Error("Exp(20) should saturate to Max")
	}
	if Exp(FromInt(-20)) != 0 {
		t.Error("Exp(-20) should underflow to 0")
	}
	if Exp(0) != One {
		t.Errorf("Exp(0) = %v, want 1", Exp(0))
	}
}

// expByDiv is Exp as first written: bounds converted with FromFloat on
// every call and every division through the run-time divider Div.
func expByDiv(x Num) Num {
	if x > FromFloat(10.39) {
		return Max
	}
	if x < FromFloat(-11.1) {
		return 0
	}
	const ln2 = Num(45426)
	k := int32(Div(x, ln2)+Half) >> Shift
	r := Sub(x, Num(int64(k)*int64(ln2)))
	term := Add(One, Div(r, FromInt(5)))
	term = Add(One, Mul(Div(r, FromInt(4)), term))
	term = Add(One, Mul(Div(r, FromInt(3)), term))
	term = Add(One, Mul(Div(r, FromInt(2)), term))
	term = Add(One, Mul(r, term))
	if k >= 0 {
		return sat64(int64(term) << uint(k))
	}
	sh := uint(-k)
	if sh >= 47 {
		return 0
	}
	return Num(int64(term) >> sh)
}

// Exp's constant divisors and hoisted bounds give the run-time
// divider's result on every input between the bounds, and on ten past
// each.
func TestExpMatchesRuntimeDivision(t *testing.T) {
	if expHi != FromFloat(10.39) || expLo != FromFloat(-11.1) {
		t.Fatalf("bounds %d, %d; FromFloat gives %d, %d", expHi, expLo, FromFloat(10.39), FromFloat(-11.1))
	}
	n := 0
	for x := expLo - 10; x <= expHi+10; x++ {
		if got, want := Exp(x), expByDiv(x); got != want {
			t.Fatalf("Exp(%d) = %d, run-time division gives %d", x, got, want)
		}
		n++
	}
	if n != 1408390 {
		t.Errorf("checked %d inputs, want 1408390", n)
	}
}

func TestRecip(t *testing.T) {
	if Recip(FromInt(4)).Float() != 0.25 {
		t.Error("Recip(4) != 0.25")
	}
}

func TestSliceConversions(t *testing.T) {
	fs := []float64{0, 1.5, -2.25}
	back := ToSlice(FromSlice(fs))
	for i := range fs {
		if back[i] != fs[i] {
			t.Errorf("round trip [%d]: %v != %v", i, back[i], fs[i])
		}
	}
}

// Property: Add is commutative and monotone, and never panics.
func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		return Add(Num(a), Num(b)) == Add(Num(b), Num(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mul is commutative.
func TestQuickMulCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		return Mul(Num(a), Num(b)) == Mul(Num(b), Num(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mul matches float multiplication within quantization error
// whenever the product is in range.
func TestQuickMulAccuracy(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Num(a)<<4, Num(b)<<4 // keep products well in range
		want := x.Float() * y.Float()
		got := Mul(x, y).Float()
		return math.Abs(got-want) <= 1.0/(1<<16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Div inverts Mul: (a*b)/b ≈ a when b ≠ 0 and a*b in range.
func TestQuickDivInvertsMul(t *testing.T) {
	f := func(a, b int16) bool {
		if b == 0 {
			return true
		}
		x, y := Num(a)<<2, Num(b)<<2
		p := Mul(x, y)
		back := Div(p, y)
		// Quantization of the product then quotient: error ≤ ~(1+|1/y|)·LSB.
		tol := 1.0 + math.Abs(1.0/y.Float())
		return math.Abs(float64(back-x)) <= tol+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sqrt(x)² ≤ x+eps and (Sqrt(x)+1)² ≥ x for non-negative x —
// the defining property of a correctly rounded integer square root.
func TestQuickSqrtBounds(t *testing.T) {
	f := func(a int32) bool {
		x := Num(a)
		if x < 0 {
			x = -x
		}
		if x < 0 { // Min edge
			return true
		}
		s := Sqrt(x)
		lo := float64(s-1) / float64(One)
		hi := float64(s+1) / float64(One)
		v := x.Float()
		return lo*lo <= v && hi*hi >= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: saturation ordering — Add never produces a result on the
// wrong side of either operand when the other is non-negative/non-positive.
func TestQuickAddMonotone(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Num(a), Num(b)
		s := Add(x, y)
		if y >= 0 && s < x && s != Max {
			return false
		}
		if y <= 0 && s > x && s != Min {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := FromFloat(3.14159), FromFloat(2.71828)
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}

func BenchmarkSqrt(b *testing.B) {
	x := FromFloat(1234.5678)
	for i := 0; i < b.N; i++ {
		_ = Sqrt(x)
	}
}

func BenchmarkExp(b *testing.B) {
	x := FromFloat(-1.5)
	for i := 0; i < b.N; i++ {
		_ = Exp(x)
	}
}
