// Package fixed implements Q16.16 signed fixed-point arithmetic.
//
// The paper (§4.4) specifies that XPro functional cells operate on 32-bit
// fixed-point numbers with 16 integer bits and 16 fractional bits. This
// package is the arithmetic substrate for the in-sensor analytic part: the
// sensor node is specialized hardware (ASIC/FPGA) with no floating-point
// unit, so every in-sensor functional cell computes in Q16.16.
//
// All operations saturate instead of wrapping on overflow, mirroring the
// saturating ALUs commonly used in biosignal front-ends: a saturated
// feature value degrades classification gracefully, whereas wrap-around
// produces wild misclassifications.
package fixed

import (
	"fmt"
	"math"
)

// Num is a Q16.16 signed fixed-point number: the real value is Num / 2^16.
type Num int32

// Shift is the number of fractional bits in a Num.
const Shift = 16

// One is the fixed-point representation of 1.0.
const One Num = 1 << Shift

// Half is the fixed-point representation of 0.5.
const Half Num = 1 << (Shift - 1)

// Max and Min are the largest and smallest representable values
// (approximately ±32768).
const (
	Max Num = math.MaxInt32
	Min Num = math.MinInt32
)

// Eps is the smallest positive increment (2^-16 ≈ 1.5e-5).
const Eps Num = 1

// FromFloat converts a float64 to the nearest representable Num,
// saturating at the representable range.
func FromFloat(f float64) Num {
	scaled := f * float64(One)
	switch {
	case math.IsNaN(scaled):
		return 0
	case scaled >= float64(Max):
		return Max
	case scaled <= float64(Min):
		return Min
	}
	return Num(math.Round(scaled))
}

// FromInt converts an integer to fixed point, saturating on overflow.
func FromInt(i int) Num {
	if i > math.MaxInt32>>Shift {
		return Max
	}
	if i < math.MinInt32>>Shift {
		return Min
	}
	return Num(i) << Shift
}

// Float returns the value as a float64.
func (x Num) Float() float64 { return float64(x) / float64(One) }

// Int returns the integer part, truncated toward zero.
func (x Num) Int() int {
	v := int64(x)
	if v < 0 {
		return int(-(-v >> Shift))
	}
	return int(v >> Shift)
}

// String formats the value in decimal.
func (x Num) String() string { return fmt.Sprintf("%g", x.Float()) }

func sat64(v int64) Num {
	if v > math.MaxInt32 {
		return Max
	}
	if v < math.MinInt32 {
		return Min
	}
	return Num(v)
}

// Add returns x+y with saturation.
func Add(x, y Num) Num { return sat64(int64(x) + int64(y)) }

// Sub returns x−y with saturation.
func Sub(x, y Num) Num { return sat64(int64(x) - int64(y)) }

// Neg returns −x with saturation (−Min saturates to Max).
func Neg(x Num) Num {
	if x == Min {
		return Max
	}
	return -x
}

// Abs returns |x| with saturation (|Min| saturates to Max).
func Abs(x Num) Num {
	if x < 0 {
		return Neg(x)
	}
	return x
}

// Mul returns x·y rounded to nearest, with saturation.
func Mul(x, y Num) Num {
	p := int64(x) * int64(y)
	// Round to nearest: add half an LSB before shifting.
	p += 1 << (Shift - 1)
	return sat64(p >> Shift)
}

// Div returns x/y rounded toward nearest, with saturation.
// Division by zero saturates in the direction of x's sign
// (0/0 returns 0), mimicking a hardware divider's clamped output.
func Div(x, y Num) Num {
	if y == 0 {
		switch {
		case x > 0:
			return Max
		case x < 0:
			return Min
		default:
			return 0
		}
	}
	n := int64(x) << Shift
	q := n / int64(y)
	r := n % int64(y)
	// Round half away from zero: bump |q| when |r| ≥ |y|/2, in the
	// direction of the exact quotient's sign.
	if 2*absInt64(r) >= absInt64(int64(y)) {
		if (n < 0) == (int64(y) < 0) {
			q++
		} else {
			q--
		}
	}
	return sat64(q)
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Sqrt returns the square root of x. Negative inputs return 0 (a hardware
// square-root unit clamps its input domain).
func Sqrt(x Num) Num {
	if x <= 0 {
		return 0
	}
	// Compute sqrt(x * 2^16) on the 64-bit integer (x<<16) using the
	// classic non-restoring integer square root, which is exactly what
	// the Std functional cell's square-root stage implements in hardware.
	v := uint64(x) << Shift
	var res uint64
	// Highest power of four ≤ v.
	bit := uint64(1) << 46 // (x<<16) < 2^47
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	// Round to nearest: if remainder exceeds res, res+1 is closer.
	if v > res {
		res++
	}
	return sat64(int64(res))
}

// Exp's saturation bounds: e^10.39 ≈ 32500 is the last value below the
// Max range; e^-11.1 < Eps.
const (
	expHi Num = 680919  // FromFloat(10.39)
	expLo Num = -727450 // FromFloat(-11.1)
)

// ln2 is round(ln2 · 2^16).
const ln2 = 45426

// divConst is Div(x, y) for a positive divisor that is a compile-time
// constant at every call site, where the quotient cannot saturate:
// x·2^16 / y rounded half away from zero. Inlined with a constant y,
// the division compiles to a multiply.
func divConst(x Num, y int64) Num {
	n := int64(x) << Shift
	q := n / y
	if r := n % y; 2*absInt64(r) >= y {
		if n < 0 {
			q--
		} else {
			q++
		}
	}
	return Num(q)
}

// Exp returns e^x. It mirrors the "super computation" support of the
// S-ALU (§3.1.1), which provides exponent, square root and reciprocal for
// the generic classification algorithms (the RBF kernel needs exp).
//
// The implementation is range reduction to x = k·ln2 + r, |r| ≤ ln2/2,
// followed by a degree-5 polynomial for e^r — the same
// shift-and-polynomial structure a fixed-point hardware exp unit uses.
// The divisors are the hardware unit's constants, so every division is
// by a constant (the same rounding as Div).
func Exp(x Num) Num {
	if x > expHi {
		return Max
	}
	if x < expLo {
		return 0
	}
	// k = round(x / ln2)
	k := int32(divConst(x, ln2)+Half) >> Shift
	r := Sub(x, Num(int64(k)*ln2))
	// e^r ≈ 1 + r + r²/2 + r³/6 + r⁴/24 + r⁵/120 (Horner form).
	term := Add(One, divConst(r, 5<<Shift))
	term = Add(One, Mul(divConst(r, 4<<Shift), term))
	term = Add(One, Mul(divConst(r, 3<<Shift), term))
	term = Add(One, Mul(divConst(r, 2<<Shift), term))
	term = Add(One, Mul(r, term))
	// Scale by 2^k.
	if k >= 0 {
		v := int64(term) << uint(k)
		return sat64(v)
	}
	sh := uint(-k)
	if sh >= 47 {
		return 0
	}
	return Num(int64(term) >> sh)
}

// Recip returns 1/x (the S-ALU reciprocal primitive).
func Recip(x Num) Num { return Div(One, x) }

// FromSlice converts a float64 slice to fixed point.
func FromSlice(fs []float64) []Num {
	out := make([]Num, len(fs))
	for i, f := range fs {
		out[i] = FromFloat(f)
	}
	return out
}

// ToSlice converts a fixed-point slice to float64.
func ToSlice(xs []Num) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.Float()
	}
	return out
}
