//! IEEE 754 binary16 ("half precision") floating point.
//!
//! GAP9's FPU supports half-precision loads/stores; the paper stores a particle's
//! pose and weight as binary16 in the `fp16qm` configuration to halve particle
//! memory (8 bytes per particle instead of 16). Numerically the important effect
//! is the round-to-nearest-even truncation to a 10-bit mantissa every time a value
//! is written back to particle storage. [`F16`] reproduces exactly that: values are
//! stored as the 16-bit pattern and converted to `f32` for arithmetic.
//!
//! The per-value conversions ([`F16::to_f32`], [`F16::from_f32`]) are a
//! table-free software converter that runs on every target and is the
//! reference. The bulk conversions [`Scalar::widen`](crate::Scalar::widen) and
//! [`Scalar::narrow`](crate::Scalar::narrow) convert eight values per
//! `vcvtph2ps` / `vcvtps2ph` instruction on x86-64 hosts with F16C and fall
//! back to the software converter elsewhere (and for a slice's last
//! `len % 8` values). Both paths return the same bits for every input:
//! software widening quiets signalling NaNs the way the hardware does. Tests
//! compare the two on every binary16 pattern and on a 2¹⁹-input `f32` sweep
//! of the narrowing rounding cases.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE 754 binary16 floating point number stored as its 16-bit pattern.
///
/// Arithmetic is performed by converting to `f32`, operating, and rounding back,
/// which matches how a scalar FPU with half-precision storage behaves.
///
/// # Example
///
/// ```
/// use mcl_num::F16;
/// let a = F16::from_f32(1.5);
/// let b = F16::from_f32(2.25);
/// assert_eq!((a + b).to_f32(), 3.75);
/// assert_eq!(F16::from_f32(65504.0), F16::MAX);
/// assert!(F16::from_f32(1e6).to_f32().is_infinite());
/// ```
///
/// The layout is guaranteed to be exactly that of the underlying `u16`
/// (`repr(transparent)`): `mcl_gridmap`'s AVX2 fp16-pair gather reads an
/// `&[F16]` as raw little-endian 16-bit patterns and relies on it.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Largest finite binary16 value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite binary16 value, −65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2⁻¹⁴ ≈ 6.1035 × 10⁻⁵.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Machine epsilon: the difference between 1.0 and the next larger value (2⁻¹⁰).
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow produces ±infinity; values below the subnormal range round to ±0.
    pub fn from_f32(value: f32) -> Self {
        F16(f32_to_f16_bits(value))
    }

    /// Converts to `f32` exactly (every binary16 value is representable in f32).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns `true` if this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if this value is ±infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if this value is neither NaN nor infinite.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` if the sign bit is set (including −0.0 and NaNs with sign).
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value.
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7FFF)
    }

    /// Largest of two values, propagating the non-NaN operand like `f32::max`.
    pub fn max(self, other: Self) -> Self {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// Smallest of two values, propagating the non-NaN operand like `f32::min`.
    pub fn min(self, other: Self) -> Self {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Square root, computed in f32 and rounded back to binary16.
    pub fn sqrt(self) -> Self {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// The relative rounding error bound for binary16: 2⁻¹¹.
    ///
    /// Any finite `f32` within the normal binary16 range converts with relative
    /// error at most this value.
    pub const RELATIVE_ERROR_BOUND: f32 = 1.0 / 2048.0;
}

/// Converts an `f32` bit pattern to binary16 with round-to-nearest-even.
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mantissa = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN.
        return if mantissa == 0 {
            sign | 0x7C00
        } else {
            // Quiet NaN: bit 9 of 0x7E00 guarantees a non-zero mantissa, the
            // remaining payload bits are carried over best-effort.
            sign | 0x7E00 | ((mantissa >> 13) as u16 & 0x03FF)
        };
    }

    // Unbiased exponent.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflows binary16 range → infinity.
        return sign | 0x7C00;
    }

    if unbiased >= -14 {
        // Normal binary16 number.
        let half_exp = (unbiased + 15) as u16;
        let half_mant = (mantissa >> 13) as u16;
        let round_bit = (mantissa >> 12) & 1;
        let sticky = mantissa & 0x0FFF;
        let mut result = sign | (half_exp << 10) | half_mant;
        // Round to nearest, ties to even.
        if round_bit == 1 && (sticky != 0 || (half_mant & 1) == 1) {
            result = result.wrapping_add(1);
        }
        return result;
    }

    if unbiased >= -25 {
        // Subnormal binary16 number. Add the implicit leading 1 then shift.
        let full_mant = mantissa | 0x0080_0000;
        let shift = (-14 - unbiased + 13) as u32;
        let half_mant = (full_mant >> shift) as u16;
        let round_mask = 1u32 << (shift - 1);
        let round_bit = (full_mant & round_mask) != 0;
        let sticky = (full_mant & (round_mask - 1)) != 0;
        let mut result = sign | half_mant;
        if round_bit && (sticky || (half_mant & 1) == 1) {
            result = result.wrapping_add(1);
        }
        return result;
    }

    // Too small even for a subnormal: rounds to signed zero.
    sign
}

/// Converts a binary16 bit pattern to `f32` exactly.
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1F;
    let mantissa = u32::from(bits & 0x03FF);

    let out_bits = if exp == 0 {
        if mantissa == 0 {
            sign
        } else {
            // Subnormal: value = mantissa · 2⁻²⁴. Normalize by shifting the
            // mantissa until the leading 1 reaches the implicit bit position;
            // after `s` shifts the f32 exponent is −14 − s.
            let mut m = mantissa;
            let mut shifts = 0u32;
            while (m & 0x0400) == 0 {
                m <<= 1;
                shifts += 1;
            }
            let exp32 = (127 - 14 - shifts as i32) as u32;
            sign | (exp32 << 23) | ((m & 0x03FF) << 13)
        }
    } else if exp == 0x1F {
        // Infinity, or NaN with its payload carried over. A signalling NaN
        // (quiet bit clear) comes out quiet, as `vcvtph2ps` returns it.
        let quiet = if mantissa == 0 { 0 } else { 0x0040_0000 };
        sign | 0x7F80_0000 | quiet | (mantissa << 13)
    } else {
        // Re-bias: f16 bias 15 → f32 bias 127 (adding before subtracting keeps
        // the arithmetic in range for small exponents).
        let exp32 = u32::from(exp) + 127 - 15;
        sign | (exp32 << 23) | (mantissa << 13)
    };
    f32::from_bits(out_bits)
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> Self {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> Self {
        value.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(value: F16) -> Self {
        value.to_f64()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: f32) -> f32 {
        F16::from_f32(v).to_f32()
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(roundtrip(v), v, "integer {v} must be exact in binary16");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let v = (2.0f32).powi(e);
            assert_eq!(roundtrip(v), v);
            assert_eq!(roundtrip(-v), -v);
        }
    }

    #[test]
    fn constants_match_reference_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        // 1/3 in binary16 is 0x3555 under round-to-nearest-even.
        assert_eq!(F16::from_f32(1.0 / 3.0).to_bits(), 0x3555);
        // 0.1 rounds to 0x2E66.
        assert_eq!(F16::from_f32(0.1).to_bits(), 0x2E66);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).is_sign_negative());
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        // 65520 is the tie point that rounds up to infinity.
        assert!(F16::from_f32(65520.0).is_infinite());
        // Just below the tie point rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn subnormals_convert_correctly() {
        // Smallest positive subnormal is 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(roundtrip(tiny), tiny);
        // Half of that rounds to zero (ties-to-even: 0x0000 is even).
        assert_eq!(F16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // 1.5x of smallest subnormal rounds up to 2 * 2^-24.
        assert_eq!(F16::from_f32(tiny * 1.5).to_bits(), 0x0002);
        // Underflow to signed zero.
        assert_eq!(F16::from_f32(-1e-30).to_bits(), 0x8000);
    }

    #[test]
    fn nan_and_infinity_are_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::INFINITY).is_infinite());
        assert!(!F16::from_f32(f32::INFINITY).is_sign_negative());
        assert!(F16::from_f32(f32::NEG_INFINITY).is_sign_negative());
        assert!(F16::NAN.to_f32().is_nan());
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 2048 + 1 = 2049 is exactly between 2048 and 2050 in binary16
        // (spacing is 2 at that magnitude); ties go to even (2048).
        assert_eq!(roundtrip(2049.0), 2048.0);
        // 2051 is between 2050 and 2052, ties to even → 2052.
        assert_eq!(roundtrip(2051.0), 2052.0);
        // Non-ties round to nearest.
        assert_eq!(roundtrip(2049.5), 2050.0);
    }

    #[test]
    fn arithmetic_rounds_back_to_half() {
        let a = F16::from_f32(0.1);
        let b = F16::from_f32(0.2);
        let sum = (a + b).to_f32();
        // The result is the binary16 rounding of the f32 sum of the two
        // rounded inputs, not the exact 0.3.
        let expected = F16::from_f32(a.to_f32() + b.to_f32()).to_f32();
        assert_eq!(sum, expected);
        assert!((sum - 0.3).abs() < 1e-3);
    }

    #[test]
    fn negation_flips_sign_bit_only() {
        let x = F16::from_f32(1.25);
        assert_eq!((-x).to_f32(), -1.25);
        assert_eq!((-(-x)).to_bits(), x.to_bits());
    }

    #[test]
    fn comparison_matches_f32() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::from_f32(-1.0) < F16::from_f32(0.0));
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
    }

    #[test]
    fn epsilon_is_gap_above_one() {
        let one_plus = F16::from_bits(F16::ONE.to_bits() + 1);
        assert_eq!((one_plus - F16::ONE).to_f32(), F16::EPSILON.to_f32());
    }

    #[test]
    fn relative_error_is_bounded_for_normal_range() {
        // Sample values across the normal range and check the documented bound.
        let mut v = 6.2e-5f32;
        while v < 60000.0 {
            let err = (roundtrip(v) - v).abs() / v;
            assert!(
                err <= F16::RELATIVE_ERROR_BOUND,
                "relative error {err} too large at {v}"
            );
            v *= 1.37;
        }
    }

    #[test]
    fn min_max_abs_sqrt() {
        assert_eq!(F16::from_f32(4.0).sqrt().to_f32(), 2.0);
        assert_eq!(F16::from_f32(-3.0).abs().to_f32(), 3.0);
        assert_eq!(F16::from_f32(1.0).max(F16::from_f32(2.0)).to_f32(), 2.0);
        assert_eq!(F16::from_f32(1.0).min(F16::from_f32(2.0)).to_f32(), 1.0);
    }

    #[test]
    fn nan_and_infinity_round_trip_through_f32() {
        // f16 → f32 → f16 must preserve the special-value class and the sign
        // bit exactly, including the NaN quiet bit the converter sets.
        for bits in [0x7C00u16, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0x7FFF] {
            let half = F16::from_bits(bits);
            let round = F16::from_f32(half.to_f32());
            assert_eq!(half.is_nan(), round.is_nan(), "bits {bits:#06x}");
            assert_eq!(half.is_infinite(), round.is_infinite(), "bits {bits:#06x}");
            assert_eq!(
                half.is_sign_negative(),
                round.is_sign_negative(),
                "bits {bits:#06x}"
            );
        }
        // Infinities round-trip bit-exactly; NaN payload bits 13.. survive the
        // truncation (the converter ORs the quiet bit in).
        assert_eq!(F16::from_f32(F16::INFINITY.to_f32()), F16::INFINITY);
        assert_eq!(
            F16::from_f32(F16::NEG_INFINITY.to_f32()).to_bits(),
            F16::NEG_INFINITY.to_bits()
        );
        // A signalling-pattern f32 NaN quiets to a NaN, never to ±inf.
        let signalling = f32::from_bits(0x7F80_0001);
        assert!(F16::from_f32(signalling).is_nan());
        assert!(F16::from_f32(-signalling).is_nan());
        assert!(F16::from_f32(-signalling).is_sign_negative());
    }

    #[test]
    fn subnormals_round_trip_and_only_flush_below_the_smallest() {
        // This implementation keeps binary16 subnormals (no flush-to-zero):
        // every one of the 1023 positive subnormal patterns converts to f32
        // and back without loss.
        for bits in 1u16..0x0400 {
            let half = F16::from_bits(bits);
            assert!(half.to_f32() > 0.0, "subnormal {bits:#06x} flushed");
            assert_eq!(
                F16::from_f32(half.to_f32()).to_bits(),
                bits,
                "subnormal {bits:#06x} did not round-trip"
            );
            let neg = F16::from_bits(bits | 0x8000);
            assert_eq!(F16::from_f32(neg.to_f32()).to_bits(), bits | 0x8000);
        }
        // The flush boundary sits below the smallest subnormal 2⁻²⁴: half of
        // it ties to even (zero), anything above half rounds up to it.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(tiny / 2.0 + tiny / 8.0).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(-(tiny / 4.0)).to_bits(), 0x8000);
        // The normal/subnormal boundary: just below MIN_POSITIVE rounds into
        // the largest subnormal, not to zero.
        let below_normal = F16::MIN_POSITIVE.to_f32() * 0.999;
        assert_eq!(F16::from_f32(below_normal).to_bits(), 0x03FF);
    }

    #[test]
    fn ties_round_to_even_at_the_subnormal_and_exponent_boundaries() {
        // Tie exactly between two subnormals: 2.5 × 2⁻²⁴ sits between codes
        // 0x0002 and 0x0003; even (0x0002) wins. 3.5 × 2⁻²⁴ → odd neighbour
        // below is 0x0003, even above is 0x0004.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(2.5 * tiny).to_bits(), 0x0002);
        assert_eq!(F16::from_f32(3.5 * tiny).to_bits(), 0x0004);
        // Tie at a power-of-two boundary: 1 + 2⁻¹¹ is exactly between 1.0 and
        // 1.0 + ε; the even mantissa (1.0) wins, while 1 + 3·2⁻¹² rounds up.
        assert_eq!(F16::from_f32(1.0 + (2.0f32).powi(-11)).to_bits(), 0x3C00);
        assert_eq!(
            F16::from_f32(1.0 + 3.0 * (2.0f32).powi(-12)).to_bits(),
            0x3C01
        );
        // And just above/below the tie rounds to nearest.
        assert_eq!(
            F16::from_f32(1.0 + (2.0f32).powi(-11) + (2.0f32).powi(-16)).to_bits(),
            0x3C01
        );
    }

    #[test]
    fn partial_order_matches_f32_for_the_max_log_fold() {
        // The filter's correction step folds `max` over log-likelihoods and
        // the pose kernel compares stored weights; both rely on F16's
        // PartialOrd agreeing with f32 semantics: totally ordered on numbers
        // (−∞ < finite < +∞, −0 == +0) and NaN incomparable.
        let ordered = [
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            F16::from_bits(0x8001), // largest negative subnormal
            F16::ZERO,
            F16::from_bits(0x0001), // smallest positive subnormal
            F16::MIN_POSITIVE,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
        ];
        for pair in ordered.windows(2) {
            assert!(pair[0] < pair[1], "{:?} !< {:?}", pair[0], pair[1]);
        }
        assert_eq!(F16::ZERO, F16::from_bits(0x8000), "-0 must equal +0");
        for value in ordered {
            assert_eq!(F16::NAN.partial_cmp(&value), None);
            assert_eq!(value.partial_cmp(&F16::NAN), None);
        }
        // A max-fold seeded with −∞ (the reweight max_log pattern) picks the
        // true maximum and propagates the non-NaN operand like f32::max.
        let logs = [F16::NEG_ONE, F16::from_f32(-3.0), F16::from_f32(-0.5)];
        let max = logs.iter().fold(F16::NEG_INFINITY, |acc, &l| acc.max(l));
        assert_eq!(max.to_f32(), -0.5);
        assert_eq!(F16::NAN.max(F16::ONE).to_f32(), 1.0);
        assert_eq!(F16::ONE.max(F16::NAN).to_f32(), 1.0);
    }
}
