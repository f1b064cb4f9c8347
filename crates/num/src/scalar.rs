//! The [`Scalar`] abstraction over particle storage precision.
//!
//! The particle filter in `mcl-core` is generic over the type used to *store* a
//! particle's pose and weight. The paper evaluates two storage precisions:
//! `f32` (16 bytes/particle) and binary16 (8 bytes/particle). All arithmetic is
//! performed in `f32` on GAP9 regardless of storage precision — only loads and
//! stores round — and [`Scalar`] mirrors that: every operation converts to `f32`,
//! computes, and converts back, so `F16` incurs exactly one rounding per store.
//!
//! The kernels convert whole lane groups and weight arrays at once through
//! [`Scalar::widen`] and [`Scalar::narrow`]. For `f32` they are copies; for
//! [`F16`] they run eight values per F16C instruction on x86-64 hosts that
//! have it (the software converter elsewhere), with the bits of the
//! per-value conversions in every case.

use crate::F16;

/// A scalar type usable as particle storage (pose components and weight).
///
/// Implemented for `f32` (full precision) and [`F16`] (half precision). The trait
/// is deliberately minimal: the particle filter converts to `f32` for arithmetic
/// and only uses the trait for storage round-trips, bulk slice conversions
/// ([`Scalar::widen`], [`Scalar::narrow`]) and a few fused helpers.
///
/// # Example
///
/// ```
/// use mcl_num::{Scalar, F16};
///
/// fn lerp<S: Scalar>(a: S, b: S, t: f32) -> S {
///     S::from_f32(a.to_f32() + (b.to_f32() - a.to_f32()) * t)
/// }
///
/// assert_eq!(lerp(0.0f32, 10.0f32, 0.25), 2.5);
/// assert_eq!(lerp(F16::from_f32(0.0), F16::from_f32(10.0), 0.25).to_f32(), 2.5);
/// ```
pub trait Scalar: Copy + Clone + PartialOrd + core::fmt::Debug + Send + Sync + 'static {
    /// Number of bytes one stored value occupies (4 for `f32`, 2 for `F16`).
    const BYTES: usize;
    /// Human-readable name used in experiment labels ("fp32" / "fp16").
    const NAME: &'static str;

    /// Converts from `f32`, rounding to the storage precision.
    fn from_f32(value: f32) -> Self;
    /// Converts to `f32` (exact for both implementations).
    fn to_f32(self) -> f32;

    /// The additive identity in storage precision.
    fn zero() -> Self {
        Self::from_f32(0.0)
    }
    /// The multiplicative identity in storage precision.
    fn one() -> Self {
        Self::from_f32(1.0)
    }
    /// Stored addition: compute in f32, round back.
    fn add(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() + rhs.to_f32())
    }
    /// Stored subtraction: compute in f32, round back.
    fn sub(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() - rhs.to_f32())
    }
    /// Stored multiplication: compute in f32, round back.
    fn mul(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() * rhs.to_f32())
    }
    /// Stored division: compute in f32, round back.
    fn div(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() / rhs.to_f32())
    }
    /// Returns `true` when the stored value is finite.
    fn is_finite(self) -> bool {
        self.to_f32().is_finite()
    }

    /// When the storage type *is* `f32`, returns the slice itself so bulk
    /// consumers (e.g. the resampling plan reading a contiguous weight array)
    /// can skip the widening copy. `None` for every other storage precision.
    fn f32_slice(values: &[Self]) -> Option<&[f32]> {
        let _ = values;
        None
    }

    /// Widens `src` into `dst`: `dst[i] = src[i].to_f32()`, bit for bit.
    /// The default converts per element; `f32` copies and [`F16`] converts
    /// eight values per F16C instruction where the host has it.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    fn widen(src: &[Self], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }

    /// Narrows `src` into `dst`: `dst[i] = Self::from_f32(src[i])`, bit for
    /// bit. The default converts per element; `f32` copies and [`F16`]
    /// converts eight values per F16C instruction where the host has it.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    fn narrow(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::from_f32(s);
        }
    }
}

impl Scalar for f32 {
    const BYTES: usize = 4;
    const NAME: &'static str = "fp32";

    #[inline]
    fn from_f32(value: f32) -> Self {
        value
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn f32_slice(values: &[Self]) -> Option<&[f32]> {
        Some(values)
    }
    #[inline]
    fn widen(src: &[Self], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }
    #[inline]
    fn narrow(src: &[f32], dst: &mut [Self]) {
        dst.copy_from_slice(src);
    }
}

impl Scalar for F16 {
    const BYTES: usize = 2;
    const NAME: &'static str = "fp16";

    #[inline]
    fn from_f32(value: f32) -> Self {
        F16::from_f32(value)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
    fn widen(src: &[Self], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen length mismatch");
        #[cfg(target_arch = "x86_64")]
        let done = if crate::f16c::available() {
            crate::f16c::widen_prefix(src, dst)
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = s.to_f32();
        }
    }
    fn narrow(src: &[f32], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "narrow length mismatch");
        #[cfg(target_arch = "x86_64")]
        let done = if crate::f16c::available() {
            crate::f16c::narrow_prefix(src, dst)
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = F16::from_f32(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_is_identity() {
        assert_eq!(<f32 as Scalar>::from_f32(1.25), 1.25);
        assert_eq!(1.25f32.to_f32(), 1.25);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f32::NAME, "fp32");
    }

    #[test]
    fn f16_rounds_on_store() {
        let x = <F16 as Scalar>::from_f32(1.0 + 1e-4);
        // 1.0001 is below half of binary16 epsilon above 1.0, so it rounds to 1.0.
        assert_eq!(x.to_f32(), 1.0);
        assert_eq!(F16::BYTES, 2);
        assert_eq!(F16::NAME, "fp16");
    }

    #[test]
    fn generic_arithmetic_matches_between_precisions_for_exact_values() {
        fn compute<S: Scalar>() -> f32 {
            let a = S::from_f32(3.0);
            let b = S::from_f32(0.5);
            a.mul(b).add(S::one()).sub(S::from_f32(0.25)).to_f32()
        }
        assert_eq!(compute::<f32>(), 2.25);
        assert_eq!(compute::<F16>(), 2.25);
    }

    #[test]
    fn f32_slice_fast_path_only_exists_for_f32() {
        let values = [1.0f32, 2.0, 3.0];
        assert_eq!(<f32 as Scalar>::f32_slice(&values), Some(&values[..]));
        let halves = [F16::from_f32(1.0), F16::from_f32(2.0)];
        assert!(<F16 as Scalar>::f32_slice(&halves).is_none());
    }

    #[test]
    fn f16_widen_matches_to_f32_on_every_pattern() {
        // All 65,536 binary16 patterns: on F16C hosts the bulk path is the
        // hardware `vcvtph2ps`, so this compares it with the software
        // reference bit for bit (NaN payloads and signalling NaNs included).
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mut wide = vec![0.0f32; halves.len()];
        <F16 as Scalar>::widen(&halves, &mut wide);
        for (h, w) in halves.iter().zip(&wide) {
            assert_eq!(
                w.to_bits(),
                h.to_f32().to_bits(),
                "pattern {:#06x}",
                h.to_bits()
            );
        }
        // A length that is not a multiple of eight runs the software tail
        // after the bulk prefix.
        let mut short = [0.0f32; 13];
        <F16 as Scalar>::widen(&halves[0x7BF8..0x7C05], &mut short);
        for (h, w) in halves[0x7BF8..0x7C05].iter().zip(&short) {
            assert_eq!(w.to_bits(), h.to_f32().to_bits());
        }
    }

    #[test]
    fn f16_narrow_matches_from_f32_across_every_high_half() {
        // Every f32 high half (sign, exponent, top 7 mantissa bits) with low
        // halves at the round and sticky boundaries: ties to even, values
        // just either side of a tie, subnormal results, overflow to infinity
        // and NaN payloads.
        const LOW: [u32; 8] = [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0xFFFF];
        let wide: Vec<f32> = (0..=u32::from(u16::MAX))
            .flat_map(|high| LOW.iter().map(move |&low| f32::from_bits(high << 16 | low)))
            .collect();
        let mut halves = vec![F16::ZERO; wide.len()];
        <F16 as Scalar>::narrow(&wide, &mut halves);
        for (w, h) in wide.iter().zip(&halves) {
            assert_eq!(
                h.to_bits(),
                F16::from_f32(*w).to_bits(),
                "f32 {:#010x}",
                w.to_bits()
            );
        }
        let mut short = [F16::ZERO; 11];
        <F16 as Scalar>::narrow(&wide[1000..1011], &mut short);
        for (w, h) in wide[1000..1011].iter().zip(&short) {
            assert_eq!(h.to_bits(), F16::from_f32(*w).to_bits());
        }
    }

    #[test]
    fn f32_widen_and_narrow_copy() {
        let values = [1.5f32, -0.0, f32::NAN, f32::INFINITY, 3.25];
        let mut out = [0.0f32; 5];
        <f32 as Scalar>::widen(&values, &mut out);
        assert_eq!(out.map(f32::to_bits), values.map(f32::to_bits));
        let mut back = [0.0f32; 5];
        <f32 as Scalar>::narrow(&out, &mut back);
        assert_eq!(back.map(f32::to_bits), values.map(f32::to_bits));
    }

    #[test]
    #[should_panic(expected = "widen length mismatch")]
    fn widen_rejects_mismatched_lengths() {
        let mut out = [0.0f32; 3];
        <F16 as Scalar>::widen(&[F16::ONE; 4], &mut out);
    }

    #[test]
    fn zero_one_and_finiteness() {
        assert_eq!(<F16 as Scalar>::zero().to_f32(), 0.0);
        assert_eq!(<F16 as Scalar>::one().to_f32(), 1.0);
        assert!(<F16 as Scalar>::one().is_finite());
        assert!(!F16::INFINITY.is_finite());
        assert!(<f32 as Scalar>::one().is_finite());
    }
}
