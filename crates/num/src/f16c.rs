//! F16C bulk conversions between binary16 and `f32` (x86-64 only).
//!
//! `vcvtph2ps` / `vcvtps2ph` convert eight values per instruction with the
//! same results as the software converter in [`crate::f16`]: widening is
//! exact (the software path quiets signalling NaNs the way the hardware
//! does), and narrowing uses round-to-nearest-even from the immediate, not
//! from `MXCSR`. [`crate::Scalar::widen`] / [`crate::Scalar::narrow`] for
//! [`F16`] run the leading multiple of eight here when [`available`] and
//! hand the rest to the software converter.
// Intrinsics require `unsafe`; this is the one module in the crate allowed
// to use it. Every unsafe block carries a SAFETY comment discharging its
// obligations: the F16C target feature is runtime-checked by `available`
// before any `#[target_feature]` body runs, and every unaligned load or
// store stays inside an 8-element chunk of a slice.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::F16;

/// Values one conversion instruction handles.
const WIDTH: usize = 8;

/// Runtime probe for the F16C conversions. The standard library caches the
/// result, so a per-call check is a single atomic load. It reports `f16c`
/// only where the OS saves the AVX register state as well.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("f16c")
}

/// Widens the leading multiple of eight of `src` into `dst` and returns how
/// many values it converted. The caller checks [`available`] and equal
/// lengths.
pub(crate) fn widen_prefix(src: &[F16], dst: &mut [f32]) -> usize {
    debug_assert!(available());
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len() - src.len() % WIDTH;
    // SAFETY: callers gate on `available`, so F16C (and the AVX it implies)
    // is present.
    unsafe { widen_impl(&src[..n], &mut dst[..n]) };
    n
}

/// # Safety
///
/// The host must support F16C (the chunked loads and stores stay in bounds
/// for any slice lengths).
#[target_feature(enable = "f16c")]
unsafe fn widen_impl(src: &[F16], dst: &mut [f32]) {
    for (s, d) in src.chunks_exact(WIDTH).zip(dst.chunks_exact_mut(WIDTH)) {
        // SAFETY: `F16` is `repr(transparent)` over `u16`, so `s` is 16
        // readable bytes and `d` 32 writable bytes; both ops are unaligned.
        unsafe {
            let halves = _mm_loadu_si128(s.as_ptr().cast());
            _mm256_storeu_ps(d.as_mut_ptr(), _mm256_cvtph_ps(halves));
        }
    }
}

/// Narrows the leading multiple of eight of `src` into `dst` with
/// round-to-nearest-even and returns how many values it converted. The
/// caller checks [`available`] and equal lengths.
pub(crate) fn narrow_prefix(src: &[f32], dst: &mut [F16]) -> usize {
    debug_assert!(available());
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len() - src.len() % WIDTH;
    // SAFETY: callers gate on `available`, so F16C (and the AVX it implies)
    // is present.
    unsafe { narrow_impl(&src[..n], &mut dst[..n]) };
    n
}

/// # Safety
///
/// The host must support F16C (the chunked loads and stores stay in bounds
/// for any slice lengths).
#[target_feature(enable = "f16c")]
unsafe fn narrow_impl(src: &[f32], dst: &mut [F16]) {
    for (s, d) in src.chunks_exact(WIDTH).zip(dst.chunks_exact_mut(WIDTH)) {
        // SAFETY: `s` is 32 readable bytes and `d` (`repr(transparent)`
        // `u16`s) 16 writable bytes; both ops are unaligned.
        unsafe {
            let halves = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(s.as_ptr()));
            _mm_storeu_si128(d.as_mut_ptr().cast(), halves);
        }
    }
}
