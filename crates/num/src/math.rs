//! Owned single-precision `ln`, `exp` and `sin_cos`.
//!
//! The filter's per-particle kernels need three transcendentals: the
//! Box–Muller `ln` and `sin_cos` of the motion noise, the yaw `sin_cos` of the
//! observation and pose kernels, and the reweighting `exp`. Calling the host
//! libm for them has two costs. No backend can vectorize an opaque libm call,
//! so those calls dominate the motion step; and the results depend on the
//! host's libm, so pinned traces are only valid on one platform.
//!
//! The functions here replace libm on those paths. Each one is a fixed
//! sequence of IEEE 754 single-rounding operations — add, subtract, multiply,
//! divide, compare-and-select and exact bit manipulation of the exponent —
//! evaluated in a fixed order with the documented coefficients below and
//! **no fused multiply-add**. That makes the result a pure function of the
//! input bits on every IEEE 754 host, and it lets a SIMD body (the AVX2 lane
//! versions in `mcl_core::simd`) replay the same sequence lane by lane and
//! return the same bits.
//!
//! Special inputs are resolved by selects after the main sequence, so the
//! scalar code has the same data flow as the SIMD code. Every NaN result is
//! the canonical quiet NaN `f32::NAN`, whatever the input NaN's payload.
//!
//! Accuracy against the exact result. The bounds are pinned by the sweeps in
//! this module's tests; the measured column comes from an exhaustive run over
//! every `f32` of the domain, compared with `f64` std:
//!
//! | function | domain | bound | measured |
//! |---|---|---|---|
//! | [`ln`] | every positive finite `f32`, subnormals included | 1 ulp | 0.84 ulp |
//! | [`exp`] | `[-87.3, 88.7]` (normal results) | 1 ulp | 0.99 ulp |
//! | [`exp`] | `[-103.9, -87.3)` (subnormal results) | 1 subnormal ulp | 0.75 |
//! | [`sin_cos`] | `|x| ≤ 4π`, where `|result| ≥ 1/8` | 2 ulp | 1.52 ulp |
//! | [`sin_cos`] | `|x| ≤ 4π`, where `|result| < 1/8` | 2⁻²⁶ absolute | 2⁻²⁶·¹ |
//! | [`sin_cos`] | `|x| ≤ SIN_COS_REDUCTION_LIMIT` | 2⁻²² absolute | 2⁻²³·³ |
//!
//! Beyond [`SIN_COS_REDUCTION_LIMIT`] the argument reduction is no longer
//! exact and the results lose accuracy; every caller in this workspace passes
//! a wrapped yaw or a Box–Muller angle in `[0, 2π)`.

/// `1.5 · 2²³`: adding it to an `f32` of magnitude below `2²²` rounds the
/// sum to an integer (ties to even) and leaves that integer in the low
/// mantissa bits, so one add yields both the rounded value and its integer
/// bits without a float-to-int conversion.
pub const ROUND_MAGIC: f32 = 12_582_912.0;

/// The integer in the low mantissa bits of `v + ROUND_MAGIC`, as a
/// wrapping `i32` (exact for `|v| < 2²²`).
#[inline]
fn magic_int(t: f32) -> i32 {
    t.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32
}

// ---------------------------------------------------------------------------
// ln
// ---------------------------------------------------------------------------

/// `2²⁵`, the scale that lifts a subnormal input into the normal range.
pub const LN_SUBNORMAL_SCALE: f32 = 33_554_432.0;
/// Exponent correction applied to scaled subnormal inputs.
pub const LN_SUBNORMAL_EXPONENT: i32 = -25;
/// Bit offset that moves the mantissa split point to `√2/2`: after adding
/// it, the exponent field counts how often the input's mantissa crossed
/// `√2/2` (the bits of `√2/2` are `0x3F35_04F3`).
pub const LN_SQRT_HALF_BITS: u32 = 0x3F35_04F3;
/// High part of `ln 2` (`0x3F31_7180`, 16 significant bits, so `k · hi`
/// is exact for every exponent `k`).
pub const LN2_HI: f32 = 0.693_138_1;
/// Low part of `ln 2` (`0x3717_F7D1`): `LN2_HI + LN2_LO` is `ln 2` to
/// within 7.4·10⁻¹³.
pub const LN2_LO: f32 = 9.058_001e-6;
/// Coefficients of `(ln(1+s) − ln(1−s))/s ≈ 2 + s²·(LG1 + s²·(LG2 + s²·(LG3
/// + s²·LG4)))` on `s ∈ [0, 0.1716]` — the classic fdlibm `logf` minimax
/// fit (error below 2⁻³⁴·²⁴). Bits `0x3F2A_AAAA`, `0x3ECC_CE13`,
/// `0x3E91_E9EE`, `0x3E78_9E26`.
pub const LN_LG: [f32; 4] = [0.666_666_6, 0.400_009_72, 0.284_987_87, 0.242_790_79];

/// Natural logarithm of an `f32`, without libm.
///
/// The input is split as `x = 2ᵏ · m` with `m ∈ [√2/2, √2)` by integer
/// arithmetic on the bits (subnormals are first scaled by 2²⁵). With
/// `f = m − 1` (exact) and `s = f / (2 + f)`:
///
/// ```text
/// z = s², w = z², R = z·(LG1 + w·LG3) + w·(LG2 + w·LG4), h = ½·f·f
/// ln x = (((s·(h + R) + k·LN2_LO) − h) + f) + k·LN2_HI
/// ```
///
/// evaluated exactly in that order. Special values: `ln(±0) = −∞`,
/// `ln(x < 0) = NaN`, `ln(+∞) = +∞`, `ln(NaN) = NaN`, `ln(1) = 0`.
///
/// # Example
///
/// ```
/// use mcl_num::math::ln;
/// assert_eq!(ln(1.0), 0.0);
/// assert!((ln(core::f32::consts::E) - 1.0).abs() <= f32::EPSILON);
/// assert_eq!(ln(0.0), f32::NEG_INFINITY);
/// assert!(ln(-1.0).is_nan());
/// ```
#[inline]
pub fn ln(x: f32) -> f32 {
    let subnormal = x < f32::MIN_POSITIVE;
    let scaled = if subnormal { x * LN_SUBNORMAL_SCALE } else { x };
    let k_adjust = if subnormal { LN_SUBNORMAL_EXPONENT } else { 0 };
    let ix = scaled
        .to_bits()
        .wrapping_add(0x3F80_0000 - LN_SQRT_HALF_BITS);
    let k = ((ix >> 23) as i32)
        .wrapping_sub(0x7F)
        .wrapping_add(k_adjust);
    let m = f32::from_bits((ix & 0x007F_FFFF).wrapping_add(LN_SQRT_HALF_BITS));
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LN_LG[1] + w * LN_LG[3]);
    let t2 = z * (LN_LG[0] + w * LN_LG[2]);
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let dk = k as f32;
    let main = s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI;
    if x == f32::INFINITY {
        f32::INFINITY
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else if x > 0.0 {
        main
    } else {
        // Negative inputs and NaN (the comparison above fails for both).
        f32::NAN
    }
}

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

/// Inputs above this overflow: `exp` returns `+∞` (the largest `x` with a
/// finite result is just below `ln(f32::MAX) ≈ 88.722839`).
pub const EXP_OVERFLOW: f32 = 88.722_84;
/// Inputs below this round to zero: `exp` returns `+0.0` (`e⁻¹⁰⁴` is below
/// half the smallest subnormal, `2⁻¹⁵⁰ ≈ e⁻¹⁰³·⁹⁷`).
pub const EXP_UNDERFLOW: f32 = -104.0;
/// `log₂ e` rounded to `f32` (`0x3FB8_AA3B`).
pub const LOG2_E: f32 = core::f32::consts::LOG2_E;
/// High part of `ln 2` for the exp reduction (`0x3F31_8000`, 9 significant
/// bits, so `k · hi` is exact for `|k| ≤ 150`).
pub const EXP_LN2_HI: f32 = 0.693_359_4;
/// Low part of `ln 2` for the exp reduction (`0xB95E_8083`).
pub const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// Coefficients of `eʳ ≈ 1 + r + r²·P(r)` on `|r| ≤ ln2/2`, highest degree
/// first: the Cephes `expf` minimax polynomial, rounded to `f32` (its
/// constant term, 0.50000001201, rounds to exactly ½).
pub const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_66,
    0.5,
];

/// `2ⁿ` for `n ∈ [-126, 127]`, built from the exponent bits.
#[inline]
fn pow2i(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32).wrapping_shl(23))
}

/// Natural exponential of an `f32`, without libm.
///
/// With `k = round(x · log₂e)` (ties to even) and the exact two-part
/// reduction `r = (x − k·EXP_LN2_HI) − k·EXP_LN2_LO`:
///
/// ```text
/// p = ((((P0·r + P1)·r + P2)·r + P3)·r + P4)·r + P5
/// eʳ = ((p·r²) + r) + 1
/// eˣ = (eʳ · 2^⌊k/2⌋) · 2^(k − ⌊k/2⌋)
/// ```
///
/// The split scale keeps both factors normal: the first product is exact,
/// so results in the subnormal range round once, like a correctly rounded
/// `ldexp`. Inputs above [`EXP_OVERFLOW`] return `+∞`, below
/// [`EXP_UNDERFLOW`] (including `−∞`) return `+0.0`; NaN returns NaN.
///
/// # Example
///
/// ```
/// use mcl_num::math::exp;
/// assert_eq!(exp(0.0), 1.0);
/// assert_eq!(exp(f32::NEG_INFINITY), 0.0);
/// assert!((exp(1.0) - core::f32::consts::E).abs() <= f32::EPSILON);
/// ```
#[inline]
pub fn exp(x: f32) -> f32 {
    // Clamp into the range the main sequence handles (NaN goes to the low
    // end; the selects below restore every special case).
    let xc = if x > EXP_OVERFLOW {
        EXP_OVERFLOW
    } else if x >= EXP_UNDERFLOW {
        x
    } else {
        EXP_UNDERFLOW
    };
    let t = xc * LOG2_E + ROUND_MAGIC;
    let kf = t - ROUND_MAGIC;
    let k = magic_int(t);
    let r = xc - kf * EXP_LN2_HI - kf * EXP_LN2_LO;
    let z = r * r;
    let p =
        ((((EXP_P[0] * r + EXP_P[1]) * r + EXP_P[2]) * r + EXP_P[3]) * r + EXP_P[4]) * r + EXP_P[5];
    let er = p * z + r + 1.0;
    let k1 = k >> 1;
    let k2 = k.wrapping_sub(k1);
    let main = er * pow2i(k1) * pow2i(k2);
    if x > EXP_OVERFLOW {
        f32::INFINITY
    } else if x >= EXP_UNDERFLOW {
        main
    } else if x < EXP_UNDERFLOW {
        0.0
    } else {
        f32::NAN
    }
}

// ---------------------------------------------------------------------------
// sin_cos
// ---------------------------------------------------------------------------

/// `2/π` rounded to `f32` (`0x3F22_F983`).
pub const FRAC_2_PI: f32 = core::f32::consts::FRAC_2_PI;
/// Three-part Cody–Waite split of `π/2`: `PIO2[0]` and `PIO2[1]` carry 12
/// significant bits each (so `j · PIO2[i]` is exact for `|j| < 2¹²`), the
/// last part is the rounded remainder. Their sum is `π/2` to within
/// 5.8·10⁻¹⁸. Bits `0x3FC9_1000`, `0xB695_7000`, `0xB06F_4B9F`.
pub const PIO2: [f32; 3] = [1.570_800_8, -4.453_584_6e-6, -8.705_516e-10];
/// Largest `|x|` for which the quadrant count `j = round(x·2/π)` stays below
/// 2¹² and the [`PIO2`] reduction is exact (`2¹² · π/2`, rounded down).
pub const SIN_COS_REDUCTION_LIMIT: f32 = 6433.0;
/// `sin r ≈ r + r³·(S0·r⁴ + S1·r² + S2)` on `|r| ≤ π/4` — the Cephes `sinf`
/// coefficients, highest degree first.
pub const SIN_P: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -0.166_666_55];
/// `cos r ≈ 1 − r²/2 + r⁴·(C0·r⁴ + C1·r² + C2)` on `|r| ≤ π/4` — the Cephes
/// `cosf` coefficients, highest degree first.
pub const COS_P: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];

/// Sine and cosine of an `f32`, without libm.
///
/// The argument is reduced by quarter turns, `j = round(x · 2/π)` (ties to
/// even, through the `1.5·2²³` add) and
/// `r = ((x − j·PIO2[0]) − j·PIO2[1]) − j·PIO2[2]`; with `z = r²`:
///
/// ```text
/// s = ((S0·z + S1)·z + S2)·z·r + r
/// c = ((C0·z + C1)·z + C2)·z·z − ½·z + 1
/// ```
///
/// and the quadrant `j mod 4` swaps and negates `(s, c)`. A non-finite input
/// returns `(NaN, NaN)`. See the [module docs](self) for the accuracy domain.
///
/// # Example
///
/// ```
/// use mcl_num::math::sin_cos;
/// assert_eq!(sin_cos(0.0), (0.0, 1.0));
/// let (s, c) = sin_cos(core::f32::consts::FRAC_PI_6);
/// assert!((s - 0.5).abs() <= f32::EPSILON);
/// assert!((c - 0.75f32.sqrt()).abs() <= f32::EPSILON);
/// ```
#[inline]
pub fn sin_cos(x: f32) -> (f32, f32) {
    let t = x * FRAC_2_PI + ROUND_MAGIC;
    let j = t - ROUND_MAGIC;
    let quadrant = t.to_bits();
    let r = x - j * PIO2[0] - j * PIO2[1] - j * PIO2[2];
    let z = r * r;
    let s = ((SIN_P[0] * z + SIN_P[1]) * z + SIN_P[2]) * z * r + r;
    let c = ((COS_P[0] * z + COS_P[1]) * z + COS_P[2]) * z * z - 0.5 * z + 1.0;
    let (sin_r, cos_r) = if quadrant & 1 != 0 { (c, -s) } else { (s, c) };
    let (sin_x, cos_x) = if quadrant & 2 != 0 {
        (-sin_r, -cos_r)
    } else {
        (sin_r, cos_r)
    };
    if x.abs() < f32::INFINITY {
        (sin_x, cos_x)
    } else {
        (f32::NAN, f32::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::TAU;

    /// Error of `got` against the exact `want`, in units of the `f32` ulp at
    /// `want` (the spacing of the binade `want` falls in; subnormal spacing
    /// below the normal range).
    fn ulps(got: f32, want: f64) -> f64 {
        let w = want.abs();
        let spacing = if w < f64::from(f32::MIN_POSITIVE) {
            2f64.powi(-149)
        } else {
            2f64.powi(w.log2().floor() as i32 - 23)
        };
        (f64::from(got) - want).abs() / spacing
    }

    /// Every `stride`-th bit pattern between `lo` and `hi` (positive floats).
    fn bit_sweep(lo: f32, hi: f32, stride: u32) -> impl Iterator<Item = f32> {
        (lo.to_bits()..=hi.to_bits())
            .step_by(stride as usize)
            .map(f32::from_bits)
    }

    #[test]
    fn constants_match_their_documented_bits() {
        assert_eq!(LN2_HI.to_bits(), 0x3F31_7180);
        assert_eq!(LN2_LO.to_bits(), 0x3717_F7D1);
        assert_eq!(
            LN_LG.map(f32::to_bits),
            [0x3F2A_AAAA, 0x3ECC_CE13, 0x3E91_E9EE, 0x3E78_9E26]
        );
        assert_eq!(EXP_LN2_HI.to_bits(), 0x3F31_8000);
        assert_eq!(EXP_LN2_LO.to_bits(), 0xB95E_8083);
        assert_eq!(LOG2_E.to_bits(), 0x3FB8_AA3B);
        assert_eq!(FRAC_2_PI.to_bits(), 0x3F22_F983);
        assert_eq!(
            PIO2.map(f32::to_bits),
            [0x3FC9_1000, 0xB695_7000, 0xB06F_4B9F]
        );
        // The reduction parts' sum is π/2 far below f32 precision.
        let sum: f64 = PIO2.iter().map(|&p| f64::from(p)).sum();
        assert!((sum - core::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn ln_is_within_one_ulp_on_every_binade() {
        let mut worst = 0.0f64;
        // Subnormals through the largest finite value.
        for x in bit_sweep(f32::from_bits(1), f32::MAX, 4099) {
            worst = worst.max(ulps(ln(x), f64::from(x).ln()));
        }
        // Dense around 1, where the result is tiny and relative error counts.
        for x in bit_sweep(0.5, 2.0, 37) {
            worst = worst.max(ulps(ln(x), f64::from(x).ln()));
        }
        // The Box–Muller input lattice: 1 − k·2⁻²⁴.
        for k in (1..1u32 << 24).step_by(251) {
            let x = 1.0 - k as f32 / (1u32 << 24) as f32;
            worst = worst.max(ulps(ln(x), f64::from(x).ln()));
        }
        assert!(worst <= 1.0, "ln max error {worst} ulp");
    }

    #[test]
    fn exp_is_within_one_ulp_over_the_finite_range() {
        let mut worst_normal = 0.0f64;
        let mut worst_subnormal = 0.0f64;
        let mut x = -103.9f32;
        while x <= EXP_OVERFLOW {
            let want = f64::from(x).exp();
            let err = ulps(exp(x), want);
            if want < f64::from(f32::MIN_POSITIVE) {
                worst_subnormal = worst_subnormal.max(err);
            } else {
                worst_normal = worst_normal.max(err);
            }
            x += 0.000_613;
        }
        for x in bit_sweep(1e-7, 1.0, 997) {
            for v in [x, -x] {
                worst_normal = worst_normal.max(ulps(exp(v), f64::from(v).exp()));
            }
        }
        assert!(worst_normal <= 1.0, "exp max error {worst_normal} ulp");
        assert!(
            worst_subnormal <= 1.0,
            "exp subnormal error {worst_subnormal} ulp"
        );
    }

    #[test]
    fn sin_cos_is_within_two_ulps_over_two_turns() {
        let mut worst = 0.0f64;
        let limit = 2.0 * TAU;
        let mut x = -limit;
        while x <= limit {
            let (s, c) = sin_cos(x);
            let (ws, wc) = f64::from(x).sin_cos();
            // Near a zero of the function the ulp of the result shrinks
            // faster than the input's representation error; judge those
            // points on an absolute 2⁻²⁶ scale instead.
            for (got, want) in [(s, ws), (c, wc)] {
                let err = if want.abs() < 2f64.powi(-3) {
                    (f64::from(got) - want).abs() / 2f64.powi(-26) * 2.0
                } else {
                    ulps(got, want)
                };
                worst = worst.max(err);
            }
            x += 0.000_173;
        }
        assert!(worst <= 2.0, "sin_cos max error {worst} ulp");
        // The Box–Muller lattice 2π·k·2⁻²⁴.
        for k in (0..1u32 << 24).step_by(509) {
            let u = k as f32 / (1u32 << 24) as f32;
            let (s, c) = sin_cos(TAU * u);
            let (ws, wc) = f64::from(TAU * u).sin_cos();
            assert!((f64::from(s) - ws).abs() < 2f64.powi(-24) * 1.5, "u={u}");
            assert!((f64::from(c) - wc).abs() < 2f64.powi(-24) * 1.5, "u={u}");
        }
    }

    #[test]
    fn sin_cos_stays_accurate_up_to_the_reduction_limit() {
        let mut worst = 0.0f64;
        let mut x = -SIN_COS_REDUCTION_LIMIT;
        while x <= SIN_COS_REDUCTION_LIMIT {
            let (s, c) = sin_cos(x);
            let (ws, wc) = f64::from(x).sin_cos();
            worst = worst
                .max((f64::from(s) - ws).abs())
                .max((f64::from(c) - wc).abs());
            x += 0.731;
        }
        assert!(worst <= 2f64.powi(-22), "sin_cos max abs error {worst}");
    }

    #[test]
    fn special_values_follow_ieee_conventions() {
        assert_eq!(ln(1.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(ln(-0.0), f32::NEG_INFINITY);
        assert!(ln(-1e-30).is_nan());
        assert!(ln(f32::NEG_INFINITY).is_nan());
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        assert!(ln(f32::NAN).is_nan());
        assert!((ln(f32::from_bits(1)) - (-103.278_93)).abs() < 1e-4);

        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert!(exp(88.7).is_finite());
        assert!(exp(f32::NAN).is_nan());
        // Underflow into the subnormals, then to zero.
        let sub = exp(-100.0);
        assert!(sub > 0.0 && sub < f32::MIN_POSITIVE, "exp(-100) = {sub}");
        assert_eq!(exp(-103.0), f32::from_bits(1)); // e⁻¹⁰³ ≈ 1.32·2⁻¹⁴⁹
        assert_eq!(exp(-104.5), 0.0);
        assert_eq!(exp(-1e30), 0.0);

        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (s, c) = sin_cos(x);
            assert!(s.is_nan() && c.is_nan(), "x={x}");
        }
        // Canonical NaN regardless of the input payload.
        assert_eq!(
            ln(f32::from_bits(0xFFC0_0123)).to_bits(),
            f32::NAN.to_bits()
        );
        assert_eq!(
            exp(f32::from_bits(0x7FC0_0077)).to_bits(),
            f32::NAN.to_bits()
        );
        assert_eq!(
            sin_cos(f32::from_bits(0xFF80_0001)).0.to_bits(),
            f32::NAN.to_bits()
        );
    }

    #[test]
    fn sin_cos_is_odd_even_and_periodic_at_quadrant_points() {
        use core::f32::consts::{FRAC_PI_2, PI};
        let (s, c) = sin_cos(FRAC_PI_2);
        assert_eq!(s, 1.0);
        assert!(c.abs() < 1e-7);
        let (s, c) = sin_cos(PI);
        assert!(s.abs() < 1e-7);
        assert_eq!(c, -1.0);
        for x in [0.3f32, 1.1, 2.9, 4.4, 6.0] {
            let (sp, cp) = sin_cos(x);
            let (sn, cn) = sin_cos(-x);
            assert!((sp + sn).abs() <= 1e-7, "x={x}");
            assert!((cp - cn).abs() <= 1e-7, "x={x}");
        }
    }
}
