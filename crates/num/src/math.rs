//! Owned single-precision `ln`, `exp` and `sin_cos`, and a double-precision
//! `exp`.
//!
//! The filter's per-particle kernels need three transcendentals: the
//! Box–Muller `ln` and `sin_cos` of the motion noise, the yaw `sin_cos` of the
//! observation and pose kernels, and the reweighting `exp`. The adaptive
//! layer's likelihood-tempering solve needs an `f64` `exp` per particle and
//! pass ([`exp_f64`]). Calling the host libm for them has two costs. No
//! backend can vectorize an opaque libm call, so those calls dominate the
//! motion step and the tempering solve; and the results depend on the host's
//! libm, so pinned traces are only valid on one platform.
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
//! the canonical quiet NaN (`f32::NAN`, or `f64::NAN` from [`exp_f64`]),
//! whatever the input NaN's payload.
//!
//! Accuracy against the exact result. The bounds are pinned by the sweeps in
//! this module's tests. For the `f32` functions the measured column comes
//! from an exhaustive run over every `f32` of the domain, compared with `f64`
//! std; for [`exp_f64`] it comes from the tests' sweep of over a million
//! points, compared with a double-double reference:
//!
//! | function | domain | bound | measured |
//! |---|---|---|---|
//! | [`ln`] | every positive finite `f32`, subnormals included | 1 ulp | 0.84 ulp |
//! | [`exp`] | `[-87.3, 88.7]` (normal results) | 1 ulp | 0.99 ulp |
//! | [`exp`] | `[-103.9, -87.3)` (subnormal results) | 1 subnormal ulp | 0.75 |
//! | [`exp_f64`] | `[-708.39, 709.78]` (normal results) | 0.52 ulp | 0.51 ulp |
//! | [`exp_f64`] | `[-745.1, -708.39)` (subnormal results) | 1 subnormal ulp | 0.75 |
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
// exp_f64
// ---------------------------------------------------------------------------

/// Inputs above this return `+∞`: it is `ln(f64::MAX)` rounded down to
/// `f64` (`0x4086_2E42_FEFA_39EF`), the largest input with a finite result.
pub const EXP_F64_OVERFLOW: f64 = 709.782_712_893_384;
/// Inputs below this return `+0.0` (`e⁻⁷⁴⁶` is below half the smallest
/// subnormal, `2⁻¹⁰⁷⁵ ≈ e⁻⁷⁴⁵·¹³`).
pub const EXP_F64_UNDERFLOW: f64 = -746.0;
/// `1.5 · 2⁵²`: adding it to an `f64` of magnitude below `2⁵¹` rounds the
/// sum to an integer (ties to even) and leaves that integer in the low
/// mantissa bits — the `f64` twin of [`ROUND_MAGIC`].
pub const ROUND_MAGIC_F64: f64 = 6_755_399_441_055_744.0;
/// log₂ of the number of [`EXP_F64_TABLE`] pairs: the reduction works in
/// steps of `ln 2 / 128`.
pub const EXP_F64_TABLE_BITS: u32 = 7;
/// `128 / ln 2` rounded to `f64` (`0x4067_1547_652B_82FE`).
pub const EXP_F64_INV_LN2_N: f64 = 184.664_965_233_787_3;
/// High part of `ln 2 / 128` (`0x3F76_2E42_FEF8_0000`, 34 significant bits,
/// so `k · hi` is exact for every reduction index `|k| < 2¹⁹`).
pub const EXP_F64_LN2_N_HI: f64 = 5.415_212_347_998_022e-3;
/// Low part of `ln 2 / 128` (`0x3D41_CF79_ABC9_E3B4`): `hi + lo` is
/// `ln 2 / 128` to a relative 1.9·10⁻²⁷.
pub const EXP_F64_LN2_N_LO: f64 = 1.265_508_608_332_543_8e-13;
/// Taylor coefficients of `(eʳ − 1 − r)/r² ≈ ((C0·r + C1)·r + C2)·r + C3`
/// on `|r| ≤ ln 2/256`, highest degree first: `1/120`, `1/24`, `1/6` and
/// `1/2` rounded to `f64` (bits `0x3F81_1111_1111_1111`,
/// `0x3FA5_5555_5555_5555`, `0x3FC5_5555_5555_5555`,
/// `0x3FE0_0000_0000_0000`). The truncation error, `r⁶/720 < 5.4·10⁻¹⁹`, is
/// below 2⁻⁶⁰ relative.
pub const EXP_F64_C: [f64; 4] = [1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5];
/// `2^(j/128)` for `j ∈ 0..128` as the bit patterns of `(hi, lo)` pairs at
/// indices `2j` and `2j + 1`: `hi` is the value rounded to `f64` and `lo`
/// the rounded remainder, so `hi + lo` carries about 106 bits. Generated
/// with 80-digit decimal arithmetic; the tests check every pair.
pub static EXP_F64_TABLE: [u64; 256] = [
    0x3FF0000000000000,
    0x0000000000000000,
    0x3FF0163DA9FB3335,
    0x3C9B61299AB8CDB7,
    0x3FF02C9A3E778061,
    0xBC719083535B085D,
    0x3FF04315E86E7F85,
    0xBC90A31C1977C96E,
    0x3FF059B0D3158574,
    0x3C8D73E2A475B465,
    0x3FF0706B29DDF6DE,
    0xBC8C91DFE2B13C27,
    0x3FF0874518759BC8,
    0x3C6186BE4BB284FF,
    0x3FF09E3ECAC6F383,
    0x3C91487818316136,
    0x3FF0B5586CF9890F,
    0x3C98A62E4ADC610B,
    0x3FF0CC922B7247F7,
    0x3C901EDC16E24F71,
    0x3FF0E3EC32D3D1A2,
    0x3C403A1727C57B53,
    0x3FF0FB66AFFED31B,
    0xBC6B9BEDC44EBD7B,
    0x3FF11301D0125B51,
    0xBC96C51039449B3A,
    0x3FF12ABDC06C31CC,
    0xBC51B514B36CA5C7,
    0x3FF1429AAEA92DE0,
    0xBC932FBF9AF1369E,
    0x3FF15A98C8A58E51,
    0x3C82406AB9EEAB0A,
    0x3FF172B83C7D517B,
    0xBC819041B9D78A76,
    0x3FF18AF9388C8DEA,
    0xBC911023D1970F6C,
    0x3FF1A35BEB6FCB75,
    0x3C8E5B4C7B4968E4,
    0x3FF1BBE084045CD4,
    0xBC995386352EF607,
    0x3FF1D4873168B9AA,
    0x3C9E016E00A2643C,
    0x3FF1ED5022FCD91D,
    0xBC91DF98027BB78C,
    0x3FF2063B88628CD6,
    0x3C8DC775814A8495,
    0x3FF21F49917DDC96,
    0x3C82A97E9494A5EE,
    0x3FF2387A6E756238,
    0x3C99B07EB6C70573,
    0x3FF251CE4FB2A63F,
    0x3C8AC155BEF4F4A4,
    0x3FF26B4565E27CDD,
    0x3C82BD339940E9D9,
    0x3FF284DFE1F56381,
    0xBC9A4C3A8C3F0D7E,
    0x3FF29E9DF51FDEE1,
    0x3C8612E8AFAD1255,
    0x3FF2B87FD0DAD990,
    0xBC410ADCD6381AA4,
    0x3FF2D285A6E4030B,
    0x3C90024754DB41D5,
    0x3FF2ECAFA93E2F56,
    0x3C71CA0F45D52383,
    0x3FF306FE0A31B715,
    0x3C86F46AD23182E4,
    0x3FF32170FC4CD831,
    0x3C8A9CE78E18047C,
    0x3FF33C08B26416FF,
    0x3C932721843659A6,
    0x3FF356C55F929FF1,
    0xBC8B5CEE5C4E4628,
    0x3FF371A7373AA9CB,
    0xBC963AEABF42EAE2,
    0x3FF38CAE6D05D866,
    0xBC9E958D3C9904BD,
    0x3FF3A7DB34E59FF7,
    0xBC75E436D661F5E3,
    0x3FF3C32DC313A8E5,
    0xBC9EFFF8375D29C3,
    0x3FF3DEA64C123422,
    0x3C8ADA0911F09EBC,
    0x3FF3FA4504AC801C,
    0xBC97D023F956F9F3,
    0x3FF4160A21F72E2A,
    0xBC5EF3691C309278,
    0x3FF431F5D950A897,
    0xBC81C7DDE35F7999,
    0x3FF44E086061892D,
    0x3C489B7A04EF80D0,
    0x3FF46A41ED1D0057,
    0x3C9C944BD1648A76,
    0x3FF486A2B5C13CD0,
    0x3C73C1A3B69062F0,
    0x3FF4A32AF0D7D3DE,
    0x3C99CB62F3D1BE56,
    0x3FF4BFDAD5362A27,
    0x3C7D4397AFEC42E2,
    0x3FF4DCB299FDDD0D,
    0x3C98ECDBBC6A7833,
    0x3FF4F9B2769D2CA7,
    0xBC94B309D25957E3,
    0x3FF516DAA2CF6642,
    0xBC8F768569BD93EF,
    0x3FF5342B569D4F82,
    0xBC807ABE1DB13CAD,
    0x3FF551A4CA5D920F,
    0xBC8D689CEFEDE59B,
    0x3FF56F4736B527DA,
    0x3C99BB2C011D93AD,
    0x3FF58D12D497C7FD,
    0x3C8295E15B9A1DE8,
    0x3FF5AB07DD485429,
    0x3C96324C054647AD,
    0x3FF5C9268A5946B7,
    0x3C3C4B1B816986A2,
    0x3FF5E76F15AD2148,
    0x3C9BA6F93080E65E,
    0x3FF605E1B976DC09,
    0xBC93E2429B56DE47,
    0x3FF6247EB03A5585,
    0xBC9383C17E40B497,
    0x3FF6434634CCC320,
    0xBC8C483C759D8933,
    0x3FF6623882552225,
    0xBC9BB60987591C34,
    0x3FF68155D44CA973,
    0x3C6038AE44F73E65,
    0x3FF6A09E667F3BCD,
    0xBC9BDD3413B26456,
    0x3FF6C012750BDABF,
    0xBC72895667FF0B0D,
    0x3FF6DFB23C651A2F,
    0xBC6BBE3A683C88AB,
    0x3FF6FF7DF9519484,
    0xBC883C0F25860EF6,
    0x3FF71F75E8EC5F74,
    0xBC816E4786887A99,
    0x3FF73F9A48A58174,
    0xBC90A8D96C65D53C,
    0x3FF75FEB564267C9,
    0xBC90245957316DD3,
    0x3FF780694FDE5D3F,
    0x3C9866B80A02162D,
    0x3FF7A11473EB0187,
    0xBC841577EE04992F,
    0x3FF7C1ED0130C132,
    0x3C9F124CD1164DD6,
    0x3FF7E2F336CF4E62,
    0x3C705D02BA15797E,
    0x3FF80427543E1A12,
    0xBC927C86626D972B,
    0x3FF82589994CCE13,
    0xBC9D4C1DD41532D8,
    0x3FF8471A4623C7AD,
    0xBC88D684A341CDFB,
    0x3FF868D99B4492ED,
    0xBC9FC6F89BD4F6BA,
    0x3FF88AC7D98A6699,
    0x3C9994C2F37CB53A,
    0x3FF8ACE5422AA0DB,
    0x3C96E9F156864B27,
    0x3FF8CF3216B5448C,
    0xBC70D55E32E9E3AA,
    0x3FF8F1AE99157736,
    0x3C85CC13A2E3976C,
    0x3FF9145B0B91FFC6,
    0xBC9DD6792E582524,
    0x3FF93737B0CDC5E5,
    0xBC675FC781B57EBC,
    0x3FF95A44CBC8520F,
    0xBC764B7C96A5F039,
    0x3FF97D829FDE4E50,
    0xBC9D185B7C1B85D1,
    0x3FF9A0F170CA07BA,
    0xBC9173BD91CEE632,
    0x3FF9C49182A3F090,
    0x3C7C7C46B071F2BE,
    0x3FF9E86319E32323,
    0x3C7824CA78E64C6E,
    0x3FFA0C667B5DE565,
    0xBC9359495D1CD533,
    0x3FFA309BEC4A2D33,
    0x3C96305C7DDC36AB,
    0x3FFA5503B23E255D,
    0xBC9D2F6EDB8D41E1,
    0x3FFA799E1330B358,
    0x3C9BCB7ECAC563C7,
    0x3FFA9E6B5579FDBF,
    0x3C90FAC90EF7FD31,
    0x3FFAC36BBFD3F37A,
    0xBC8F9234CAE76CD0,
    0x3FFAE89F995AD3AD,
    0x3C97A1CD345DCC81,
    0x3FFB0E07298DB666,
    0xBC9BDEF54C80E425,
    0x3FFB33A2B84F15FB,
    0xBC62805E3084D708,
    0x3FFB59728DE5593A,
    0xBC9C71DFBBBA6DE3,
    0x3FFB7F76F2FB5E47,
    0xBC75584F7E54AC3B,
    0x3FFBA5B030A1064A,
    0xBC9EFCD30E54292E,
    0x3FFBCC1E904BC1D2,
    0x3C823DD07A2D9E84,
    0x3FFBF2C25BD71E09,
    0xBC9EFDCA3F6B9C73,
    0x3FFC199BDD85529C,
    0x3C811065895048DD,
    0x3FFC40AB5FFFD07A,
    0x3C9B4537E083C60A,
    0x3FFC67F12E57D14B,
    0x3C92884DFF483CAD,
    0x3FFC8F6D9406E7B5,
    0x3C71ACBC48805C44,
    0x3FFCB720DCEF9069,
    0x3C7503CBD1E949DB,
    0x3FFCDF0B555DC3FA,
    0xBC8DD83B53829D72,
    0x3FFD072D4A07897C,
    0xBC9CBC3743797A9C,
    0x3FFD2F87080D89F2,
    0xBC9D487B719D8578,
    0x3FFD5818DCFBA487,
    0x3C82ED02D75B3707,
    0x3FFD80E316C98398,
    0xBC911EC18BEDDFE8,
    0x3FFDA9E603DB3285,
    0x3C9C2300696DB532,
    0x3FFDD321F301B460,
    0x3C92DA5778F018C3,
    0x3FFDFC97337B9B5F,
    0xBC91A5CD4F184B5C,
    0x3FFE264614F5A129,
    0xBC97B627817A1496,
    0x3FFE502EE78B3FF6,
    0x3C839E8980A9CC8F,
    0x3FFE7A51FBC74C83,
    0x3C92D522CA0C8DE2,
    0x3FFEA4AFA2A490DA,
    0xBC9E9C23179C2893,
    0x3FFECF482D8E67F1,
    0xBC9C93F3B411AD8C,
    0x3FFEFA1BEE615A27,
    0x3C9DC7F486A4B6B0,
    0x3FFF252B376BBA97,
    0x3C93A1A5BF0D8E43,
    0x3FFF50765B6E4540,
    0x3C99D3E12DD8A18B,
    0x3FFF7BFDAD9CBE14,
    0xBC9DBB12D006350A,
    0x3FFFA7C1819E90D8,
    0x3C874853F3A5931E,
    0x3FFFD3C22B8F71F1,
    0x3C62EB74966579E7,
];

/// `2ⁿ` for `n ∈ [-1022, 1023]`, built from the exponent bits.
#[inline]
fn pow2i_f64(n: i64) -> f64 {
    f64::from_bits((n.wrapping_add(1023) as u64).wrapping_shl(52))
}

/// Natural exponential of an `f64`, without libm.
///
/// With `k = round(x · 128/ln2)` (ties to even, through the `1.5·2⁵²` add),
/// `r = (x − k·EXP_F64_LN2_N_HI) − k·EXP_F64_LN2_N_LO`, `j = k mod 128`,
/// `e = ⌊k/128⌋` and `(hi, lo)` the [`EXP_F64_TABLE`] pair of `j`:
///
/// ```text
/// p  = (((C0·r + C1)·r + C2)·r + C3)·r² + r
/// er = hi + (lo + hi·p)
/// eˣ = (er · 2^⌊e/2⌋) · 2^(e − ⌊e/2⌋)
/// ```
///
/// evaluated exactly in that order. As in [`exp`], the split scale keeps
/// both factors normal, so results in the subnormal range round once.
/// Inputs above [`EXP_F64_OVERFLOW`] return `+∞`, below
/// [`EXP_F64_UNDERFLOW`] (including `−∞`) return `+0.0`; NaN returns the
/// canonical `f64::NAN`.
///
/// # Example
///
/// ```
/// use mcl_num::math::exp_f64;
/// assert_eq!(exp_f64(0.0), 1.0);
/// assert_eq!(exp_f64(f64::NEG_INFINITY), 0.0);
/// assert!((exp_f64(1.0) - core::f64::consts::E).abs() <= f64::EPSILON);
/// ```
#[inline]
pub fn exp_f64(x: f64) -> f64 {
    // Clamp into the range the main sequence handles (NaN goes to the low
    // end; the selects below restore every special case).
    let xc = if x > EXP_F64_OVERFLOW {
        EXP_F64_OVERFLOW
    } else if x >= EXP_F64_UNDERFLOW {
        x
    } else {
        EXP_F64_UNDERFLOW
    };
    let t = xc * EXP_F64_INV_LN2_N + ROUND_MAGIC_F64;
    let kd = t - ROUND_MAGIC_F64;
    let k = t.to_bits().wrapping_sub(ROUND_MAGIC_F64.to_bits()) as i64;
    let r = xc - kd * EXP_F64_LN2_N_HI - kd * EXP_F64_LN2_N_LO;
    let z = r * r;
    let q = ((EXP_F64_C[0] * r + EXP_F64_C[1]) * r + EXP_F64_C[2]) * r + EXP_F64_C[3];
    let p = q * z + r;
    let j = (k & ((1 << EXP_F64_TABLE_BITS) - 1)) as usize;
    let hi = f64::from_bits(EXP_F64_TABLE[2 * j]);
    let lo = f64::from_bits(EXP_F64_TABLE[2 * j + 1]);
    let er = hi + (lo + hi * p);
    let e = k >> EXP_F64_TABLE_BITS;
    let e1 = e >> 1;
    let main = er * pow2i_f64(e1) * pow2i_f64(e - e1);
    if x > EXP_F64_OVERFLOW {
        f64::INFINITY
    } else if x >= EXP_F64_UNDERFLOW {
        main
    } else if x < EXP_F64_UNDERFLOW {
        0.0
    } else {
        f64::NAN
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

    /// A double-double value `hi + lo`, for the `exp_f64` reference.
    type Dd = (f64, f64);

    fn quick_two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        (s, b - (s - a))
    }

    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    fn dd_add(x: Dd, y: Dd) -> Dd {
        let (s, e) = two_sum(x.0, y.0);
        quick_two_sum(s, e + x.1 + y.1)
    }

    /// `x · y`, with the exact product error from a fused multiply-add (the
    /// reference may use FMA; the function under test may not).
    fn dd_mul(x: Dd, y: Dd) -> Dd {
        let p = x.0 * y.0;
        let e = x.0.mul_add(y.0, -p) + (x.0 * y.1 + x.1 * y.0);
        quick_two_sum(p, e)
    }

    fn dd_div_int(x: Dd, n: f64) -> Dd {
        let q = x.0 / n;
        let p = q * n;
        let rem = ((x.0 - p) - q.mul_add(n, -p) + x.1) / n;
        quick_two_sum(q, rem)
    }

    /// `ln 2` as a double-double (`0x3FE6_2E42_FEFA_39EF`,
    /// `0x3C7A_BC9E_3B39_803F`).
    const LN2_DD: Dd = (core::f64::consts::LN_2, 2.319_046_813_846_299_6e-17);

    /// `e^r` for a double-double `|r| ≤ 0.35`, by Taylor series to about
    /// 2⁻¹⁰⁵ relative.
    fn dd_exp_reduced(r: Dd) -> Dd {
        let (mut sum, mut term) = ((1.0, 0.0), (1.0, 0.0));
        for n in 1..=28 {
            term = dd_div_int(dd_mul(term, r), f64::from(n));
            sum = dd_add(sum, term);
        }
        sum
    }

    /// `eˣ = e^r · 2ᵐ` with `m = round(x / ln 2)`: returns `(e^r, m)`.
    fn dd_exp(x: f64) -> (Dd, i32) {
        let m = (x / core::f64::consts::LN_2).round();
        let p = m * LN2_DD.0;
        let mlo = m.mul_add(LN2_DD.0, -p) + m * LN2_DD.1;
        let (s, e) = two_sum(x, -p);
        (dd_exp_reduced(quick_two_sum(s, e - mlo)), m as i32)
    }

    /// Error of `exp_f64(x)` against the double-double reference, in units
    /// of the `f64` ulp of the exact result (the subnormal spacing below
    /// the normal range); also whether the result is subnormal.
    fn exp_f64_ulps(x: f64) -> (f64, bool) {
        let got = exp_f64(x);
        let ((hi, lo), m) = dd_exp(x);
        // Scale `got` by 2⁻ᵐ in two exact steps (2^±1076 overflows one).
        let half = -m / 2;
        let scaled = got * 2f64.powi(half) * 2f64.powi(-m - half);
        let binade = hi.log2().floor() as i32;
        let subnormal = binade + m < -1022;
        let spacing = if subnormal {
            2f64.powi(-1074 - m)
        } else {
            2f64.powi(binade - 52)
        };
        (((scaled - hi) - lo).abs() / spacing, subnormal)
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // libm as an independent check
    fn exp_f64_constants_and_table_match_their_documented_values() {
        assert_eq!(EXP_F64_OVERFLOW.to_bits(), 0x4086_2E42_FEFA_39EF);
        assert_eq!(EXP_F64_INV_LN2_N.to_bits(), 0x4067_1547_652B_82FE);
        assert_eq!(EXP_F64_LN2_N_HI.to_bits(), 0x3F76_2E42_FEF8_0000);
        assert_eq!(EXP_F64_LN2_N_LO.to_bits(), 0x3D41_CF79_ABC9_E3B4);
        assert_eq!(
            EXP_F64_C.map(f64::to_bits),
            [
                0x3F81_1111_1111_1111,
                0x3FA5_5555_5555_5555,
                0x3FC5_5555_5555_5555,
                0x3FE0_0000_0000_0000
            ]
        );
        assert_eq!(LN2_DD.1.to_bits(), 0x3C7A_BC9E_3B39_803F);
        // hi + lo is ln2/128 far below f64 precision, and hi has 34
        // significant bits (the low 19 mantissa bits are zero).
        let (s, e) = two_sum(EXP_F64_LN2_N_HI, EXP_F64_LN2_N_LO);
        let (ln2_s, ln2_e) = dd_div_int(LN2_DD, 128.0);
        assert!(((s - ln2_s) + (e - ln2_e)).abs() < EXP_F64_LN2_N_HI * 1e-26);
        assert_eq!(EXP_F64_LN2_N_HI.to_bits() & 0x7_FFFF, 0);
        for j in 0..128 {
            let hi = f64::from_bits(EXP_F64_TABLE[2 * j]);
            let lo = f64::from_bits(EXP_F64_TABLE[2 * j + 1]);
            let (want_hi, want_lo) =
                dd_exp_reduced(dd_div_int(dd_mul(LN2_DD, (j as f64, 0.0)), 128.0));
            // hi is the exact value rounded, and the pair carries ~106 bits.
            assert_eq!(hi, want_hi + want_lo, "j = {j}");
            assert!(
                ((hi - want_hi) + (lo - want_lo)).abs() <= hi * 2f64.powi(-102),
                "j = {j}"
            );
            assert!((hi - (j as f64 / 128.0).exp2()).abs() <= hi * f64::EPSILON);
        }
    }

    #[test]
    fn exp_f64_is_within_the_documented_ulp_bound() {
        let mut worst_normal = 0.0f64;
        let mut worst_subnormal = 0.0f64;
        let mut record = |x: f64| {
            let (err, subnormal) = exp_f64_ulps(x);
            let worst = if subnormal {
                &mut worst_subnormal
            } else {
                &mut worst_normal
            };
            *worst = worst.max(err);
        };
        // The whole finite range, subnormal results included.
        let mut x = -745.1;
        while x <= EXP_F64_OVERFLOW {
            record(x);
            x += 0.001_37;
        }
        // Dense over the tempering solve's working range β·d ∈ [−60, 0].
        let mut x = -60.0;
        while x <= 0.0 {
            record(x);
            x += 0.000_29;
        }
        // Tiny arguments of both signs, where eˣ − 1 is all in the tail.
        for bits in (1e-12f64.to_bits()..=1f64.to_bits()).step_by(1 << 44) {
            let x = f64::from_bits(bits);
            record(x);
            record(-x);
        }
        assert!(worst_normal <= 0.52, "exp_f64 max error {worst_normal} ulp");
        assert!(
            worst_subnormal <= 1.0,
            "exp_f64 subnormal error {worst_subnormal} ulp"
        );
    }

    #[test]
    fn exp_f64_special_values_follow_ieee_conventions() {
        assert_eq!(exp_f64(0.0), 1.0);
        assert_eq!(exp_f64(-0.0), 1.0);
        assert_eq!(exp_f64(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_f64(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp_f64(-1e300).to_bits(), 0.0f64.to_bits());
        // Canonical NaN whatever the payload or sign.
        for bits in [
            0x7FF8_0000_0000_0000u64,
            0x7FF0_0000_0000_0001,
            0xFFF8_0000_DEAD_0001,
        ] {
            assert_eq!(exp_f64(f64::from_bits(bits)).to_bits(), f64::NAN.to_bits());
        }
        // Overflow edge: the threshold itself is finite, the next f64 is not.
        let top = exp_f64(EXP_F64_OVERFLOW);
        assert!(top.is_finite() && top > f64::MAX * 0.999_999, "{top:e}");
        assert_eq!(
            exp_f64(f64::from_bits(EXP_F64_OVERFLOW.to_bits() + 1)),
            f64::INFINITY
        );
        assert_eq!(exp_f64(710.0), f64::INFINITY);
        // Underflow edge: e⁻⁷⁴⁵ rounds to the smallest subnormal, e^−745.2
        // (below half of it) to zero, and so does everything below −746.
        assert_eq!(exp_f64(-745.0), f64::from_bits(1));
        assert_eq!(exp_f64(-745.2).to_bits(), 0);
        assert_eq!(exp_f64(EXP_F64_UNDERFLOW).to_bits(), 0);
        assert_eq!(exp_f64(-746.5).to_bits(), 0);
        // Subnormal results, and the boundary of the normal range.
        let sub = exp_f64(-720.0);
        assert!(
            sub > 0.0 && sub < f64::MIN_POSITIVE,
            "exp_f64(-720) = {sub:e}"
        );
        assert!(exp_f64(-708.3) >= f64::MIN_POSITIVE);
        assert!(exp_f64(-708.5) < f64::MIN_POSITIVE);
    }
}
