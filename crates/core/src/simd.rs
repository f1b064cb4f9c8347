//! Explicit AVX2 lane bodies for the [`KernelBackend::Avx2`] kernels
//! (x86-64 only).
//!
//! [`crate::kernel`]: the `Lanes` backend *shapes* its loops for
//! autovectorization; this module is the explicit-SIMD counterpart that issues
//! `core::arch::x86_64` intrinsics directly, so the hot bodies run 8×f32 wide
//! regardless of what the autovectorizer decides at the build's baseline
//! target. Everything here is runtime-gated: callers check [`available`]
//! before entering an AVX2 body and fall back to the lane kernels otherwise,
//! which keeps non-AVX2 hosts (and non-x86 builds, where this module does not
//! exist) on the portable path with identical results.
//!
//! # Bit-identity contract
//!
//! Every function is restricted to the same single-rounding IEEE 754 ops the
//! scalar kernel performs per particle, in the same order — add, subtract,
//! multiply, divide, square root, compare-and-select, exact widening and
//! exact integer operations on the float bits — and **never uses FMA**: a
//! fused multiply-add rounds once where the scalar body rounds twice, which
//! would break the backend bit-identity contract pinned by
//! `tests/kernel_backend_equivalence.rs`.
//!
//! The transcendentals are 8-lane replays of the owned [`mcl_num::math`]
//! functions ([`ln_v`], [`exp_v`], [`sin_cos_v`]), plus the 4-lane `f64`
//! [`exp_f64_v`]: the same constants, the same Horner order, the same
//! special values. The angle wrap
//! [`normalize_angle_v`] replays [`mcl_num::normalize_angle`]'s exact fast
//! path and hands a group to the scalar function when a lane leaves it. The
//! motion noise's SplitMix64 streams run on 4×u64 registers
//! ([`counter_uniforms`]). The pose reduction's weight clamp and angular
//! difference are selects ([`pass_weights_v`], [`angular_difference_v`]).
//!
//! The motion, observation and reweight kernels have bodies here, and so do
//! three serial passes with 4×`f64` lane accumulators: the pose reduction's
//! two passes ([`pose_lanes`], [`spread_lanes`]) and the tempering solve's
//! block sums ([`temper_lanes`]). So does the adaptive layer's
//! mode-refinement window sums ([`window_sums`]), whose yaw trig is
//! [`sin_cos_lanes`]. The resampling plan's branch-free boundary pass
//! ([`arrow_boundaries`]) is the portable Rust body compiled with AVX2
//! enabled, with no intrinsics: it vectorizes 4×`f64` wide and measured
//! faster than the baseline-target build. The anchor and resample kernels
//! run their lane bodies under `Avx2`, because intrinsic versions of them
//! measured no faster.
// Intrinsics require `unsafe`; this is the one module in the crate allowed to
// use it. Every unsafe block carries a SAFETY comment discharging the single
// obligation: the AVX2 (and where noted F16C-independent) target features are
// runtime-checked by `available` before any `#[target_feature]` body runs.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::adaptive::{TEMPER_LANES, TEMPER_SLOTS};
use crate::kernel::{LANES, POSE_SLOTS, REDUCTION_LANES, SPREAD_SLOTS};
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::BeamEndPointModel;
use crate::resampling::Wheel;
use crate::rng::{CounterRng, GOLDEN_GAMMA, PARTICLE_MIX, SCRAMBLE};
use core::f32::consts::{PI, TAU};
use mcl_gridmap::{DistanceField, Pose2};
use mcl_num::math::{
    COS_P, EXP_F64_C, EXP_F64_INV_LN2_N, EXP_F64_LN2_N_HI, EXP_F64_LN2_N_LO, EXP_F64_OVERFLOW,
    EXP_F64_TABLE, EXP_F64_TABLE_BITS, EXP_F64_UNDERFLOW, EXP_LN2_HI, EXP_LN2_LO, EXP_OVERFLOW,
    EXP_P, EXP_UNDERFLOW, FRAC_2_PI, LN2_HI, LN2_LO, LN_LG, LN_SQRT_HALF_BITS,
    LN_SUBNORMAL_EXPONENT, LN_SUBNORMAL_SCALE, LOG2_E, PIO2, ROUND_MAGIC, ROUND_MAGIC_F64, SIN_P,
};

// The lane kernels and the 256-bit registers must agree on the group width.
const _: () = assert!(LANES == 8, "AVX2 bodies assume 8 f32 lanes");

/// Runtime probe for the explicit AVX2 bodies. The result is cached by the
/// standard library's feature detection, so per-dispatch checks are a single
/// atomic load.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Scores one [`LANES`]-wide group of particle poses against the in-range
/// end-point prefix of a partitioned beam batch — the AVX2 body of
/// `observation_log_likelihoods_avx2`, bit-identical to
/// [`BeamEndPointModel::batch_log_likelihood`] per lane.
///
/// The yaw `sin_cos` ([`sin_cos_v`]), the per-beam rotation, the truncated
/// EDT lookup (through [`DistanceField::distances_at_world_lanes_avx2`],
/// which gathers on AVX2 fields) and the Eq. 1 accumulation all run as
/// 8-wide register ops.
#[allow(clippy::too_many_arguments)] // the full lane-group register set
pub(crate) fn score_pose_group<D: DistanceField + ?Sized>(
    model: &BeamEndPointModel,
    field: &D,
    x: &[f32; LANES],
    y: &[f32; LANES],
    theta: &[f32; LANES],
    end_x: &[f32],
    end_y: &[f32],
    out: &mut [f32; LANES],
) {
    debug_assert!(available());
    let (sin_t, cos_t) = sin_cos_lanes(theta);
    // Same constant the scalar body folds out of `2.0 * σ * σ`: identical
    // expression, identical roundings.
    let denom = 2.0 * model.sigma_obs() * model.sigma_obs();
    // SAFETY: `available` was checked by the caller (debug-asserted above),
    // so the AVX2 target feature is present.
    unsafe {
        score_beams(
            field,
            end_x,
            end_y,
            model.r_max(),
            model.log_normalizer(),
            denom,
            x,
            y,
            &sin_t,
            &cos_t,
            out,
        );
    }
}

/// The register-resident beam loop of [`score_pose_group`]: every beam of
/// `end_x` / `end_y` is scored, one straight-line body per beam.
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // the full lane-group register set
unsafe fn score_beams<D: DistanceField + ?Sized>(
    field: &D,
    end_x: &[f32],
    end_y: &[f32],
    r_max: f32,
    log_normalizer: f32,
    denom: f32,
    x: &[f32; LANES],
    y: &[f32; LANES],
    sin_t: &[f32; LANES],
    cos_t: &[f32; LANES],
    out: &mut [f32; LANES],
) {
    let x_v = _mm256_loadu_ps(x.as_ptr());
    let y_v = _mm256_loadu_ps(y.as_ptr());
    let sin_v = _mm256_loadu_ps(sin_t.as_ptr());
    let cos_v = _mm256_loadu_ps(cos_t.as_ptr());
    let rmax_v = _mm256_set1_ps(r_max);
    let norm_v = _mm256_set1_ps(log_normalizer);
    let denom_v = _mm256_set1_ps(denom);
    let mut log_sum = _mm256_setzero_ps();
    let mut ex = [0.0f32; LANES];
    let mut ey = [0.0f32; LANES];
    let mut edt = [0.0f32; LANES];
    for (&bx, &by) in end_x.iter().zip(end_y) {
        let bx = _mm256_set1_ps(bx);
        let by = _mm256_set1_ps(by);
        // ex = (x + cos·bx) − sin·by and ey = (y + sin·bx) + cos·by, with the
        // scalar body's association and one rounding per op — no FMA.
        let ex_v = _mm256_sub_ps(
            _mm256_add_ps(x_v, _mm256_mul_ps(cos_v, bx)),
            _mm256_mul_ps(sin_v, by),
        );
        let ey_v = _mm256_add_ps(
            _mm256_add_ps(y_v, _mm256_mul_ps(sin_v, bx)),
            _mm256_mul_ps(cos_v, by),
        );
        _mm256_storeu_ps(ex.as_mut_ptr(), ex_v);
        _mm256_storeu_ps(ey.as_mut_ptr(), ey_v);
        field.distances_at_world_lanes_avx2(&ex, &ey, &mut edt);
        let edt_v = _mm256_loadu_ps(edt.as_ptr());
        // `min(edt, r_max)`: matches `f32::min` — on a NaN lane (which the
        // field never produces) `minps` returns the second operand, r_max,
        // exactly like the scalar min.
        let d = _mm256_min_ps(edt_v, rmax_v);
        // log_normalizer − d² / denom, accumulated in beam order per lane.
        let term = _mm256_sub_ps(norm_v, _mm256_div_ps(_mm256_mul_ps(d, d), denom_v));
        log_sum = _mm256_add_ps(log_sum, term);
    }
    _mm256_storeu_ps(out.as_mut_ptr(), log_sum);
}

/// The reweight body's likelihood factors of one lane group:
/// `out[l] = exp(lg[l] − max_log)`, one 8-wide subtraction followed by
/// [`exp_v`] — bit-identical to `mcl_num::math::exp(lg[l] - max_log)`.
pub(crate) fn exp_shifted(lg: &[f32; LANES], max_log: f32, out: &mut [f32; LANES]) {
    debug_assert!(available());
    // SAFETY: callers gate on `available`.
    unsafe { exp_shifted_impl(lg, max_log, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn exp_shifted_impl(lg: &[f32; LANES], max_log: f32, out: &mut [f32; LANES]) {
    let v = _mm256_sub_ps(_mm256_loadu_ps(lg.as_ptr()), _mm256_set1_ps(max_log));
    _mm256_storeu_ps(out.as_mut_ptr(), exp_v(v));
}

/// `sin_cos` of one lane group through [`sin_cos_v`]: returns
/// `(sin, cos)` arrays bit-identical to `mcl_num::math::sin_cos` per lane.
pub(crate) fn sin_cos_lanes(theta: &[f32; LANES]) -> ([f32; LANES], [f32; LANES]) {
    debug_assert!(available());
    let mut sin_t = [0.0f32; LANES];
    let mut cos_t = [0.0f32; LANES];
    // SAFETY: callers gate on `available`.
    unsafe { sin_cos_lanes_impl(theta, &mut sin_t, &mut cos_t) };
    (sin_t, cos_t)
}

#[target_feature(enable = "avx2")]
unsafe fn sin_cos_lanes_impl(
    theta: &[f32; LANES],
    sin_t: &mut [f32; LANES],
    cos_t: &mut [f32; LANES],
) {
    let (s, c) = sin_cos_v(_mm256_loadu_ps(theta.as_ptr()));
    _mm256_storeu_ps(sin_t.as_mut_ptr(), s);
    _mm256_storeu_ps(cos_t.as_mut_ptr(), c);
}

/// The lane accumulators of one tempering-pass block — the AVX2 body of
/// `adaptive::temper_pass`, bit-identical to its portable lanes. `weights`
/// and `logs` hold a whole number of 4-particle quads; lane `l` of
/// `out[slot]` sums slot `slot` of `adaptive::temper_terms` over the quad
/// members `l`, in quad order. Four `f64` lanes per register, with
/// [`exp_f64_v`] for the tempered likelihood.
pub(crate) fn temper_lanes<const FIRST: bool>(
    weights: &[f32],
    logs: &[f32],
    max_log: f64,
    beta: f64,
) -> [[f64; TEMPER_LANES]; TEMPER_SLOTS] {
    debug_assert!(available());
    assert_eq!(weights.len(), logs.len(), "one weight per log-likelihood");
    assert_eq!(weights.len() % TEMPER_LANES, 0, "whole quads only");
    let mut out = [[0.0; TEMPER_LANES]; TEMPER_SLOTS];
    // SAFETY: callers gate on `available`.
    unsafe { temper_lanes_impl::<FIRST>(weights, logs, max_log, beta, &mut out) };
    out
}

/// The body of [`temper_lanes`].
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
unsafe fn temper_lanes_impl<const FIRST: bool>(
    weights: &[f32],
    logs: &[f32],
    max_log: f64,
    beta: f64,
    out: &mut [[f64; TEMPER_LANES]; TEMPER_SLOTS],
) {
    const _: () = assert!(TEMPER_LANES == 4, "one f64 register per slot");
    let zero = _mm256_setzero_pd();
    let max_v = _mm256_set1_pd(max_log);
    let beta_v = _mm256_set1_pd(beta);
    let mut acc = [zero; TEMPER_SLOTS];
    for (wq, lq) in weights
        .chunks_exact(TEMPER_LANES)
        .zip(logs.chunks_exact(TEMPER_LANES))
    {
        let w = _mm256_cvtps_pd(_mm_loadu_ps(wq.as_ptr()));
        let d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(lq.as_ptr())), max_v);
        let e = exp_f64_v(_mm256_mul_pd(beta_v, d));
        let t = _mm256_mul_pd(w, e);
        let tt = _mm256_mul_pd(t, t);
        // A vanished term contributes +0 to the slope sums (an all-zero
        // mask), exactly the portable select.
        let live = _mm256_cmp_pd::<_CMP_GT_OQ>(t, zero);
        acc[0] = _mm256_add_pd(acc[0], t);
        acc[1] = _mm256_add_pd(acc[1], _mm256_and_pd(live, _mm256_mul_pd(t, d)));
        acc[2] = _mm256_add_pd(acc[2], tt);
        acc[3] = _mm256_add_pd(acc[3], _mm256_and_pd(live, _mm256_mul_pd(tt, d)));
        if FIRST {
            let ww = _mm256_mul_pd(w, w);
            let w_live = _mm256_cmp_pd::<_CMP_GT_OQ>(w, zero);
            acc[4] = _mm256_add_pd(acc[4], e);
            acc[5] = _mm256_add_pd(acc[5], w);
            acc[6] = _mm256_add_pd(acc[6], _mm256_and_pd(w_live, _mm256_mul_pd(w, d)));
            acc[7] = _mm256_add_pd(acc[7], ww);
            acc[8] = _mm256_add_pd(acc[8], _mm256_and_pd(w_live, _mm256_mul_pd(ww, d)));
            acc[9] = _mm256_add_pd(acc[9], _mm256_mul_pd(_mm256_mul_pd(w, d), d));
            acc[10] = _mm256_add_pd(acc[10], _mm256_mul_pd(_mm256_mul_pd(ww, d), d));
        }
    }
    for (slot, lanes) in out.iter_mut().zip(acc) {
        _mm256_storeu_pd(slot.as_mut_ptr(), lanes);
    }
}

/// The lane accumulators of one pose-reduction block's whole quads — the
/// AVX2 body of `kernel::PosePartials`, bit-identical to the portable lanes
/// of `kernel::pose_quad`. `block` holds the widened weights, x, y and yaw
/// of a whole number of quads; lane `l` of `out[slot]` sums that slot's
/// term over the quad members `l`, in quad order. Each 8-particle group
/// runs [`sin_cos_v`] once and adds its two quads (the `vcvtps2pd` halves)
/// into 4×`f64` accumulators; a trailing quad is the low half of a
/// zero-padded group.
pub(crate) fn pose_lanes(
    block: [&[f32]; 4],
    unweighted: bool,
) -> [[f64; REDUCTION_LANES]; POSE_SLOTS] {
    debug_assert!(available());
    let mut out = [[0.0; REDUCTION_LANES]; POSE_SLOTS];
    // SAFETY: callers gate on `available`.
    unsafe { pose_lanes_impl(block, unweighted, &mut out) };
    out
}

/// The body of [`pose_lanes`].
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
unsafe fn pose_lanes_impl(
    [w, x, y, theta]: [&[f32]; 4],
    unweighted: bool,
    out: &mut [[f64; REDUCTION_LANES]; POSE_SLOTS],
) {
    let mut acc = [_mm256_setzero_pd(); POSE_SLOTS];
    for i in (0..w.len()).step_by(LANES) {
        let quads = group_quads(w.len(), i);
        let wv = pass_weights_v(load_group(w, i, quads), unweighted);
        let (sin_v, cos_v) = sin_cos_v(load_group(theta, i, quads));
        let (xv, yv) = (load_group(x, i, quads), load_group(y, i, quads));
        for half in 0..quads {
            let w = widen_half(wv, half);
            let terms = [
                w,
                _mm256_mul_pd(w, w),
                _mm256_mul_pd(w, widen_half(xv, half)),
                _mm256_mul_pd(w, widen_half(yv, half)),
                _mm256_mul_pd(w, widen_half(sin_v, half)),
                _mm256_mul_pd(w, widen_half(cos_v, half)),
            ];
            for (sum, term) in acc.iter_mut().zip(terms) {
                *sum = _mm256_add_pd(*sum, term);
            }
        }
    }
    for (slot, lanes) in out.iter_mut().zip(acc) {
        _mm256_storeu_pd(slot.as_mut_ptr(), lanes);
    }
}

/// The spread-pass lane accumulators of one pose-reduction block's whole
/// quads against the mean pose — the AVX2 body of `kernel::SpreadPartials`,
/// bit-identical to the portable lanes of `kernel::spread_quad`, in the
/// layout of [`pose_lanes`]: `w·(dx·dx + dy·dy)` and `(w·dθ)·dθ`, with the
/// position deviations `f32` subtractions and `dθ` from
/// [`angular_difference_v`].
pub(crate) fn spread_lanes(
    block: [&[f32]; 4],
    mean: &Pose2,
    unweighted: bool,
) -> [[f64; REDUCTION_LANES]; SPREAD_SLOTS] {
    debug_assert!(available());
    let mut out = [[0.0; REDUCTION_LANES]; SPREAD_SLOTS];
    // SAFETY: callers gate on `available`.
    unsafe { spread_lanes_impl(block, mean, unweighted, &mut out) };
    out
}

/// The body of [`spread_lanes`].
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
unsafe fn spread_lanes_impl(
    [w, x, y, theta]: [&[f32]; 4],
    mean: &Pose2,
    unweighted: bool,
    out: &mut [[f64; REDUCTION_LANES]; SPREAD_SLOTS],
) {
    let (mean_x, mean_y) = (_mm256_set1_ps(mean.x), _mm256_set1_ps(mean.y));
    let mut acc = [_mm256_setzero_pd(); SPREAD_SLOTS];
    for i in (0..w.len()).step_by(LANES) {
        let quads = group_quads(w.len(), i);
        let wv = pass_weights_v(load_group(w, i, quads), unweighted);
        let dxv = _mm256_sub_ps(load_group(x, i, quads), mean_x);
        let dyv = _mm256_sub_ps(load_group(y, i, quads), mean_y);
        let dtv = angular_difference_v(load_group(theta, i, quads), mean.theta);
        for half in 0..quads {
            let w = widen_half(wv, half);
            let (dx, dy) = (widen_half(dxv, half), widen_half(dyv, half));
            let dt = widen_half(dtv, half);
            let sq = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
            acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(w, sq));
            acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(_mm256_mul_pd(w, dt), dt));
        }
    }
    for (slot, lanes) in out.iter_mut().zip(acc) {
        _mm256_storeu_pd(slot.as_mut_ptr(), lanes);
    }
}

/// Whole quads in the 8-lane group at `i` of a reduction block of `len`
/// values (a whole number of quads): 2, or 1 for a trailing quad.
fn group_quads(len: usize, i: usize) -> usize {
    debug_assert_eq!(len % REDUCTION_LANES, 0, "whole quads only");
    ((len - i) / REDUCTION_LANES).min(2)
}

/// The group of `quads` quads of `values` at `i`; a lone quad fills the low
/// half and zeroes the high half.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_group(values: &[f32], i: usize, quads: usize) -> __m256 {
    if quads == 2 {
        _mm256_loadu_ps(values[i..i + LANES].as_ptr())
    } else {
        let quad = _mm_loadu_ps(values[i..i + REDUCTION_LANES].as_ptr());
        _mm256_set_m128(_mm_setzero_ps(), quad)
    }
}

/// The reduction passes' weights on 8 lanes: `1` for the unit-weight
/// rerun, otherwise `vmaxps(w, 0)` — `w` when `w > 0`, else `+0` (NaN and
/// `-0` included), the portable select.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pass_weights_v(w: __m256, unweighted: bool) -> __m256 {
    if unweighted {
        _mm256_set1_ps(1.0)
    } else {
        _mm256_max_ps(w, _mm256_setzero_ps())
    }
}

/// Exact f32 → f64 widening of the low (`half` 0) or high (`half` 1) quad
/// of an 8-lane group.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn widen_half(v: __m256, half: usize) -> __m256d {
    _mm256_cvtps_pd(if half == 0 {
        _mm256_castps256_ps128(v)
    } else {
        _mm256_extractf128_ps::<1>(v)
    })
}

/// `mcl_num::angular_difference(θ, mean)` on 8 lanes, in select form: when
/// every lane's `d = θ − mean` is below a turn in magnitude the remainder is
/// `d` itself and the wrap into `(−π, π]` is two selects; otherwise (NaN,
/// ±∞ or a lane more than a turn away) the group goes through the scalar
/// function, as `kernel::angular_difference_group` does.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn angular_difference_v(theta: __m256, mean: f32) -> __m256 {
    let tau = _mm256_set1_ps(TAU);
    let d = _mm256_sub_ps(theta, _mm256_set1_ps(mean));
    if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(abs_v(d), tau)) != 0xFF {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), theta);
        let lanes = lanes.map(|t| mcl_num::angular_difference(t, mean));
        return _mm256_loadu_ps(lanes.as_ptr());
    }
    let wrapped = select(
        _mm256_cmp_ps::<_CMP_GT_OQ>(d, _mm256_set1_ps(PI)),
        _mm256_sub_ps(d, tau),
        d,
    );
    select(
        _mm256_cmp_ps::<_CMP_LE_OQ>(d, _mm256_set1_ps(-PI)),
        _mm256_add_ps(d, tau),
        wrapped,
    )
}

/// The resampling plan's boundary pass
/// (`resampling::arrow_boundaries`) compiled with AVX2 enabled: the same
/// Rust expression, which the compiler vectorizes 4×`f64` wide instead of
/// 2 wide at the baseline target. It needs no intrinsics, and the bits
/// cannot move: rustc never contracts a multiply and an add into an FMA.
pub(crate) fn arrow_boundaries(wheel: &Wheel, cumulative: &[f64], marks: &mut [usize], lo: usize) {
    debug_assert!(available());
    // SAFETY: callers gate on `available`.
    unsafe { arrow_boundaries_impl(wheel, cumulative, marks, lo) }
}

/// The body of [`arrow_boundaries`].
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
unsafe fn arrow_boundaries_impl(wheel: &Wheel, cumulative: &[f64], marks: &mut [usize], lo: usize) {
    crate::resampling::arrow_boundaries(wheel, cumulative, marks, lo);
}

/// The window sums of one mean-shift iteration — the AVX2 body of
/// `kernel::window_sums`, bit-identical to its portable loop. Each
/// particle's `[x, y, sin θ, cos θ]` is one register: its distance test runs
/// on the low pair, and `w · pose`, masked to `+0` outside the window, adds
/// into one accumulator register holding `[Σw·x, Σw·y, Σw·sin θ, Σw·cos θ]`
/// (four independent serial sums, one per lane), beside the scalar `Σw`.
pub(crate) fn window_sums(
    poses: &[[f64; 4]],
    weights: &[f64],
    cx: f64,
    cy: f64,
    r2: f64,
) -> [f64; 5] {
    debug_assert!(available());
    assert_eq!(poses.len(), weights.len(), "one weight per pose");
    // SAFETY: callers gate on `available`.
    unsafe { window_sums_impl(poses, weights, cx, cy, r2) }
}

/// The body of [`window_sums`].
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
unsafe fn window_sums_impl(
    poses: &[[f64; 4]],
    weights: &[f64],
    cx: f64,
    cy: f64,
    r2: f64,
) -> [f64; 5] {
    let center = _mm_setr_pd(cx, cy);
    let r2 = _mm_set_sd(r2);
    let mut sums = _mm256_setzero_pd();
    let mut sum_w = _mm_setzero_pd();
    for (pose, &w) in poses.iter().zip(weights) {
        let pose = _mm256_loadu_pd(pose.as_ptr());
        // (dx·dx) + (dy·dy) ≤ r2 in the low lane, as the scalar test.
        let d = _mm_sub_pd(_mm256_castpd256_pd128(pose), center);
        let sq = _mm_mul_pd(d, d);
        let inside = _mm_cmp_sd::<_CMP_LE_OQ>(_mm_add_sd(sq, _mm_unpackhi_pd(sq, sq)), r2);
        let terms = _mm256_mul_pd(_mm256_set1_pd(w), pose);
        sums = _mm256_add_pd(sums, _mm256_and_pd(_mm256_broadcastsd_pd(inside), terms));
        sum_w = _mm_add_sd(sum_w, _mm_and_pd(inside, _mm_set_sd(w)));
    }
    let mut out = [0.0f64; 5];
    _mm_store_sd(out.as_mut_ptr(), sum_w);
    _mm256_storeu_pd(out[1..].as_mut_ptr(), sums);
    out
}

/// The motion step of one lane group — the AVX2 body of
/// `motion_predict_avx2`, bit-identical to [`MotionModel::sample`] per
/// lane. `uniforms[d][l]` is lane `l`'s `d`-th uniform draw; the poses are
/// updated in place.
///
/// Both Box–Muller pairs ([`ln_v`], `vsqrtps`, [`sin_cos_v`]), the noise
/// perturbation, the yaw `sin_cos`, the pose composition and the angle wrap
/// ([`normalize_angle_v`]) run as 8-wide register ops.
pub(crate) fn motion_group(
    model: &MotionModel,
    delta: &MotionDelta,
    uniforms: &[[f32; LANES]; 4],
    x: &mut [f32; LANES],
    y: &mut [f32; LANES],
    theta: &mut [f32; LANES],
) {
    debug_assert!(available());
    // SAFETY: callers gate on `available`.
    unsafe { motion_group_impl(model.sigma(), delta, uniforms, x, y, theta) }
}

#[target_feature(enable = "avx2")]
unsafe fn motion_group_impl(
    sigma: [f32; 3],
    delta: &MotionDelta,
    uniforms: &[[f32; LANES]; 4],
    x: &mut [f32; LANES],
    y: &mut [f32; LANES],
    theta: &mut [f32; LANES],
) {
    let u = uniforms.map(|lane| _mm256_loadu_ps(lane.as_ptr()));
    let (n_x, n_y) = box_muller_v(u[0], u[1]);
    let (n_theta, _) = box_muller_v(u[2], u[3]);
    let dx = perturb_v(delta.dx, sigma[0], n_x);
    let dy = perturb_v(delta.dy, sigma[1], n_y);
    let dtheta = perturb_v(delta.dtheta, sigma[2], n_theta);
    let x_v = _mm256_loadu_ps(x.as_ptr());
    let y_v = _mm256_loadu_ps(y.as_ptr());
    let theta_v = _mm256_loadu_ps(theta.as_ptr());
    let (s, c) = sin_cos_v(theta_v);
    // x' = (x + c·dx) − s·dy and y' = (y + s·dx) + c·dy, no FMA.
    let new_x = _mm256_sub_ps(
        _mm256_add_ps(x_v, _mm256_mul_ps(c, dx)),
        _mm256_mul_ps(s, dy),
    );
    let new_y = _mm256_add_ps(
        _mm256_add_ps(y_v, _mm256_mul_ps(s, dx)),
        _mm256_mul_ps(c, dy),
    );
    _mm256_storeu_ps(x.as_mut_ptr(), new_x);
    _mm256_storeu_ps(y.as_mut_ptr(), new_y);
    normalize_angle_v(_mm256_add_ps(theta_v, dtheta), theta);
}

/// The four uniform draws of the eight particle streams
/// `CounterRng::for_particle(seed, update_index, first_particle + l)`,
/// `l ∈ 0..8` — `out[d][l]` is lane `l`'s `d`-th draw, bit-identical to
/// calling [`CounterRng::uniform`](crate::rng::CounterRng::uniform) four
/// times per stream. SplitMix64 runs on two 4×u64 registers; AVX2 has no
/// 64-bit multiply, so each wrapping product is assembled from three
/// 32×32→64 `vpmuludq` partial products (exact integer arithmetic).
pub(crate) fn counter_uniforms(
    seed: u64,
    update_index: u64,
    first_particle: u64,
) -> [[f32; LANES]; 4] {
    debug_assert!(available());
    let mut out = [[0.0f32; LANES]; 4];
    // SAFETY: callers gate on `available`.
    unsafe { counter_uniforms_impl(seed, update_index, first_particle, &mut out) };
    out
}

#[target_feature(enable = "avx2")]
unsafe fn counter_uniforms_impl(
    seed: u64,
    update_index: u64,
    first_particle: u64,
    out: &mut [[f32; LANES]; 4],
) {
    let base = _mm256_set1_epi64x(CounterRng::stream_base(seed, update_index) as i64);
    let first = _mm256_set1_epi64x(first_particle as i64);
    let mut state = [
        _mm256_add_epi64(first, _mm256_setr_epi64x(0, 1, 2, 3)),
        _mm256_add_epi64(first, _mm256_setr_epi64x(4, 5, 6, 7)),
    ]
    .map(|index| _mm256_add_epi64(base, mul_u64_v(index, PARTICLE_MIX)));
    let gamma = _mm256_set1_epi64x(GOLDEN_GAMMA as i64);
    // Gathers the low dword of each 64-bit lane into the low 128 bits.
    let low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    let scale = _mm256_set1_ps((1u64 << 24) as f32);
    for draws in out.iter_mut() {
        let top = state.map(|s| {
            let mut z = _mm256_add_epi64(s, gamma);
            z = mul_u64_v(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), SCRAMBLE[0]);
            z = mul_u64_v(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), SCRAMBLE[1]);
            z = _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z));
            // The top 24 bits, which fit the low dword exactly.
            _mm256_permutevar8x32_epi32(_mm256_srli_epi64::<40>(z), low_dwords)
        });
        state = state.map(|s| _mm256_add_epi64(s, gamma));
        let packed = _mm256_permute2x128_si256::<0x20>(top[0], top[1]);
        let uniform = _mm256_div_ps(_mm256_cvtepi32_ps(packed), scale);
        _mm256_storeu_ps(draws.as_mut_ptr(), uniform);
    }
}

/// Wrapping 64-bit multiply of each lane by the constant `k`:
/// `lo(a)·lo(k) + ((hi(a)·lo(k) + lo(a)·hi(k)) << 32)` mod 2⁶⁴.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mul_u64_v(a: __m256i, k: u64) -> __m256i {
    let k_lo = _mm256_set1_epi64x((k & 0xFFFF_FFFF) as i64);
    let k_hi = _mm256_set1_epi64x((k >> 32) as i64);
    let low = _mm256_mul_epu32(a, k_lo);
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), k_lo),
        _mm256_mul_epu32(a, k_hi),
    );
    _mm256_add_epi64(low, _mm256_slli_epi64::<32>(cross))
}

/// `crate::rng::box_muller` on 8 lanes.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn box_muller_v(u1: __m256, u2: __m256) -> (__m256, __m256) {
    let log = ln_v(_mm256_sub_ps(_mm256_set1_ps(1.0), u1));
    let radius = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), log));
    let (sin_phi, cos_phi) = sin_cos_v(_mm256_mul_ps(_mm256_set1_ps(TAU), u2));
    (
        _mm256_mul_ps(radius, cos_phi),
        _mm256_mul_ps(radius, sin_phi),
    )
}

/// The motion noise `mean + std·n` (exactly `mean` when `std ≤ 0`) on 8 lanes (`std` is the same for every lane).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn perturb_v(mean: f32, std: f32, n: __m256) -> __m256 {
    if std <= 0.0 {
        _mm256_set1_ps(mean)
    } else {
        _mm256_add_ps(_mm256_set1_ps(mean), _mm256_mul_ps(_mm256_set1_ps(std), n))
    }
}

/// `_mm256_blendv_ps(a, b, mask)`: `b` where the lane's mask is set.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn select(mask: __m256, b: __m256, a: __m256) -> __m256 {
    _mm256_blendv_ps(a, b, mask)
}

/// `f32::abs` on 8 lanes (clears the sign bit).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn abs_v(x: __m256) -> __m256 {
    _mm256_andnot_ps(_mm256_set1_ps(-0.0), x)
}

/// `mcl_num::math::ln` on 8 lanes: the same bit split, the same Horner
/// order, the same special-value selects.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn ln_v(x: __m256) -> __m256 {
    let subnormal = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(f32::MIN_POSITIVE));
    let scaled = select(
        subnormal,
        _mm256_mul_ps(x, _mm256_set1_ps(LN_SUBNORMAL_SCALE)),
        x,
    );
    let k_adjust = _mm256_and_si256(
        _mm256_castps_si256(subnormal),
        _mm256_set1_epi32(LN_SUBNORMAL_EXPONENT),
    );
    let ix = _mm256_add_epi32(
        _mm256_castps_si256(scaled),
        _mm256_set1_epi32((0x3F80_0000 - LN_SQRT_HALF_BITS) as i32),
    );
    let k = _mm256_add_epi32(
        _mm256_sub_epi32(_mm256_srli_epi32::<23>(ix), _mm256_set1_epi32(0x7F)),
        k_adjust,
    );
    let m = _mm256_castsi256_ps(_mm256_add_epi32(
        _mm256_and_si256(ix, _mm256_set1_epi32(0x007F_FFFF)),
        _mm256_set1_epi32(LN_SQRT_HALF_BITS as i32),
    ));
    let f = _mm256_sub_ps(m, _mm256_set1_ps(1.0));
    let s = _mm256_div_ps(f, _mm256_add_ps(_mm256_set1_ps(2.0), f));
    let z = _mm256_mul_ps(s, s);
    let w = _mm256_mul_ps(z, z);
    let t1 = _mm256_mul_ps(
        w,
        _mm256_add_ps(
            _mm256_set1_ps(LN_LG[1]),
            _mm256_mul_ps(w, _mm256_set1_ps(LN_LG[3])),
        ),
    );
    let t2 = _mm256_mul_ps(
        z,
        _mm256_add_ps(
            _mm256_set1_ps(LN_LG[0]),
            _mm256_mul_ps(w, _mm256_set1_ps(LN_LG[2])),
        ),
    );
    let r = _mm256_add_ps(t2, t1);
    let hfsq = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), f), f);
    let dk = _mm256_cvtepi32_ps(k);
    // (((s·(h + R) + k·lo) − h) + f) + k·hi
    let mut main = _mm256_mul_ps(s, _mm256_add_ps(hfsq, r));
    main = _mm256_add_ps(main, _mm256_mul_ps(dk, _mm256_set1_ps(LN2_LO)));
    main = _mm256_sub_ps(main, hfsq);
    main = _mm256_add_ps(main, f);
    main = _mm256_add_ps(main, _mm256_mul_ps(dk, _mm256_set1_ps(LN2_HI)));
    // The scalar if-chain, applied from its last arm to its first.
    let mut out = _mm256_set1_ps(f32::NAN);
    out = select(
        _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_setzero_ps()),
        main,
        out,
    );
    out = select(
        _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_setzero_ps()),
        _mm256_set1_ps(f32::NEG_INFINITY),
        out,
    );
    select(
        _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_set1_ps(f32::INFINITY)),
        _mm256_set1_ps(f32::INFINITY),
        out,
    )
}

/// `2ⁿ` per lane for `n ∈ [-126, 127]` (the scalar `pow2i`).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pow2i_v(n: __m256i) -> __m256 {
    _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        n,
        _mm256_set1_epi32(127),
    )))
}

/// `mcl_num::math::exp` on 8 lanes.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn exp_v(x: __m256) -> __m256 {
    let over = _mm256_set1_ps(EXP_OVERFLOW);
    let under = _mm256_set1_ps(EXP_UNDERFLOW);
    let is_over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, over);
    let in_range = _mm256_cmp_ps::<_CMP_GE_OQ>(x, under);
    let xc = select(is_over, over, select(in_range, x, under));
    let magic = _mm256_set1_ps(ROUND_MAGIC);
    let t = _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(LOG2_E)), magic);
    let kf = _mm256_sub_ps(t, magic);
    let k = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(magic));
    let r = _mm256_sub_ps(
        _mm256_sub_ps(xc, _mm256_mul_ps(kf, _mm256_set1_ps(EXP_LN2_HI))),
        _mm256_mul_ps(kf, _mm256_set1_ps(EXP_LN2_LO)),
    );
    let z = _mm256_mul_ps(r, r);
    let mut p = _mm256_set1_ps(EXP_P[0]);
    for &coefficient in &EXP_P[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(coefficient));
    }
    let er = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), _mm256_set1_ps(1.0));
    let k1 = _mm256_srai_epi32::<1>(k);
    let k2 = _mm256_sub_epi32(k, k1);
    let main = _mm256_mul_ps(_mm256_mul_ps(er, pow2i_v(k1)), pow2i_v(k2));
    let mut out = _mm256_set1_ps(f32::NAN);
    out = select(
        _mm256_cmp_ps::<_CMP_LT_OQ>(x, under),
        _mm256_setzero_ps(),
        out,
    );
    out = select(in_range, main, out);
    select(is_over, _mm256_set1_ps(f32::INFINITY), out)
}

/// Lower end of [`exp_f64_v`]'s vector range: from here up, `k ≥ −130816`
/// (so `2^⌊k/128⌋` is a normal `f64`) and the result is normal.
const EXP_F64_V_MIN: f64 = -708.0;
/// Upper end of [`exp_f64_v`]'s vector range (`⌊k/128⌋ ≤ 1022`).
const EXP_F64_V_MAX: f64 = 709.0;

/// `mcl_num::math::exp_f64` on 4 lanes, bit for bit.
///
/// Lanes in `[EXP_F64_V_MIN, EXP_F64_V_MAX]` run [`exp_f64_main_v`]. When
/// every lane is in that range — nearly always on the filter path — that is
/// the result. Otherwise lanes past the overflow or underflow thresholds, and
/// NaN lanes, take the scalar's special values through masks over the main
/// sequence run on the clamped input, so masked lanes never compute a
/// subnormal (which would cost a microcode assist per lane on x86). A quad
/// with a lane in neither set — a subnormal result, or just below the
/// overflow threshold — goes through the scalar function.
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn exp_f64_v(x: __m256d) -> __m256d {
    let lo = _mm256_set1_pd(EXP_F64_V_MIN);
    let hi = _mm256_set1_pd(EXP_F64_V_MAX);
    let vector = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(x, lo),
        _mm256_cmp_pd::<_CMP_LE_OQ>(x, hi),
    );
    if _mm256_movemask_pd(vector) == 0xF {
        return exp_f64_main_v(x);
    }
    let over = _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(EXP_F64_OVERFLOW));
    let under = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(EXP_F64_UNDERFLOW));
    let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
    let covered = _mm256_or_pd(_mm256_or_pd(vector, over), _mm256_or_pd(under, nan));
    if _mm256_movemask_pd(covered) != 0xF {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), x);
        let lanes = lanes.map(mcl_num::math::exp_f64);
        return _mm256_loadu_pd(lanes.as_ptr());
    }
    // `maxpd`/`minpd` return the bound for a NaN lane, which is masked below.
    let main = exp_f64_main_v(_mm256_min_pd(_mm256_max_pd(x, lo), hi));
    _mm256_or_pd(
        _mm256_or_pd(
            _mm256_and_pd(vector, main),
            _mm256_and_pd(over, _mm256_set1_pd(f64::INFINITY)),
        ),
        _mm256_and_pd(nan, _mm256_set1_pd(f64::NAN)),
    )
}

/// The main sequence of `mcl_num::math::exp_f64` on 4 lanes in
/// `[EXP_F64_V_MIN, EXP_F64_V_MAX]`: the scalar reduction, Horner order and
/// table pair (two gathers). There `2^e` is a normal `f64`, so the scalar's
/// split scale `(er · 2^e1) · 2^(e−e1)` and the single product `er · 2^e`
/// both round the same exact value once, and one multiply suffices.
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn exp_f64_main_v(x: __m256d) -> __m256d {
    let magic = _mm256_set1_pd(ROUND_MAGIC_F64);
    let t = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(EXP_F64_INV_LN2_N)), magic);
    let kd = _mm256_sub_pd(t, magic);
    let k = _mm256_sub_epi64(_mm256_castpd_si256(t), _mm256_castpd_si256(magic));
    let r = _mm256_sub_pd(
        _mm256_sub_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(EXP_F64_LN2_N_HI))),
        _mm256_mul_pd(kd, _mm256_set1_pd(EXP_F64_LN2_N_LO)),
    );
    let z = _mm256_mul_pd(r, r);
    let mut q = _mm256_set1_pd(EXP_F64_C[0]);
    for &coefficient in &EXP_F64_C[1..] {
        q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(coefficient));
    }
    let p = _mm256_add_pd(_mm256_mul_pd(q, z), r);
    // The table pair of j = k mod 128 sits at indices 2j and 2j + 1.
    let mask = _mm256_set1_epi64x((1 << EXP_F64_TABLE_BITS) - 1);
    let pair = _mm256_slli_epi64::<1>(_mm256_and_si256(k, mask));
    let table = EXP_F64_TABLE.as_ptr().cast::<f64>();
    let hi = _mm256_i64gather_pd::<8>(table, pair);
    let lo = _mm256_i64gather_pd::<8>(table.add(1), pair);
    let er = _mm256_add_pd(hi, _mm256_add_pd(lo, _mm256_mul_pd(hi, p)));
    // 2^⌊k/128⌋ from its exponent field. AVX2 has no 64-bit arithmetic
    // shift, so the shift runs on k + 2²⁰ (non-negative, and a multiple of
    // 128 so the bias shifts out exactly to 8192).
    let biased = _mm256_srli_epi64::<7>(_mm256_add_epi64(k, _mm256_set1_epi64x(1 << 20)));
    let scale = _mm256_slli_epi64::<52>(_mm256_sub_epi64(biased, _mm256_set1_epi64x(8192 - 1023)));
    _mm256_mul_pd(er, _mm256_castsi256_pd(scale))
}

/// `mcl_num::math::sin_cos` on 8 lanes: returns `(sin, cos)`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sin_cos_v(x: __m256) -> (__m256, __m256) {
    let magic = _mm256_set1_ps(ROUND_MAGIC);
    let t = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(FRAC_2_PI)), magic);
    let j = _mm256_sub_ps(t, magic);
    let quadrant = _mm256_castps_si256(t);
    let mut r = _mm256_sub_ps(x, _mm256_mul_ps(j, _mm256_set1_ps(PIO2[0])));
    r = _mm256_sub_ps(r, _mm256_mul_ps(j, _mm256_set1_ps(PIO2[1])));
    r = _mm256_sub_ps(r, _mm256_mul_ps(j, _mm256_set1_ps(PIO2[2])));
    let z = _mm256_mul_ps(r, r);
    // s = ((S0·z + S1)·z + S2)·z·r + r
    let mut ps = _mm256_set1_ps(SIN_P[0]);
    ps = _mm256_add_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(SIN_P[1]));
    ps = _mm256_add_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(SIN_P[2]));
    let s = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(ps, z), r), r);
    // c = ((C0·z + C1)·z + C2)·z·z − ½·z + 1
    let mut pc = _mm256_set1_ps(COS_P[0]);
    pc = _mm256_add_ps(_mm256_mul_ps(pc, z), _mm256_set1_ps(COS_P[1]));
    pc = _mm256_add_ps(_mm256_mul_ps(pc, z), _mm256_set1_ps(COS_P[2]));
    let c = _mm256_add_ps(
        _mm256_sub_ps(
            _mm256_mul_ps(_mm256_mul_ps(pc, z), z),
            _mm256_mul_ps(_mm256_set1_ps(0.5), z),
        ),
        _mm256_set1_ps(1.0),
    );
    // Odd quadrants swap the pair and negate the cosine; quadrants 2 and 3
    // negate both (sign-bit flips, exactly the scalar `-v`).
    let sign = _mm256_set1_ps(-0.0);
    let odd = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
        _mm256_and_si256(quadrant, _mm256_set1_epi32(1)),
        _mm256_set1_epi32(1),
    ));
    let sin_r = select(odd, c, s);
    let cos_r = select(odd, _mm256_xor_ps(s, sign), c);
    let flip = _mm256_castsi256_ps(_mm256_slli_epi32::<30>(_mm256_and_si256(
        quadrant,
        _mm256_set1_epi32(2),
    )));
    let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(abs_v(x), _mm256_set1_ps(f32::INFINITY));
    let nan = _mm256_set1_ps(f32::NAN);
    (
        select(finite, _mm256_xor_ps(sin_r, flip), nan),
        select(finite, _mm256_xor_ps(cos_r, flip), nan),
    )
}

/// `mcl_num::normalize_angle` on 8 lanes, written to `out`.
///
/// The exact `rem_tau` fast path (`|a| < 3·TAU`) runs as register ops; when
/// any lane falls outside it (NaN, ±∞ or more than three turns), the whole
/// group goes through the scalar function, which takes `%` for that lane.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn normalize_angle_v(a: __m256, out: &mut [f32; LANES]) {
    let tau = _mm256_set1_ps(TAU);
    let m = abs_v(a);
    let mut sub = select(
        _mm256_cmp_ps::<_CMP_GE_OQ>(m, tau),
        tau,
        _mm256_setzero_ps(),
    );
    sub = select(
        _mm256_cmp_ps::<_CMP_GE_OQ>(m, _mm256_set1_ps(2.0 * TAU)),
        _mm256_set1_ps(2.0 * TAU),
        sub,
    );
    let r = _mm256_sub_ps(m, sub);
    let fast = _mm256_cmp_ps::<_CMP_LT_OQ>(r, tau);
    if _mm256_movemask_ps(fast) != 0xFF {
        _mm256_storeu_ps(out.as_mut_ptr(), a);
        for v in out.iter_mut() {
            *v = mcl_num::normalize_angle(*v);
        }
        return;
    }
    // copysign(r, a): r is non-negative, so OR in a's sign bit.
    let rem = _mm256_or_ps(r, _mm256_and_ps(a, _mm256_set1_ps(-0.0)));
    let mut wrapped = select(
        _mm256_cmp_ps::<_CMP_LT_OQ>(rem, _mm256_setzero_ps()),
        _mm256_add_ps(rem, tau),
        rem,
    );
    wrapped = select(
        _mm256_cmp_ps::<_CMP_GE_OQ>(wrapped, tau),
        _mm256_sub_ps(wrapped, tau),
        wrapped,
    );
    _mm256_storeu_ps(out.as_mut_ptr(), wrapped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_num::math;

    /// Runs `f` on the lane group starting at `values[i]` for every full
    /// group, returning the outputs.
    fn lanes_of(values: &[f32], f: impl Fn(&[f32; LANES]) -> [f32; LANES]) -> Vec<f32> {
        values
            .chunks_exact(LANES)
            .flat_map(|group| f(group.try_into().unwrap()))
            .collect()
    }

    /// The sweep inputs: a strided walk over every bit pattern (both signs,
    /// NaNs and infinities included) plus the special values.
    fn sweep() -> Vec<f32> {
        let mut values: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        values.extend([
            0.0,
            -0.0,
            1.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            TAU,
            -TAU,
            3.0 * TAU,
            EXP_OVERFLOW,
            EXP_UNDERFLOW,
            -103.5,
        ]);
        // Dense over the kernels' working ranges.
        let mut x = -4.0 * TAU;
        while x < 4.0 * TAU {
            values.push(x);
            x += 0.001_3;
        }
        values.resize(values.len().next_multiple_of(LANES), 0.5);
        values
    }

    fn assert_same_bits(
        simd: &[f32],
        scalar: impl Iterator<Item = f32>,
        what: &str,
        input: &[f32],
    ) {
        for ((got, want), x) in simd.iter().zip(scalar).zip(input) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}({x:e}): {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn lane_transcendentals_match_the_scalar_bits() {
        if !available() {
            return;
        }
        let values = sweep();
        let ln = lanes_of(&values, |g| {
            let mut out = [0.0; LANES];
            // SAFETY: AVX2 checked above.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), ln_v(_mm256_loadu_ps(g.as_ptr()))) };
            out
        });
        assert_same_bits(&ln, values.iter().map(|&x| math::ln(x)), "ln", &values);
        let exp = lanes_of(&values, |g| {
            let mut out = [0.0; LANES];
            exp_shifted(g, 0.0, &mut out);
            out
        });
        assert_same_bits(&exp, values.iter().map(|&x| math::exp(x)), "exp", &values);
        let sin = lanes_of(&values, |g| sin_cos_lanes(g).0);
        let cos = lanes_of(&values, |g| sin_cos_lanes(g).1);
        assert_same_bits(
            &sin,
            values.iter().map(|&x| math::sin_cos(x).0),
            "sin",
            &values,
        );
        assert_same_bits(
            &cos,
            values.iter().map(|&x| math::sin_cos(x).1),
            "cos",
            &values,
        );
        let wrapped = lanes_of(&values, |g| {
            let mut out = [0.0; LANES];
            // SAFETY: AVX2 checked above.
            unsafe { normalize_angle_v(_mm256_loadu_ps(g.as_ptr()), &mut out) };
            out
        });
        assert_same_bits(
            &wrapped,
            values.iter().map(|&x| mcl_num::normalize_angle(x)),
            "normalize_angle",
            &values,
        );
    }

    #[test]
    fn lane_exp_f64_matches_the_scalar_bits() {
        if !available() {
            return;
        }
        // A strided walk over every f64 bit pattern (both signs, NaNs and
        // infinities included), the specials and edges, and a dense sweep of
        // the tempering range.
        let mut values: Vec<f64> = (0..=u64::MAX)
            .step_by(0x0000_3F1D_5A2B_C001)
            .map(f64::from_bits)
            .collect();
        values.extend([
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0xFFF8_0000_DEAD_0001),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            EXP_F64_OVERFLOW,
            f64::from_bits(EXP_F64_OVERFLOW.to_bits() + 1),
            EXP_F64_UNDERFLOW,
            -745.0,
            -745.2,
            -720.0,
            -708.4,
        ]);
        let mut x = -760.0;
        while x < 720.0 {
            values.push(x);
            x += 0.013_1;
        }
        values.resize(values.len().next_multiple_of(4), 0.5);
        for group in values.chunks_exact(4) {
            let mut out = [0.0f64; 4];
            // SAFETY: AVX2 checked above.
            unsafe {
                _mm256_storeu_pd(out.as_mut_ptr(), exp_f64_v(_mm256_loadu_pd(group.as_ptr())))
            };
            for (got, &x) in out.iter().zip(group) {
                let want = math::exp_f64(x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "exp_f64({x:e}): {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn lane_uniforms_match_the_scalar_streams() {
        if !available() {
            return;
        }
        for (seed, update, first) in [
            (0u64, 0u64, 0u64),
            (42, 7, 1000),
            (u64::MAX, u64::MAX - 2, 12),
            (0x1234_5678_9ABC_DEF0, 3, u64::MAX - 7),
        ] {
            let lanes = counter_uniforms(seed, update, first);
            for l in 0..LANES {
                let mut rng = CounterRng::for_particle(seed, update, first + l as u64);
                for (d, draws) in lanes.iter().enumerate() {
                    assert_eq!(
                        draws[l].to_bits(),
                        rng.uniform().to_bits(),
                        "seed={seed} update={update} particle={} draw={d}",
                        first + l as u64
                    );
                }
            }
        }
    }

    #[test]
    fn lane_box_muller_matches_the_scalar_bits() {
        if !available() {
            return;
        }
        let mut rng = crate::rng::CounterRng::for_update(1, 2);
        for _ in 0..512 {
            let u1: [f32; LANES] = core::array::from_fn(|_| rng.uniform());
            let u2: [f32; LANES] = core::array::from_fn(|_| rng.uniform());
            let (mut a, mut b) = ([0.0f32; LANES], [0.0f32; LANES]);
            // SAFETY: AVX2 checked above.
            unsafe {
                let (va, vb) =
                    box_muller_v(_mm256_loadu_ps(u1.as_ptr()), _mm256_loadu_ps(u2.as_ptr()));
                _mm256_storeu_ps(a.as_mut_ptr(), va);
                _mm256_storeu_ps(b.as_mut_ptr(), vb);
            }
            for l in 0..LANES {
                let (sa, sb) = crate::rng::box_muller(u1[l], u2[l]);
                assert_eq!(
                    (a[l].to_bits(), b[l].to_bits()),
                    (sa.to_bits(), sb.to_bits())
                );
            }
        }
        // The extremes of the uniform lattice.
        let edge = [
            0.0,
            1.0 - f32::EPSILON / 2.0,
            0.5,
            0.25,
            0.75,
            1e-7,
            0.999,
            0.0,
        ];
        let (mut a, mut b) = ([0.0f32; LANES], [0.0f32; LANES]);
        // SAFETY: AVX2 checked above.
        unsafe {
            let v = _mm256_loadu_ps(edge.as_ptr());
            let (va, vb) = box_muller_v(v, v);
            _mm256_storeu_ps(a.as_mut_ptr(), va);
            _mm256_storeu_ps(b.as_mut_ptr(), vb);
        }
        for l in 0..LANES {
            let (sa, sb) = crate::rng::box_muller(edge[l], edge[l]);
            assert_eq!(
                (a[l].to_bits(), b[l].to_bits()),
                (sa.to_bits(), sb.to_bits())
            );
        }
    }
}
