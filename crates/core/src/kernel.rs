//! The four MCL steps as data-parallel kernels over particle index ranges.
//!
//! On GAP9 every filter step is one kernel dispatched to the 8 worker cores:
//! each core receives a contiguous range of the structure-of-arrays particle
//! buffers and runs the same loop body over it. This module is the host-side
//! mirror of that design — four free functions plus a pair of reduction
//! accumulators, all operating on [`ParticleSlice`] / [`ParticleSliceMut`]
//! views so [`crate::parallel::ClusterLayout`] can hand each worker its slice:
//!
//! | kernel | paper step | input | output |
//! |---|---|---|---|
//! | [`motion_predict`] | prediction | particle chunk + odometry | poses in place |
//! | [`observation_log_likelihoods`] | correction (Eq. 1) | particle chunk + partitioned [`BeamBatch`] | per-particle log-likelihoods |
//! | [`anchor_log_likelihoods`] | correction (UWB fusion) | particle chunk + [`ObservationBatch`] anchors | log-likelihoods accumulated in place |
//! | [`reweight`] | correction | weight chunk + log-likelihoods | weights in place |
//! | [`resample_scatter`] | resampling | source set + index chunk | new generation chunk |
//! | [`PosePartials`] / [`SpreadPartials`] | pose computation | particle prefix | weighted sums |
//!
//! Determinism: the motion kernel derives every particle's noise from the
//! counter-based RNG stream `(seed, update, global index)`, so any chunking
//! produces bit-identical particles. The pose reduction runs serially on
//! the calling thread in one **fixed association** — four-lane sums over
//! [`POSE_REDUCTION_BLOCK`]-particle blocks, see
//! [`pose_estimate_prefix_with`] — that does not depend on the worker
//! count, so estimates are bit-identical across worker counts too.
//! Bit-identity, across worker counts and across backends, holds for
//! finite weights. With a non-finite weight (a `+∞` weight makes the pose
//! estimate NaN) it holds up to the NaN's sign and payload: the backends
//! have given `0x7FC00000` and `0xFFC00000` for the same NaN, so the
//! association proptest
//! (`pose_estimates_follow_the_block_lane_association_on_every_backend` in
//! `tests/kernel_backend_equivalence.rs`) compares NaN as NaN.
//!
//! # Kernel backends and the lane-width contract
//!
//! [`KernelBackend`] selects one of three backends:
//!
//! * [`KernelBackend::Scalar`] — the per-particle reference loops above.
//! * [`KernelBackend::Lanes`] — lane-batched (SIMD-shaped) loops: the body
//!   processes the SoA component arrays in fixed [`LANES`]-wide groups of
//!   straight-line array arithmetic the compiler can autovectorize (the shape
//!   of the paper's GAP9 fp16-SIMD inner loops), followed by a
//!   **scalar-reference tail** for the `len % LANES` leftover particles.
//! * [`KernelBackend::Avx2`] — explicit `core::arch::x86_64` intrinsics: the
//!   same [`LANES`]-wide groups issued as 8×f32 register ops, runtime-gated
//!   behind `is_x86_feature_detected!("avx2")`. The observation body is one
//!   `avx2,f16c` loop over the whole chunk with the field's gather lookup
//!   ([`DistanceField::gather_lookup`]) inlined into its beam loop; it runs
//!   when the field returns a lookup, which it does only on a host with AVX2
//!   and F16C. On any host where a probe fails — and on non-x86 builds,
//!   where the intrinsic bodies do not exist — every `Avx2` dispatch falls
//!   back to the body `Lanes` runs, so selecting it is always safe and
//!   always bit-identical.
//!
//! A kernel keeps a separate body for a backend only where measurement shows
//! it is faster than the body it would otherwise fall back to. The body each
//! backend runs:
//!
//! | kernel | `Scalar` | `Lanes` | `Avx2` |
//! |---|---|---|---|
//! | motion | scalar | scalar | avx2 |
//! | observation | scalar | lanes | avx2 (one chunk loop, gather inlined) |
//! | reweight | scalar | lanes | avx2 |
//! | pose ([`PosePartials`]) | lanes | lanes | avx2 |
//! | anchor | scalar | lanes | lanes |
//! | spread ([`SpreadPartials`]) | lanes | lanes | avx2 |
//! | resample | scalar | lanes | lanes |
//! | resample plan ([`PartialSumResampler`](crate::resampling::PartialSumResampler)) boundary pass | portable | portable | avx2 |
//! | mode refinement ([`refine_mode_estimate`]) | scalar | scalar | avx2 |
//! | tempering pass (`adaptive::temper_beta`) | lanes | lanes | avx2 |
//!
//! The lane-width contract: lane grouping is an *execution* detail, never a
//! *numeric* one. Each lane performs exactly the per-particle op sequence of
//! the scalar kernel (same operands, same order, same roundings — SIMD and
//! scalar IEEE 754 ops round identically), so for every storage precision the
//! `Lanes` and `Avx2` kernels are **bit-identical** to `Scalar`, for every
//! chunk length and therefore every tail length `len % LANES` ∈ `0..LANES`.
//! The AVX2 observation body keeps that per-lane sequence although it runs
//! the whole chunk in one loop: each lane group still widens its poses,
//! takes one `sin_cos`, then scores the beams in order (two `vdivps` for the
//! cell, one `vdivps` for `d²/denom`, no FMA), and the leftover
//! `len % LANES` particles take the scalar tail.
//! The reductions fix their association instead: the pose reduction and the
//! tempering pass sum in 256-particle blocks of four `f64` lane
//! accumulators (lane `l` takes the block's whole quads at indices
//! `≡ l (mod 4)`, merged `l0 + l1 + l2 + l3`, then the block's last
//! `len mod 4` terms serially, blocks merged in order), which one portable
//! body and one 4×`f64` intrinsic body both replay.
//!
//! Storage conversion is exact in the widening direction and a single
//! round-to-nearest-even in the narrowing one, so it is part of the per-lane
//! op sequence too. The lane-group bodies widen each group's stored
//! components with [`Scalar::widen`] and store results with
//! [`Scalar::narrow`] — copies at `f32`, eight values per F16C instruction
//! at binary16 where the host has it — while the scalar bodies and the lane
//! tails convert per element with [`Scalar::to_f32`] / [`Scalar::from_f32`].
//! Both return the same bits (`mcl_num` tests every binary16 pattern).
//!
//! For the intrinsic bodies the contract additionally pins the instruction
//! selection: only single-rounding IEEE 754 ops (`vaddps`, `vsubps`,
//! `vmulps`, `vdivps`, `vsqrtps`, `vminps`, compare-and-blend, exact
//! converts/gathers and integer ops on the float bits) are permitted, and
//! **FMA is never used** — a fused multiply-add rounds once where the scalar
//! body rounds twice, which would silently break bit-identity even though the
//! host advertises the `fma` feature. Masked lanes (out-of-bounds lookups,
//! loop tails) replay the scalar select order.
//!
//! The per-particle transcendentals — the motion step's Box–Muller `ln` and
//! `sin_cos`, the yaw `sin_cos` of the motion, observation, pose and
//! mode-refinement kernels, the reweighting `exp` and the tempering solve's
//! `f64` `exp` — are the owned [`mcl_num::math`] functions, not libm: fixed
//! coefficient sets and Horner orders that `crate::simd` replays 8 lanes
//! wide (4 for the `f64` `exp`) with the same bits. The angle wraps use the
//! exact `%`-free fast path of [`normalize_angle`], and the spread pass
//! replays the fast path of [`angular_difference`] the same way. The
//! pose reduction's weight clamp is a select (`w` when `w > 0`, else `+0`),
//! which `vmaxps(w, 0)` computes exactly.
//!
//! All of this is pinned by `tests/kernel_backend_equivalence.rs` across tail
//! lengths, cluster layouts and warm-pool reruns; the `MCL_KERNEL_BACKEND`
//! environment variable (`scalar` / `lanes` / `avx2`, read by
//! [`MclConfig::default`](crate::config::MclConfig)) flips whole test runs
//! between the backends.

use crate::estimate::PoseEstimate;
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::{AnchorRangeModel, BeamEndPointModel};
use crate::parallel::ClusterLayout;
use crate::particle::{for_each_widened_block, ParticleBuffer, ParticleSlice, ParticleSliceMut};
use core::f32::consts::{PI, TAU};
use mcl_gridmap::{DistanceField, Pose2};
use mcl_num::math::{exp, sin_cos};
use mcl_num::{angular_difference, normalize_angle, Scalar};
use mcl_sensor::{BeamBatch, ObservationBatch};

/// Number of `f32` lanes one lane-group body of the [`KernelBackend::Lanes`]
/// kernels processes at a time. Pinned to
/// [`mcl_gridmap::DISTANCE_LANES`] so the correction kernel's lane groups and
/// the lane-batched distance-field lookup agree; 8 lanes fill one 256-bit
/// SIMD register of `f32` on the host and mirror the paper's 8-worker GAP9
/// cluster geometry.
pub const LANES: usize = mcl_gridmap::DISTANCE_LANES;

/// Selects which implementation of the four MCL kernels the filter dispatches.
///
/// All three backends are numerically interchangeable — see the
/// [lane-width contract](self#kernel-backends-and-the-lane-width-contract).
/// The selection is threaded through
/// [`MclConfig::kernel_backend`](crate::config::MclConfig::kernel_backend)
/// into every [`ClusterLayout`] kernel dispatch of
/// [`MonteCarloLocalization`](crate::filter::MonteCarloLocalization), and
/// honoured by `mcl_sim::run_batch` jobs; tests and benches flip it globally
/// with the `MCL_KERNEL_BACKEND` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Per-particle reference loops — the simplest correct implementation,
    /// kept as the equivalence baseline and the tail body of `Lanes`. The
    /// pose reduction and the tempering pass run their portable lane body.
    Scalar,
    /// Lane-batched loops: fixed [`LANES`]-wide, autovectorizer-friendly
    /// chunk bodies plus a scalar-reference tail; prediction runs the
    /// `Scalar` body. Bit-identical to `Scalar`; the portable default.
    #[default]
    Lanes,
    /// Explicit AVX2 intrinsic bodies (x86-64, runtime-detected) for the
    /// motion, observation, reweight and pose kernels — the lane groups
    /// issued as 8×f32 register ops with gather-based EDT lookups — for
    /// the adaptive layer's tempering and mode-refinement passes, and an
    /// AVX2 compilation of the resampling plan's boundary pass. The
    /// anchor and resample kernels run their `Lanes` bodies.
    /// Bit-identical to `Scalar` (single-rounding ops only, no FMA), up to
    /// the sign and payload of a NaN pose estimate when a weight is
    /// non-finite; every dispatch falls back to `Lanes` when the host lacks
    /// AVX2 (the observation kernel also when it lacks F16C), so selecting
    /// it is safe everywhere. [`KernelBackend::detect`] picks it by default
    /// on capable hosts.
    Avx2,
}

impl KernelBackend {
    /// All backends, scalar first (the reference order used by the
    /// equivalence tests and the bench groups).
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Lanes,
        KernelBackend::Avx2,
    ];

    /// The label used in experiment output and bench group names.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Lanes => "lanes",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name as accepted by the `MCL_KERNEL_BACKEND`
    /// environment override (case-insensitive, surrounding whitespace
    /// ignored).
    pub fn parse(value: &str) -> Option<KernelBackend> {
        match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "lanes" => Some(KernelBackend::Lanes),
            "avx2" => Some(KernelBackend::Avx2),
            _ => None,
        }
    }

    /// Whether this backend's dedicated kernel bodies can run on this host.
    /// `Scalar` and `Lanes` are portable; `Avx2` requires a runtime-detected
    /// x86-64 AVX2 CPU. Dispatching an unavailable backend is still valid —
    /// it runs what `Lanes` runs (the lane bodies, and the scalar
    /// [`motion_predict`] for prediction) — so this only reports whether
    /// selecting it changes the instructions executed, and then only for the
    /// kernels and passes with an `avx2` body in the
    /// [backend table](self#kernel-backends-and-the-lane-width-contract):
    /// the anchor, spread and resample kernels run their lane bodies under
    /// `Avx2` on every host.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar | KernelBackend::Lanes => true,
            KernelBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    crate::simd::available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The best backend for the running host: [`KernelBackend::Avx2`] where
    /// the CPU supports it, otherwise the portable default. This is what
    /// [`MclConfig::default`](crate::config::MclConfig) resolves when the
    /// `MCL_KERNEL_BACKEND` override is absent.
    pub fn detect() -> KernelBackend {
        if KernelBackend::Avx2.is_available() {
            KernelBackend::Avx2
        } else {
            KernelBackend::default()
        }
    }

    /// The `MCL_KERNEL_BACKEND` environment override, or `None` when the
    /// variable is unset, empty or unrecognized. This is how the CI backend
    /// matrix and the bench-smoke job flip whole runs between the backends
    /// without touching configuration structs.
    ///
    /// An unrecognized value logs one `eprintln!` warning naming the accepted
    /// values (once per process) and resolves to `None`, so a typo in a CI
    /// matrix is visible in the log instead of silently panicking the whole
    /// suite or masquerading as a real backend choice.
    pub fn from_env() -> Option<KernelBackend> {
        Self::resolve_env(std::env::var("MCL_KERNEL_BACKEND").ok().as_deref())
    }

    /// The pure resolution rule behind [`KernelBackend::from_env`], factored
    /// out so the unrecognized-value warning path is unit-testable without
    /// mutating process-global environment state.
    fn resolve_env(raw: Option<&str>) -> Option<KernelBackend> {
        let raw = raw?;
        if raw.trim().is_empty() {
            return None;
        }
        let parsed = Self::parse(raw);
        if parsed.is_none() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: unrecognized MCL_KERNEL_BACKEND value {raw:?} \
                     (accepted values: \"scalar\", \"lanes\", \"avx2\"); \
                     falling back to the default backend"
                );
            });
        }
        parsed
    }
}

/// Particles per reduction block of the pose-computation kernel (and of the
/// adaptive tempering pass): each block sums four lane accumulators over its
/// whole quads, then its tail, and the block sums merge in block order. The
/// constant is part of the sums' association, so it is fixed rather than
/// derived from the worker count or the host.
pub const POSE_REDUCTION_BLOCK: usize = 256;

/// The stored components `start..start + LANES` widened in bulk
/// ([`Scalar::widen`]) — the gather every lane-group body starts with.
#[inline]
pub(crate) fn widen_group<S: Scalar>(stored: &[S], start: usize) -> [f32; LANES] {
    let mut group = [0.0f32; LANES];
    S::widen(&stored[start..start + LANES], &mut group);
    group
}

/// Prediction kernel: samples every particle of the chunk through the odometry
/// motion model. `first_index` is the chunk's global start index, which anchors
/// the per-particle RNG streams `(seed, update_index, first_index + i)`.
pub fn motion_predict<S: Scalar>(
    mut particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    for i in 0..particles.len() {
        let p = particles.get(i);
        particles.set(
            i,
            model.sample(&p, delta, seed, update_index, first_index + i as u64),
        );
    }
}

/// The [`KernelBackend::Avx2`] prediction kernel. Per [`LANES`]-wide group
/// the eight SplitMix64 streams draw their four uniforms in 4×u64 registers
/// (`crate::simd::counter_uniforms`), the group's stored pose is widened in
/// bulk ([`Scalar::widen`]), then both Box–Muller pairs, the noise, the yaw
/// `sin_cos`, the pose composition and the angle wrap run as 8-wide register
/// ops (`crate::simd::motion_group`, the lane replay of
/// [`MotionModel::sample`]) and the result is narrowed back in bulk
/// ([`Scalar::narrow`]), followed by a scalar-reference tail. Falls back to
/// [`motion_predict`] without AVX2 and on non-x86 builds. Bit-identical to
/// [`motion_predict`] in every case.
pub fn motion_predict_avx2<S: Scalar>(
    mut particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::available() {
        let n = particles.len();
        let mut i = 0usize;
        while i + LANES <= n {
            let uniforms =
                crate::simd::counter_uniforms(seed, update_index, first_index + i as u64);
            let mut x = widen_group(particles.x, i);
            let mut y = widen_group(particles.y, i);
            let mut theta = widen_group(particles.theta, i);
            crate::simd::motion_group(model, delta, &uniforms, &mut x, &mut y, &mut theta);
            S::narrow(&x, &mut particles.x[i..i + LANES]);
            S::narrow(&y, &mut particles.y[i..i + LANES]);
            S::narrow(&theta, &mut particles.theta[i..i + LANES]);
            i += LANES;
        }
        for j in i..n {
            let p = particles.get(j);
            particles.set(
                j,
                model.sample(&p, delta, seed, update_index, first_index + j as u64),
            );
        }
        return;
    }
    motion_predict(particles, model, delta, seed, update_index, first_index)
}

/// Dispatches the prediction kernel of the selected [`KernelBackend`].
pub fn motion_predict_with<S: Scalar>(
    backend: KernelBackend,
    particles: ParticleSliceMut<'_, S>,
    model: &MotionModel,
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
    first_index: u64,
) {
    match backend {
        KernelBackend::Scalar | KernelBackend::Lanes => {
            motion_predict(particles, model, delta, seed, update_index, first_index)
        }
        KernelBackend::Avx2 => {
            motion_predict_avx2(particles, model, delta, seed, update_index, first_index)
        }
    }
}

/// The in-range end-point prefix every observation kernel scores, resolved
/// once per call.
fn in_range_end_points<'a>(
    batch: &'a BeamBatch,
    model: &BeamEndPointModel,
) -> (&'a [f32], &'a [f32]) {
    batch
        .in_range_slices(model.r_max())
        .expect("partition the beam batch for the model's r_max before scoring it")
}

/// The per-particle scalar loop over particles `start..` of the chunk: the
/// whole [`observation_log_likelihoods`] body and the tail of the lane
/// kernels.
fn score_particles_from<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    (end_x, end_y): (&[f32], &[f32]),
    out: &mut [f32],
    start: usize,
) {
    for (i, slot) in out[..particles.len()].iter_mut().enumerate().skip(start) {
        *slot = model.batch_log_likelihood(
            field,
            particles.x[i].to_f32(),
            particles.y[i].to_f32(),
            particles.theta[i].to_f32(),
            end_x,
            end_y,
        );
    }
}

/// Correction kernel, part 1: evaluates the batched beam-end-point model
/// (Eq. 1) for every particle of the chunk, writing one log-likelihood per
/// particle into `out`. Only the beams of the batch's in-range prefix are
/// scored ([`BeamBatch::in_range_slices`]).
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk, or when `batch` was
/// not [partitioned](BeamBatch::partition_in_range) for the model's `r_max`.
pub fn observation_log_likelihoods<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    assert!(out.len() >= particles.len(), "output chunk too short");
    let prefix = in_range_end_points(batch, model);
    score_particles_from(particles, field, model, prefix, out, 0);
}

/// Lane-batched correction kernel, part 1: scores the chunk in [`LANES`]-wide
/// pose groups through
/// [`BeamEndPointModel::batch_log_likelihood_lanes`] (which vectorizes the
/// body→world rotation, the world→cell divisions of the EDT lookup and the
/// log-term accumulation across the lanes), with a scalar-reference tail.
/// Bit-identical to [`observation_log_likelihoods`].
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk, or when `batch` was
/// not [partitioned](BeamBatch::partition_in_range) for the model's `r_max`.
pub fn observation_log_likelihoods_lanes<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    let n = particles.len();
    assert!(out.len() >= n, "output chunk too short");
    let (end_x, end_y) = in_range_end_points(batch, model);
    let mut i = 0usize;
    while i + LANES <= n {
        let xs = widen_group(particles.x, i);
        let ys = widen_group(particles.y, i);
        let thetas = widen_group(particles.theta, i);
        let mut lane_out = [0.0f32; LANES];
        model.batch_log_likelihood_lanes(field, &xs, &ys, &thetas, end_x, end_y, &mut lane_out);
        out[i..i + LANES].copy_from_slice(&lane_out);
        i += LANES;
    }
    score_particles_from(particles, field, model, (end_x, end_y), out, i);
}

/// Explicit-SIMD correction kernel, part 1: the [`KernelBackend::Avx2`] body
/// resolves the field's [`DistanceField::gather_lookup`] once per call and,
/// when the field has one, scores every whole [`LANES`]-wide pose group in
/// one `avx2,f16c` chunk loop (`crate::simd::score_groups`): per group the
/// pose is widened, the yaw `sin_cos` runs 8 wide, and the per-beam
/// rotation, the gathered EDT lookup (inlined
/// [`GatherLookup::lookup`](mcl_gridmap::GatherLookup::lookup)) and the
/// Eq. 1 accumulation stay in registers, with one store per group. The same
/// scalar-reference tail as the lane kernel follows. When the field has no
/// gather lookup (the host lacks AVX2 or F16C, the field is too large for
/// i32 gather lanes, or it is not one of the three storages) and on non-x86
/// builds this runs
/// [`observation_log_likelihoods_lanes`]. Bit-identical to
/// [`observation_log_likelihoods`] in every case: the AVX2 body performs the
/// scalar body's single-rounding IEEE ops in the scalar order and never fuses
/// a multiply-add.
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk, or when `batch` was
/// not [partitioned](BeamBatch::partition_in_range) for the model's `r_max`.
pub fn observation_log_likelihoods_avx2<S: Scalar, D: DistanceField + ?Sized>(
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lookup) = field.gather_lookup() {
        assert!(out.len() >= particles.len(), "output chunk too short");
        let prefix = in_range_end_points(batch, model);
        let scored = crate::simd::score_groups(&lookup, model, particles, prefix, out);
        score_particles_from(particles, field, model, prefix, out, scored);
        return;
    }
    observation_log_likelihoods_lanes(particles, field, model, batch, out)
}

/// Dispatches the first correction kernel of the selected [`KernelBackend`].
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk, or when `batch` was
/// not [partitioned](BeamBatch::partition_in_range) for the model's `r_max`.
pub fn observation_log_likelihoods_with<S: Scalar, D: DistanceField + ?Sized>(
    backend: KernelBackend,
    particles: ParticleSlice<'_, S>,
    field: &D,
    model: &BeamEndPointModel,
    batch: &BeamBatch,
    out: &mut [f32],
) {
    match backend {
        KernelBackend::Scalar => observation_log_likelihoods(particles, field, model, batch, out),
        KernelBackend::Lanes => {
            observation_log_likelihoods_lanes(particles, field, model, batch, out)
        }
        KernelBackend::Avx2 => {
            observation_log_likelihoods_avx2(particles, field, model, batch, out)
        }
    }
}

/// Correction kernel, part 1b (sensor fusion): evaluates the UWB
/// [`AnchorRangeModel`] for every particle of the chunk and **adds** the
/// anchor log-likelihood onto the per-particle slot of `out` — the
/// per-sensor log-likelihoods sum into the particle weights, so the beam
/// kernel writes and the anchor kernel accumulates (one add per particle,
/// identical association on every backend).
///
/// The filter only dispatches this kernel when the observation carries at
/// least one anchor; a beam-only update never touches it, which keeps the
/// beam-only floating-point op sequence byte-for-byte what it was before the
/// fusion pipeline existed.
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn anchor_log_likelihoods<S: Scalar>(
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    assert!(out.len() >= particles.len(), "output chunk too short");
    for (i, slot) in out[..particles.len()].iter_mut().enumerate() {
        *slot +=
            model.batch_log_likelihood(particles.x[i].to_f32(), particles.y[i].to_f32(), batch);
    }
}

/// Lane-batched twin of [`anchor_log_likelihoods`]: scores the chunk in
/// [`LANES`]-wide position groups through
/// [`AnchorRangeModel::batch_log_likelihood_lanes`], with a scalar-reference
/// tail. Bit-identical to [`anchor_log_likelihoods`]. It is also the
/// [`KernelBackend::Avx2`] body: an intrinsic scorer measured no faster.
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn anchor_log_likelihoods_lanes<S: Scalar>(
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    let n = particles.len();
    assert!(out.len() >= n, "output chunk too short");
    let mut i = 0usize;
    while i + LANES <= n {
        let xs = widen_group(particles.x, i);
        let ys = widen_group(particles.y, i);
        let mut lane_out = [0.0f32; LANES];
        model.batch_log_likelihood_lanes(&xs, &ys, batch, &mut lane_out);
        for l in 0..LANES {
            out[i + l] += lane_out[l];
        }
        i += LANES;
    }
    for (j, slot) in out[..n].iter_mut().enumerate().skip(i) {
        *slot +=
            model.batch_log_likelihood(particles.x[j].to_f32(), particles.y[j].to_f32(), batch);
    }
}

/// Dispatches the anchor-range correction kernel of the selected
/// [`KernelBackend`] (`Avx2` runs the lane body).
///
/// # Panics
///
/// Panics when `out` is shorter than the particle chunk.
pub fn anchor_log_likelihoods_with<S: Scalar>(
    backend: KernelBackend,
    particles: ParticleSlice<'_, S>,
    model: &AnchorRangeModel,
    batch: &ObservationBatch,
    out: &mut [f32],
) {
    match backend {
        KernelBackend::Scalar => anchor_log_likelihoods(particles, model, batch, out),
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            anchor_log_likelihoods_lanes(particles, model, batch, out)
        }
    }
}

/// The contract [`reweight`] holds its caller to, checked in debug builds:
/// `max_log` must dominate every log-likelihood of the chunk and must not be
/// NaN or +∞. `−∞` is permitted — together with the domination check it
/// implies *every* entry is `−∞` (the weights-collapsed observation), which
/// the kernel resolves by zeroing the chunk instead of computing the
/// indeterminate `−∞ − −∞`.
fn debug_assert_reweight_contract(log_likelihoods: &[f32], max_log: f32) {
    debug_assert!(!max_log.is_nan(), "max_log must not be NaN");
    debug_assert!(max_log < f32::INFINITY, "max_log must be finite or -inf");
    debug_assert!(
        log_likelihoods.iter().all(|&l| l <= max_log),
        "max_log must be at least the chunk's maximum log-likelihood"
    );
}

/// Correction kernel, part 2: multiplies each weight by its likelihood,
/// rescaled by the set-wide maximum log-likelihood so a sharp observation model
/// cannot underflow `f32`. The exponential is the owned
/// [`mcl_num::math::exp`].
///
/// `max_log` must dominate the chunk (debug-asserted; the filter passes the
/// set-wide maximum, which does by construction) and must not be NaN or +∞.
/// When `max_log` is `−∞` — every particle scored impossible, the collapsed
/// observation — the exponent `log_lik − max_log` would be NaN; the kernel
/// zeroes the weights instead, and the pose kernel's
/// [`PosePartials::weights_collapsed`] fallback plus the resampler's uniform
/// reset recover, exactly as for weights that underflowed to zero.
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight<S: Scalar>(weights: &mut [S], log_likelihoods: &[f32], max_log: f32) {
    assert_eq!(
        weights.len(),
        log_likelihoods.len(),
        "chunk length mismatch"
    );
    debug_assert_reweight_contract(log_likelihoods, max_log);
    if max_log == f32::NEG_INFINITY {
        weights.fill(S::from_f32(0.0));
        return;
    }
    for (w, &log_lik) in weights.iter_mut().zip(log_likelihoods.iter()) {
        let scaled = exp(log_lik - max_log);
        *w = S::from_f32(w.to_f32() * scaled);
    }
}

/// Lane-batched correction kernel, part 2: [`LANES`]-wide groups of the
/// rescale-and-store body (the subtraction, the owned `exp` and the multiply
/// run as straight-line array passes between one bulk widen and one bulk
/// narrow of the group's weights) with a scalar-reference tail. Bit-identical to [`reweight`], including the
/// collapsed-observation zeroing.
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight_lanes<S: Scalar>(weights: &mut [S], log_likelihoods: &[f32], max_log: f32) {
    assert_eq!(
        weights.len(),
        log_likelihoods.len(),
        "chunk length mismatch"
    );
    debug_assert_reweight_contract(log_likelihoods, max_log);
    if max_log == f32::NEG_INFINITY {
        weights.fill(S::from_f32(0.0));
        return;
    }
    let mut weight_groups = weights.chunks_exact_mut(LANES);
    let mut log_groups = log_likelihoods.chunks_exact(LANES);
    for (wg, lg) in (&mut weight_groups).zip(&mut log_groups) {
        let mut scaled = [0.0f32; LANES];
        for l in 0..LANES {
            scaled[l] = exp(lg[l] - max_log);
        }
        let mut w = [0.0f32; LANES];
        S::widen(wg, &mut w);
        for l in 0..LANES {
            w[l] *= scaled[l];
        }
        S::narrow(&w, wg);
    }
    for (w, &log_lik) in weight_groups
        .into_remainder()
        .iter_mut()
        .zip(log_groups.remainder().iter())
    {
        let scaled = exp(log_lik - max_log);
        *w = S::from_f32(w.to_f32() * scaled);
    }
}

/// Explicit-SIMD correction kernel, part 2: the [`KernelBackend::Avx2`] body
/// computes each group's likelihood factors `exp(log_lik − max_log)` as one
/// 8-wide subtraction plus the lane replay of [`mcl_num::math::exp`]; the
/// group's weights are widened in bulk, multiplied and narrowed back in
/// bulk. Falls back to
/// [`reweight_lanes`] without AVX2 and on non-x86 builds. Bit-identical to
/// [`reweight`], including the collapsed-observation zeroing.
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight_avx2<S: Scalar>(weights: &mut [S], log_likelihoods: &[f32], max_log: f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::available() {
        assert_eq!(
            weights.len(),
            log_likelihoods.len(),
            "chunk length mismatch"
        );
        debug_assert_reweight_contract(log_likelihoods, max_log);
        if max_log == f32::NEG_INFINITY {
            weights.fill(S::from_f32(0.0));
            return;
        }
        let mut weight_groups = weights.chunks_exact_mut(LANES);
        let mut log_groups = log_likelihoods.chunks_exact(LANES);
        for (wg, lg) in (&mut weight_groups).zip(&mut log_groups) {
            let lg: &[f32; LANES] = lg.try_into().expect("group is exactly LANES entries");
            let mut scaled = [0.0f32; LANES];
            crate::simd::exp_shifted(lg, max_log, &mut scaled);
            let mut w = [0.0f32; LANES];
            S::widen(wg, &mut w);
            for l in 0..LANES {
                w[l] *= scaled[l];
            }
            S::narrow(&w, wg);
        }
        for (w, &log_lik) in weight_groups
            .into_remainder()
            .iter_mut()
            .zip(log_groups.remainder().iter())
        {
            let scaled = exp(log_lik - max_log);
            *w = S::from_f32(w.to_f32() * scaled);
        }
        return;
    }
    reweight_lanes(weights, log_likelihoods, max_log)
}

/// Dispatches the second correction kernel of the selected [`KernelBackend`].
///
/// # Panics
///
/// Panics when the chunks differ in length.
pub fn reweight_with<S: Scalar>(
    backend: KernelBackend,
    weights: &mut [S],
    log_likelihoods: &[f32],
    max_log: f32,
) {
    match backend {
        KernelBackend::Scalar => reweight(weights, log_likelihoods, max_log),
        KernelBackend::Lanes => reweight_lanes(weights, log_likelihoods, max_log),
        KernelBackend::Avx2 => reweight_avx2(weights, log_likelihoods, max_log),
    }
}

/// Resampling kernel: gathers `source[indices[i]]` into slot `i` of the target
/// chunk and stamps the post-resampling uniform weight — the per-worker half of
/// the paper's Fig. 4 decomposition (the plan itself comes from
/// [`crate::resampling::PartialSumResampler`]).
///
/// # Panics
///
/// Panics when `indices` and the target chunk differ in length.
pub fn resample_scatter<S: Scalar>(
    source: ParticleSlice<'_, S>,
    target: ParticleSliceMut<'_, S>,
    indices: &[usize],
    uniform_weight: S,
) {
    assert_eq!(target.len(), indices.len(), "chunk length mismatch");
    // One tight pass per component: each loop streams exactly one source and
    // one target array (systematic-resampling indices are non-decreasing, so
    // the gather side is near-sequential too), and the weight reset is a fill
    // instead of a strided store — the layout win SoA buys the scatter.
    for (dst, &src) in target.x.iter_mut().zip(indices) {
        *dst = source.x[src];
    }
    for (dst, &src) in target.y.iter_mut().zip(indices) {
        *dst = source.y[src];
    }
    for (dst, &src) in target.theta.iter_mut().zip(indices) {
        *dst = source.theta[src];
    }
    target.weight.fill(uniform_weight);
}

/// Lane-batched resampling kernel: gathers the three pose components in
/// [`LANES`]-wide index groups — each group loads its indices once and feeds
/// all three component copies, instead of three full passes over the index
/// array — with a scalar tail, then fills the uniform weights. Pure copies,
/// so trivially bit-identical to [`resample_scatter`]. It is also the
/// [`KernelBackend::Avx2`] body: the scatter is memory-bound copies of a
/// generic scalar type, so an intrinsic gather buys nothing.
///
/// # Panics
///
/// Panics when `indices` and the target chunk differ in length.
pub fn resample_scatter_lanes<S: Scalar>(
    source: ParticleSlice<'_, S>,
    target: ParticleSliceMut<'_, S>,
    indices: &[usize],
    uniform_weight: S,
) {
    assert_eq!(target.len(), indices.len(), "chunk length mismatch");
    let n = indices.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let idx: &[usize; LANES] = indices[i..i + LANES]
            .try_into()
            .expect("group is exactly LANES indices");
        for (dst, &src) in target.x[i..i + LANES].iter_mut().zip(idx) {
            *dst = source.x[src];
        }
        for (dst, &src) in target.y[i..i + LANES].iter_mut().zip(idx) {
            *dst = source.y[src];
        }
        for (dst, &src) in target.theta[i..i + LANES].iter_mut().zip(idx) {
            *dst = source.theta[src];
        }
        i += LANES;
    }
    for (j, &src) in indices.iter().enumerate().skip(i) {
        target.x[j] = source.x[src];
        target.y[j] = source.y[src];
        target.theta[j] = source.theta[src];
    }
    target.weight.fill(uniform_weight);
}

/// Dispatches the resampling kernel of the selected [`KernelBackend`]
/// (`Avx2` runs the lane body).
///
/// # Panics
///
/// Panics when `indices` and the target chunk differ in length.
pub fn resample_scatter_with<S: Scalar>(
    backend: KernelBackend,
    source: ParticleSlice<'_, S>,
    target: ParticleSliceMut<'_, S>,
    indices: &[usize],
    uniform_weight: S,
) {
    match backend {
        KernelBackend::Scalar => resample_scatter(source, target, indices, uniform_weight),
        KernelBackend::Lanes | KernelBackend::Avx2 => {
            resample_scatter_lanes(source, target, indices, uniform_weight)
        }
    }
}

/// Accumulator lanes per pose-reduction block: lane `l` sums the block's
/// whole quads at block indices `≡ l (mod 4)` — one 4×`f64` register in the
/// AVX2 bodies.
pub(crate) const REDUCTION_LANES: usize = 4;

/// Sums of the pose reduction's first pass, in slot order: `Σw`, `Σw²`,
/// `Σw·x`, `Σw·y`, `Σw·sin θ`, `Σw·cos θ`.
pub(crate) const POSE_SLOTS: usize = 6;

/// Sums of the pose reduction's spread pass, in slot order:
/// `Σw·(dx² + dy²)` and `Σw·dθ²` about the mean pose.
pub(crate) const SPREAD_SLOTS: usize = 2;

/// One quad of stored weights, x, y and yaw, widened to `f32`.
type Quad = [[f32; REDUCTION_LANES]; 4];

/// The lane accumulators of one block's whole quads, per slot.
type BlockLanes<const K: usize> = [[f64; REDUCTION_LANES]; K];

/// The weight a reduction pass accumulates: `1` for the unit-weight rerun,
/// otherwise the stored weight clamped in select form (`w` when `w > 0`,
/// else `+0`, so NaN and negative weights count as `+0`) — exactly what
/// `vmaxps(w, 0)` computes.
#[inline]
fn pass_weights(w: [f32; REDUCTION_LANES], unweighted: bool) -> [f64; REDUCTION_LANES] {
    w.map(|w| {
        if unweighted {
            1.0
        } else if w > 0.0 {
            f64::from(w)
        } else {
            0.0
        }
    })
}

/// The first-pass terms of one quad, per slot ([`POSE_SLOTS`] order) and
/// lane; the heading vector comes from the owned [`mcl_num::math::sin_cos`].
#[inline]
fn pose_quad([w, x, y, theta]: Quad, unweighted: bool) -> BlockLanes<POSE_SLOTS> {
    let w = pass_weights(w, unweighted);
    let mut terms = [[0.0; REDUCTION_LANES]; POSE_SLOTS];
    for l in 0..REDUCTION_LANES {
        let (sin_t, cos_t) = sin_cos(theta[l]);
        let (x, y) = (f64::from(x[l]), f64::from(y[l]));
        let (sin_t, cos_t) = (f64::from(sin_t), f64::from(cos_t));
        let w = w[l];
        for (slot, term) in terms
            .iter_mut()
            .zip([w, w * w, w * x, w * y, w * sin_t, w * cos_t])
        {
            slot[l] = term;
        }
    }
    terms
}

/// The spread-pass terms of one quad against the mean pose, per slot
/// ([`SPREAD_SLOTS`] order) and lane: `w·(dx·dx + dy·dy)` and `(w·dθ)·dθ`,
/// with `dx = f64(x − x̄)` (an `f32` subtraction) and `dθ` the
/// [`angular_difference`] to the mean yaw.
#[inline]
fn spread_quad([w, x, y, theta]: Quad, mean: &Pose2, unweighted: bool) -> BlockLanes<SPREAD_SLOTS> {
    let w = pass_weights(w, unweighted);
    let dt = angular_difference_group(&theta, mean.theta);
    let mut terms = [[0.0; REDUCTION_LANES]; SPREAD_SLOTS];
    for l in 0..REDUCTION_LANES {
        let dx = f64::from(x[l] - mean.x);
        let dy = f64::from(y[l] - mean.y);
        let dt = f64::from(dt[l]);
        terms[0][l] = w[l] * (dx * dx + dy * dy);
        terms[1][l] = w[l] * dt * dt;
    }
    terms
}

/// The portable lane accumulators of one block's whole quads: lane `l` of
/// each slot sums `quad_terms` over the quads' members `l`, in quad order.
/// `Scalar` and `Lanes` run it; the AVX2 bodies (`simd::pose_lanes`,
/// `simd::spread_lanes`) replay it bit for bit.
fn portable_lanes<const K: usize>(
    block: [&[f32]; 4],
    quad_terms: impl Fn(Quad) -> BlockLanes<K>,
) -> BlockLanes<K> {
    let mut lanes = [[0.0; REDUCTION_LANES]; K];
    for q in (0..block[0].len()).step_by(REDUCTION_LANES) {
        let terms = quad_terms(block.map(|c| {
            c[q..q + REDUCTION_LANES]
                .try_into()
                .expect("whole quads only")
        }));
        for (lane, term) in lanes.iter_mut().zip(terms) {
            for l in 0..REDUCTION_LANES {
                lane[l] += term[l];
            }
        }
    }
    lanes
}

/// One pass of the pose reduction: `K` sums over `particles` in the fixed
/// association of the tempering pass. The population is cut into
/// [`POSE_REDUCTION_BLOCK`]-particle blocks. In each, `quad_lanes` returns
/// the [`REDUCTION_LANES`] lane accumulators over the block's whole quads;
/// they merge as `l0 + l1 + l2 + l3`, then the block's last `len mod 4`
/// particles add serially (each through `quad_terms`, lane 0 of a quad
/// padded with zeros). The block sums merge in block order. The pass is
/// serial and allocation-free: stored components are read through
/// [`for_each_widened_block`], whose stack blocks are reduction blocks.
fn reduction_pass<S: Scalar, const K: usize>(
    particles: ParticleSlice<'_, S>,
    quad_lanes: impl Fn([&[f32]; 4]) -> BlockLanes<K>,
    quad_terms: impl Fn(Quad) -> BlockLanes<K>,
) -> [f64; K] {
    let mut total = [0.0; K];
    let components = [particles.weight, particles.x, particles.y, particles.theta];
    for_each_widened_block(components, |components| {
        let len = components[0].len();
        for start in (0..len).step_by(POSE_REDUCTION_BLOCK) {
            let end = (start + POSE_REDUCTION_BLOCK).min(len);
            let quads = end - (end - start) % REDUCTION_LANES;
            let lanes = quad_lanes(components.map(|c| &c[start..quads]));
            let mut block = lanes.map(|lane| lane[0] + lane[1] + lane[2] + lane[3]);
            for i in quads..end {
                let terms = quad_terms(components.map(|c| [c[i], 0.0, 0.0, 0.0]));
                for (sum, term) in block.iter_mut().zip(terms) {
                    *sum += term[0];
                }
            }
            for (sum, partial) in total.iter_mut().zip(block) {
                *sum += partial;
            }
        }
    });
    total
}

/// Whether `backend` runs the intrinsic bodies of the reduction passes on
/// this host.
fn runs_avx2(backend: KernelBackend) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        backend == KernelBackend::Avx2 && crate::simd::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        false
    }
}

/// First-pass sums of the pose-computation kernel: the weight sums and the
/// weighted position and heading-vector sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PosePartials {
    sum_w: f64,
    sum_w_sq: f64,
    sum_wx: f64,
    sum_wy: f64,
    sum_w_sin: f64,
    sum_w_cos: f64,
}

impl PosePartials {
    /// The first pass over `particles`, in the reduction's fixed block and
    /// lane association, with the body of the selected [`KernelBackend`]:
    /// `Scalar` and `Lanes` run the portable lane body, `Avx2` its
    /// intrinsic replay (`crate::simd::pose_lanes`: 8-wide `sin_cos`,
    /// `vcvtps2pd` halves, 4×`f64` accumulators, no FMA). All three return
    /// the same bits. `unweighted` accumulates every weight as `1`, which
    /// gives exactly the unweighted sums (`1·x = x`): the fallback when the
    /// weights have collapsed.
    pub fn accumulate_with<S: Scalar>(
        backend: KernelBackend,
        particles: ParticleSlice<'_, S>,
        unweighted: bool,
    ) -> Self {
        let avx2 = runs_avx2(backend);
        let quad_terms = |quad: Quad| pose_quad(quad, unweighted);
        let [sum_w, sum_w_sq, sum_wx, sum_wy, sum_w_sin, sum_w_cos] = reduction_pass(
            particles,
            |block| {
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    return crate::simd::pose_lanes(block, unweighted);
                }
                let _ = avx2;
                portable_lanes(block, quad_terms)
            },
            quad_terms,
        );
        PosePartials {
            sum_w,
            sum_w_sq,
            sum_wx,
            sum_wy,
            sum_w_sin,
            sum_w_cos,
        }
    }

    /// Whether the weights have collapsed (the estimate falls back to the
    /// unweighted mean, as the filter recovers by resetting to uniform).
    pub fn weights_collapsed(&self) -> bool {
        self.sum_w <= f64::from(f32::MIN_POSITIVE)
    }

    /// The mean pose implied by the sums; `fallback_theta` is used when the
    /// heading vectors cancel (no meaningful circular mean).
    pub fn mean(&self, fallback_theta: f32) -> Pose2 {
        let sum_w = self.sum_w;
        let mean_x = (self.sum_wx / sum_w) as f32;
        let mean_y = (self.sum_wy / sum_w) as f32;
        // Same resultant-length cutoff as mcl_num::weighted_circular_mean.
        let (sum_sin, sum_cos) = (self.sum_w_sin, self.sum_w_cos);
        let norm = (sum_sin * sum_sin + sum_cos * sum_cos).sqrt();
        let mean_theta = if sum_w <= 0.0 || norm < 1e-6 * sum_w {
            fallback_theta
        } else {
            normalize_angle(sum_sin.atan2(sum_cos) as f32)
        };
        Pose2 {
            x: mean_x,
            y: mean_y,
            theta: normalize_angle(mean_theta),
        }
    }

    /// Effective sample size `(Σw)² / Σw²` of the accumulated weights.
    pub fn effective_sample_size(&self) -> f32 {
        if self.sum_w_sq <= 0.0 {
            0.0
        } else {
            (self.sum_w * self.sum_w / self.sum_w_sq) as f32
        }
    }
}

/// Second-pass sums of the pose-computation kernel: weighted squared
/// deviations from the mean pose.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpreadPartials {
    var_pos: f64,
    var_yaw: f64,
}

impl SpreadPartials {
    /// The spread pass over `particles` against the set-wide mean pose, in
    /// the association and with the backend bodies of
    /// [`PosePartials::accumulate_with`] (`crate::simd::spread_lanes` under
    /// `Avx2`). `unweighted` selects the collapsed-weights fallback.
    pub fn accumulate_with<S: Scalar>(
        backend: KernelBackend,
        particles: ParticleSlice<'_, S>,
        mean: &Pose2,
        unweighted: bool,
    ) -> Self {
        let avx2 = runs_avx2(backend);
        let quad_terms = |quad: Quad| spread_quad(quad, mean, unweighted);
        let [var_pos, var_yaw] = reduction_pass(
            particles,
            |block| {
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    return crate::simd::spread_lanes(block, mean, unweighted);
                }
                let _ = avx2;
                portable_lanes(block, quad_terms)
            },
            quad_terms,
        );
        SpreadPartials { var_pos, var_yaw }
    }

    /// Position / yaw standard deviations given the weight normalizer.
    pub fn finish(&self, norm: f64) -> (f32, f32) {
        if norm <= 0.0 {
            return (0.0, 0.0);
        }
        (
            (self.var_pos / norm).sqrt() as f32,
            (self.var_yaw / norm).sqrt() as f32,
        )
    }
}

/// [`angular_difference`]`(θ, mean)` on one group of lanes, in select form.
///
/// When every lane's raw difference `d = θ − mean` is below `TAU` in
/// magnitude, `angular_difference`'s remainder is `d` itself (its exact
/// fast path), and the wrap into `(−π, π]` is two selects. Otherwise (NaN,
/// ±∞ or a lane more than a turn away) the whole group goes through the
/// scalar function, as [`normalize_angle`]'s lane replay does. Either way
/// every lane carries the scalar function's bits; the select form only
/// drops the per-lane branch, which mispredicts on spread-out (globally
/// initialized) clouds.
fn angular_difference_group<const N: usize>(theta: &[f32; N], mean: f32) -> [f32; N] {
    let d = theta.map(|t| t - mean);
    if d.iter().fold(true, |fast, d| fast & (d.abs() < TAU)) {
        d.map(|d| {
            let wrapped = if d > PI { d - TAU } else { d };
            if d <= -PI {
                d + TAU
            } else {
                wrapped
            }
        })
    } else {
        theta.map(|t| angular_difference(t, mean))
    }
}

/// Pose-computation kernel: the weighted-average pose plus dispersion
/// figures, with the scalar-backend bodies. See [`pose_estimate_prefix_with`].
///
/// # Panics
///
/// Panics when `particles` is empty.
pub fn pose_estimate<S: Scalar>(
    particles: &ParticleBuffer<S>,
    layout: &ClusterLayout,
) -> PoseEstimate {
    pose_estimate_with(particles, layout, KernelBackend::Scalar)
}

/// [`pose_estimate`] with the bodies of the selected [`KernelBackend`]. See
/// [`pose_estimate_prefix_with`].
///
/// # Panics
///
/// Panics when `particles` is empty.
pub fn pose_estimate_with<S: Scalar>(
    particles: &ParticleBuffer<S>,
    layout: &ClusterLayout,
    backend: KernelBackend,
) -> PoseEstimate {
    pose_estimate_prefix_with(particles, particles.len(), layout, backend)
}

/// The weighted-average pose and dispersion figures of the first `n`
/// particles. The filter uses the prefix to publish a pose that excludes
/// freshly injected recovery particles (the buffer suffix): they are drawn
/// uniformly over free space and carry no posterior support until the next
/// observation weighs them, so including them would bias the estimate toward
/// the map centroid for the whole injection episode.
///
/// Two passes run serially on the calling thread without allocating: the
/// [`PosePartials`] sums give the mean, then the [`SpreadPartials`] sums the
/// spread about it. When the weights have collapsed, the first pass re-runs
/// with unit weights and the spread pass follows with them. Both passes fold
/// in one fixed association ([`POSE_REDUCTION_BLOCK`]-particle blocks, four
/// lane accumulators each), which every backend replays, so the estimate is
/// bit-identical across backends. `layout` no longer schedules the
/// reduction (splitting a pass of this size over the pool measured slower
/// for the tempering pass, which shares the association), so the estimate
/// is the same for every worker count too.
///
/// # Panics
///
/// Panics when `n` is zero or exceeds the buffer length.
pub fn pose_estimate_prefix_with<S: Scalar>(
    particles: &ParticleBuffer<S>,
    n: usize,
    _layout: &ClusterLayout,
    backend: KernelBackend,
) -> PoseEstimate {
    assert!(
        n > 0 && n <= particles.len(),
        "estimate prefix must be non-empty and within the particle set"
    );
    let (view, _) = particles.as_slice().split_at(n);
    let mut first_pass = PosePartials::accumulate_with(backend, view, false);
    let unweighted = first_pass.weights_collapsed();
    if unweighted {
        first_pass = PosePartials::accumulate_with(backend, view, true);
    }
    let mean = first_pass.mean(particles.theta()[0].to_f32());
    let second_pass = SpreadPartials::accumulate_with(backend, view, &mean, unweighted);
    let (position_std_m, yaw_std_rad) = second_pass.finish(first_pass.sum_w);

    PoseEstimate {
        pose: mean,
        position_std_m,
        yaw_std_rad,
        neff: first_pass.effective_sample_size(),
    }
}

/// Reusable scratch of [`refine_mode_estimate`]: each particle's position,
/// yaw sine and cosine and weight, widened to `f64` once per call. Empty
/// until the first call; the buffers only grow.
#[derive(Debug, Clone, Default)]
pub struct ModeRefineScratch {
    /// `[x, y, sin θ, cos θ]` per particle, the trig from the owned `f32`
    /// [`sin_cos`] — one 4×`f64` register in the AVX2 window body.
    poses: Vec<[f64; 4]>,
    /// The weight per particle.
    weights: Vec<f64>,
}

impl ModeRefineScratch {
    /// Particles per trig batch of [`ModeRefineScratch::fill`].
    const BATCH: usize = 256;

    /// Widens the first `n` particles of `view` into the scratch, with each
    /// yaw's [`sin_cos`] eight lanes at a time under
    /// [`KernelBackend::Avx2`] (bit-identical per lane), per element
    /// otherwise.
    fn fill<S: Scalar>(&mut self, view: ParticleSlice<'_, S>, n: usize, backend: KernelBackend) {
        self.poses.clear();
        self.weights.clear();
        let (poses, weights) = (&mut self.poses, &mut self.weights);
        for_each_widened_block(
            [
                &view.x[..n],
                &view.y[..n],
                &view.theta[..n],
                &view.weight[..n],
            ],
            |[xs, ys, thetas, ws]| {
                for (start, thetas) in (0..).step_by(Self::BATCH).zip(thetas.chunks(Self::BATCH)) {
                    let mut sin = [0.0f32; Self::BATCH];
                    let mut cos = [0.0f32; Self::BATCH];
                    sin_cos_into(backend, thetas, &mut sin, &mut cos);
                    poses
                        .extend((0..thetas.len()).map(|i| {
                            [xs[start + i], ys[start + i], sin[i], cos[i]].map(f64::from)
                        }));
                }
                weights.extend(ws.iter().map(|&w| f64::from(w)));
            },
        );
    }
}

/// The owned [`sin_cos`] of every yaw in `thetas`, into the leading entries
/// of `sin` and `cos`: eight lanes at a time through the AVX2 body under
/// [`KernelBackend::Avx2`] (bit-identical per lane), per element otherwise.
fn sin_cos_into(backend: KernelBackend, thetas: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2 && crate::simd::available() {
        for group in thetas.chunks_exact(LANES) {
            let group: &[f32; LANES] = group.try_into().expect("group is exactly LANES entries");
            let (s, c) = crate::simd::sin_cos_lanes(group);
            sin[done..done + LANES].copy_from_slice(&s);
            cos[done..done + LANES].copy_from_slice(&c);
            done += LANES;
        }
    }
    let _ = backend;
    for (i, &theta) in thetas.iter().enumerate().skip(done) {
        (sin[i], cos[i]) = sin_cos(theta);
    }
}

/// `[Σw, Σw·x, Σw·y, Σw·sin θ, Σw·cos θ]` over the particles within `√r2`
/// of `(cx, cy)`, each sum serial in index order. An out-of-window particle
/// adds `+0` to every sum — the sums start at `+0`, so that equals skipping
/// it — which keeps the loop free of a data-dependent branch. The AVX2 body
/// (`simd::window_sums`) replays it bit for bit.
fn window_sums(
    backend: KernelBackend,
    poses: &[[f64; 4]],
    weights: &[f64],
    cx: f64,
    cy: f64,
    r2: f64,
) -> [f64; 5] {
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2 && crate::simd::available() {
        return crate::simd::window_sums(poses, weights, cx, cy, r2);
    }
    let _ = backend;
    let mut sums = [0.0f64; 5];
    for (&[x, y, sin, cos], &w) in poses.iter().zip(weights) {
        let (dx, dy) = (x - cx, y - cy);
        let inside = dx * dx + dy * dy <= r2;
        let terms = [w, w * x, w * y, w * sin, w * cos];
        for (sum, term) in sums.iter_mut().zip(terms) {
            *sum += if inside { term } else { 0.0 };
        }
    }
    sums
}

/// Weighted mean-shift refinement of a pose estimate onto the dominant mode
/// of the cloud, considering only the first `n` particles.
///
/// The plain weighted average is the wrong statistic for a multi-modal
/// belief: with the cloud split across two aisles of a symmetric world it
/// lands *between* the modes, and the filter looks unconverged even while
/// two thirds of the mass sits on the true pose. Each iteration recenters on
/// the weighted mean of the particles within `radius_m` (xy) of the current
/// center — the window walks toward the heavier mode and sheds the lighter
/// one, exactly the "report the dominant cluster" convention of deployed MCL
/// stacks. Yaw is the circular mean of the in-window particles, from each
/// yaw's owned `f32` [`sin_cos`] widened to `f64`.
///
/// Serial `f64` accumulation in index order, so the result is bit-identical
/// for every backend and worker count; `backend` only picks the bodies of
/// the per-particle `sin_cos` (eight lanes wide under
/// [`KernelBackend::Avx2`]) and of the window sums (one 4×`f64` register per
/// particle), which return the same bits. Each particle is widened and its
/// trig evaluated once per call (into `scratch`), whatever the number of
/// iterations. Returns the refined pose together with the
/// fraction of the total prefix weight the final window holds — the caller
/// should only *publish* the refined pose when that fraction is a majority,
/// otherwise the refinement confidently reports one of several live
/// hypotheses and the estimate jumps between modes. Returns `start` with
/// fraction `0.0` when no particle falls inside the window.
pub fn refine_mode_estimate<S: Scalar>(
    particles: &ParticleBuffer<S>,
    n: usize,
    start: Pose2,
    radius_m: f32,
    iterations: usize,
    backend: KernelBackend,
    scratch: &mut ModeRefineScratch,
) -> (Pose2, f64) {
    let r2 = f64::from(radius_m) * f64::from(radius_m);
    scratch.fill(particles.as_slice(), n, backend);
    let total: f64 = scratch.weights.iter().sum();
    if total <= 0.0 {
        return (start, 0.0);
    }
    let mut center = start;
    let mut window_mass = 0.0f64;
    for _ in 0..iterations {
        let [sw, sx, sy, ssin, scos] = window_sums(
            backend,
            &scratch.poses,
            &scratch.weights,
            f64::from(center.x),
            f64::from(center.y),
            r2,
        );
        if sw <= 0.0 {
            break;
        }
        window_mass = sw;
        let next = Pose2::new((sx / sw) as f32, (sy / sw) as f32, ssin.atan2(scos) as f32);
        if next.x == center.x && next.y == center.y && next.theta == center.theta {
            break;
        }
        center = next;
    }
    (center, window_mass / total)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::particle::Particle;
    use mcl_gridmap::{EuclideanDistanceField, MapBuilder};
    use mcl_sensor::{Beam, SensorConfig, SensorRig};
    use rand::{Rng, SeedableRng};

    fn buffer(n: usize) -> ParticleBuffer<f32> {
        (0..n)
            .map(|i| {
                Particle::from_pose(
                    &Pose2::new(
                        1.0 + (i % 13) as f32 * 0.05,
                        1.0 + (i % 7) as f32 * 0.04,
                        (i % 17) as f32 * 0.3,
                    ),
                    (1 + i % 5) as f32 / n as f32,
                )
            })
            .collect()
    }

    /// `Σ f(i)` over `0..n` in the documented reduction association,
    /// written out independently of the kernels: 256-index blocks; in each,
    /// four lane accumulators over the whole quads (lane `l` takes the block
    /// indices `≡ l (mod 4)`) merged in order 0..3, then the block tail
    /// added serially; the block partials merged in block order.
    pub(crate) fn block_lane_sum(n: usize, f: impl Fn(usize) -> f64) -> f64 {
        let mut total = 0.0;
        for start in (0..n).step_by(256) {
            let end = (start + 256).min(n);
            let quads = start + (end - start) / 4 * 4;
            let mut lanes = [0.0f64; 4];
            for i in start..quads {
                lanes[(i - start) % 4] += f(i);
            }
            let mut block = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for i in quads..end {
                block += f(i);
            }
            total += block;
        }
        total
    }

    #[test]
    fn pose_and_spread_sums_follow_the_block_lane_association_on_every_backend() {
        // The f64 sums themselves, which the f32 estimate rounds away:
        // lengths around the quad and block boundaries, weights with
        // negative and NaN entries, yaws that wrap about the mean.
        fn check<S: Scalar>() {
            let mean = Pose2::new(1.2, 1.1, 0.7);
            for n in [1usize, 3, 4, 7, 8, 12, 255, 256, 257, 262, 515, 1027] {
                let particles: ParticleBuffer<S> = buffer(n)
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let w = match i % 13 {
                            4 => -0.5,
                            9 => f32::NAN,
                            _ => p.weight,
                        };
                        Particle::from_pose(&p.pose(), w)
                    })
                    .collect();
                let view = particles.as_slice();
                let x = |i: usize| view.x[i].to_f32();
                let y = |i: usize| view.y[i].to_f32();
                let theta = |i: usize| view.theta[i].to_f32();
                for unweighted in [false, true] {
                    let w = |i: usize| {
                        let w = view.weight[i].to_f32();
                        if unweighted {
                            1.0
                        } else if w > 0.0 {
                            f64::from(w)
                        } else {
                            0.0
                        }
                    };
                    let pose = [
                        block_lane_sum(n, w),
                        block_lane_sum(n, |i| w(i) * w(i)),
                        block_lane_sum(n, |i| w(i) * f64::from(x(i))),
                        block_lane_sum(n, |i| w(i) * f64::from(y(i))),
                        block_lane_sum(n, |i| w(i) * f64::from(sin_cos(theta(i)).0)),
                        block_lane_sum(n, |i| w(i) * f64::from(sin_cos(theta(i)).1)),
                    ];
                    let spread = [
                        block_lane_sum(n, |i| {
                            let dx = f64::from(x(i) - mean.x);
                            let dy = f64::from(y(i) - mean.y);
                            w(i) * (dx * dx + dy * dy)
                        }),
                        block_lane_sum(n, |i| {
                            let dt = f64::from(angular_difference(theta(i), mean.theta));
                            w(i) * dt * dt
                        }),
                    ];
                    for backend in KernelBackend::ALL {
                        let p = PosePartials::accumulate_with(backend, view, unweighted);
                        let got = [
                            p.sum_w,
                            p.sum_w_sq,
                            p.sum_wx,
                            p.sum_wy,
                            p.sum_w_sin,
                            p.sum_w_cos,
                        ];
                        let label = format!("{backend:?}, n {n}, unweighted {unweighted}");
                        assert_eq!(got.map(f64::to_bits), pose.map(f64::to_bits), "{label}");
                        let s = SpreadPartials::accumulate_with(backend, view, &mean, unweighted);
                        assert_eq!(
                            [s.var_pos, s.var_yaw].map(f64::to_bits),
                            spread.map(f64::to_bits),
                            "{label}"
                        );
                    }
                }
            }
        }
        check::<f32>();
        check::<mcl_num::F16>();
    }

    #[test]
    fn pose_estimate_prefix_matches_a_truncated_buffer() {
        let full = buffer(513);
        let prefix: ParticleBuffer<f32> = full.iter().take(300).collect();
        let truncated = pose_estimate_with(&prefix, &ClusterLayout::GAP9, KernelBackend::Scalar);
        for backend in [KernelBackend::Scalar, KernelBackend::Lanes] {
            let limited = pose_estimate_prefix_with(&full, 300, &ClusterLayout::GAP9, backend);
            assert_eq!(limited.pose.x.to_bits(), truncated.pose.x.to_bits());
            assert_eq!(limited.pose.y.to_bits(), truncated.pose.y.to_bits());
            assert_eq!(limited.pose.theta.to_bits(), truncated.pose.theta.to_bits());
            assert_eq!(
                limited.position_std_m.to_bits(),
                truncated.position_std_m.to_bits()
            );
        }
        // The full-length prefix is exactly the whole-buffer estimate.
        let whole = pose_estimate_with(&full, &ClusterLayout::GAP9, KernelBackend::Scalar);
        let all = pose_estimate_prefix_with(
            &full,
            full.len(),
            &ClusterLayout::GAP9,
            KernelBackend::Scalar,
        );
        assert_eq!(whole.pose.x.to_bits(), all.pose.x.to_bits());
        assert_eq!(whole.neff.to_bits(), all.neff.to_bits());
    }

    #[test]
    fn motion_kernel_matches_per_particle_sampling_for_any_chunking() {
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        let reference: Vec<Particle<f32>> = buffer(100)
            .iter()
            .enumerate()
            .map(|(i, p)| model.sample(&p, &delta, 9, 2, i as u64))
            .collect();
        for workers in [1usize, 3, 8] {
            let mut soa = buffer(100);
            ClusterLayout::new(workers).for_each_split(soa.as_mut_slice(), |start, chunk| {
                motion_predict(chunk, &model, &delta, 9, 2, start as u64);
            });
            assert_eq!(soa.to_particles(), reference, "workers={workers}");
        }
    }

    #[test]
    fn observation_kernel_fills_one_log_likelihood_per_particle() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let rig = SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(model.r_max());
        let (xs, ys) = batch.in_range_slices(model.r_max()).unwrap();
        let particles = buffer(64);
        let mut sequential = vec![0.0f32; 64];
        observation_log_likelihoods(particles.as_slice(), &edt, &model, &batch, &mut sequential);
        // Chunked execution writes exactly the same values.
        let mut chunked = vec![0.0f32; 64];
        ClusterLayout::GAP9.for_each_split(
            (particles.as_slice(), chunked.as_mut_slice()),
            |_, (chunk, out)| observation_log_likelihoods(chunk, &edt, &model, &batch, out),
        );
        assert_eq!(sequential, chunked);
        // And they match the scalar model entry point.
        for (i, &value) in sequential.iter().enumerate() {
            let p = particles.get(i);
            let direct = model.batch_log_likelihood(&edt, p.x, p.y, p.theta, xs, ys);
            assert_eq!(value, direct);
        }
    }

    #[test]
    fn reweight_kernel_rescales_against_the_maximum() {
        let mut weights = vec![0.5f32; 4];
        let logs = [0.0f32, -1.0, -2.0, f32::NEG_INFINITY];
        reweight(&mut weights, &logs, 0.0);
        assert_eq!(weights[0], 0.5);
        assert!((weights[1] - 0.5 * (-1.0f32).exp()).abs() < 1e-7);
        assert_eq!(weights[3], 0.0);
    }

    #[test]
    fn backend_names_parse_back_to_themselves() {
        for backend in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(backend.name()), Some(backend));
        }
        assert_eq!(KernelBackend::parse(" LANES\n"), Some(KernelBackend::Lanes));
        assert_eq!(KernelBackend::parse("Scalar"), Some(KernelBackend::Scalar));
        assert_eq!(KernelBackend::parse("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::parse("simd"), None);
        assert_eq!(KernelBackend::parse(""), None);
        assert_eq!(KernelBackend::default(), KernelBackend::Lanes);
    }

    #[test]
    fn unrecognized_env_values_warn_and_fall_back_instead_of_panicking() {
        // `resolve_env` is `from_env` minus the process-global variable read:
        // unset and empty resolve to None (the caller's default applies), any
        // recognized spelling resolves case-insensitively, and an unrecognized
        // value warns on stderr once and falls back to None rather than
        // panicking (a typo in MCL_KERNEL_BACKEND must not take the filter
        // down).
        assert_eq!(KernelBackend::resolve_env(None), None);
        assert_eq!(KernelBackend::resolve_env(Some("")), None);
        assert_eq!(KernelBackend::resolve_env(Some("  ")), None);
        assert_eq!(
            KernelBackend::resolve_env(Some("AVX2")),
            Some(KernelBackend::Avx2)
        );
        assert_eq!(
            KernelBackend::resolve_env(Some(" scalar ")),
            Some(KernelBackend::Scalar)
        );
        assert_eq!(KernelBackend::resolve_env(Some("simd")), None);
        assert_eq!(KernelBackend::resolve_env(Some("avx512")), None);
    }

    #[test]
    fn detect_prefers_avx2_only_when_it_is_available() {
        let detected = KernelBackend::detect();
        if KernelBackend::Avx2.is_available() {
            assert_eq!(detected, KernelBackend::Avx2);
        } else {
            assert_eq!(detected, KernelBackend::default());
        }
        // Scalar and Lanes are portable and always available.
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::Lanes.is_available());
    }

    #[test]
    fn collapsed_observation_zeroes_the_weights_on_every_backend() {
        // Every particle scored −∞ (the weights-collapsed observation): the
        // naive exponent would be NaN (−∞ − −∞) and poison the filter. Every
        // backend must zero the chunk instead, for both storage precisions.
        use mcl_num::F16;
        let logs = vec![f32::NEG_INFINITY; 11];
        for backend in KernelBackend::ALL {
            let mut weights = vec![0.25f32; 11];
            reweight_with(backend, &mut weights, &logs, f32::NEG_INFINITY);
            assert_eq!(weights, vec![0.0f32; 11], "{backend:?}");
            let mut halves = vec![F16::from_f32(0.25); 11];
            reweight_with(backend, &mut halves, &logs, f32::NEG_INFINITY);
            assert!(halves.iter().all(|w| w.to_f32() == 0.0), "{backend:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "max_log must be at least")]
    fn reweight_rejects_a_dominated_max_log_in_debug_builds() {
        let mut weights = vec![0.5f32; 2];
        reweight(&mut weights, &[0.0, 1.0], 0.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn reweight_rejects_a_nan_max_log_in_debug_builds() {
        let mut weights = vec![0.5f32; 1];
        reweight(&mut weights, &[f32::NAN], f32::NAN);
    }

    #[test]
    fn lanes_kernels_match_scalar_on_a_tailed_chunk() {
        // Quick in-module sanity check (the exhaustive tail/layout sweep lives
        // in tests/kernel_backend_equivalence.rs): 1003 = 125 × 8 + 3 forces a
        // scalar tail in every lane kernel.
        let n = 1003usize;
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        let mut scalar = buffer(n);
        motion_predict(scalar.as_mut_slice(), &model, &delta, 9, 2, 0);
        let mut lanes = buffer(n);
        motion_predict_with(
            KernelBackend::Lanes,
            lanes.as_mut_slice(),
            &model,
            &delta,
            9,
            2,
            0,
        );
        assert_eq!(scalar, lanes);

        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let obs = BeamEndPointModel::new(0.3, 1.5);
        let rig = SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(obs.r_max());
        let mut scalar_logs = vec![0.0f32; n];
        observation_log_likelihoods(scalar.as_slice(), &edt, &obs, &batch, &mut scalar_logs);
        let mut lanes_logs = vec![0.0f32; n];
        observation_log_likelihoods_lanes(lanes.as_slice(), &edt, &obs, &batch, &mut lanes_logs);
        for (a, b) in scalar_logs.iter().zip(lanes_logs.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let max_log = scalar_logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        reweight(scalar.weight_mut(), &scalar_logs, max_log);
        reweight_lanes(lanes.weight_mut(), &lanes_logs, max_log);
        assert_eq!(scalar, lanes);

        let indices: Vec<usize> = (0..n).map(|i| (i * 13) % n).collect();
        let mut scalar_target = buffer(n);
        resample_scatter(
            scalar.as_slice(),
            scalar_target.as_mut_slice(),
            &indices,
            0.125f32,
        );
        let mut lanes_target = buffer(n);
        resample_scatter_lanes(
            lanes.as_slice(),
            lanes_target.as_mut_slice(),
            &indices,
            0.125f32,
        );
        assert_eq!(scalar_target, lanes_target);

        let a = pose_estimate_with(&scalar_target, &ClusterLayout::GAP9, KernelBackend::Scalar);
        let b = pose_estimate_with(&lanes_target, &ClusterLayout::GAP9, KernelBackend::Lanes);
        assert_eq!(a.pose.x.to_bits(), b.pose.x.to_bits());
        assert_eq!(a.pose.y.to_bits(), b.pose.y.to_bits());
        assert_eq!(a.pose.theta.to_bits(), b.pose.theta.to_bits());
        assert_eq!(a.position_std_m.to_bits(), b.position_std_m.to_bits());
        assert_eq!(a.yaw_std_rad.to_bits(), b.yaw_std_rad.to_bits());
        assert_eq!(a.neff.to_bits(), b.neff.to_bits());
    }

    #[test]
    fn avx2_kernels_match_scalar_on_a_tailed_chunk() {
        // The Avx2 twin of the check above. On non-AVX2 hosts the Avx2
        // kernels run the Lanes bodies, so the assertions still hold — the
        // test then pins the fallback rather than the intrinsics.
        let n = 1003usize;
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        let mut scalar = buffer(n);
        motion_predict(scalar.as_mut_slice(), &model, &delta, 9, 2, 0);
        let mut avx2 = buffer(n);
        motion_predict_avx2(avx2.as_mut_slice(), &model, &delta, 9, 2, 0);
        assert_eq!(scalar, avx2);

        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let obs = BeamEndPointModel::new(0.3, 1.5);
        let rig = SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(obs.r_max());
        let mut scalar_logs = vec![0.0f32; n];
        observation_log_likelihoods(scalar.as_slice(), &edt, &obs, &batch, &mut scalar_logs);
        let mut avx2_logs = vec![0.0f32; n];
        observation_log_likelihoods_avx2(avx2.as_slice(), &edt, &obs, &batch, &mut avx2_logs);
        for (a, b) in scalar_logs.iter().zip(avx2_logs.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let max_log = scalar_logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        reweight(scalar.weight_mut(), &scalar_logs, max_log);
        reweight_avx2(avx2.weight_mut(), &avx2_logs, max_log);
        assert_eq!(scalar, avx2);

        let indices: Vec<usize> = (0..n).map(|i| (i * 13) % n).collect();
        let mut scalar_target = buffer(n);
        resample_scatter(
            scalar.as_slice(),
            scalar_target.as_mut_slice(),
            &indices,
            0.125f32,
        );
        let mut avx2_target = buffer(n);
        resample_scatter_with(
            KernelBackend::Avx2,
            avx2.as_slice(),
            avx2_target.as_mut_slice(),
            &indices,
            0.125f32,
        );
        assert_eq!(scalar_target, avx2_target);

        let a = pose_estimate_with(&scalar_target, &ClusterLayout::GAP9, KernelBackend::Scalar);
        let b = pose_estimate_with(&avx2_target, &ClusterLayout::GAP9, KernelBackend::Avx2);
        assert_eq!(a.pose.x.to_bits(), b.pose.x.to_bits());
        assert_eq!(a.pose.y.to_bits(), b.pose.y.to_bits());
        assert_eq!(a.pose.theta.to_bits(), b.pose.theta.to_bits());
        assert_eq!(a.position_std_m.to_bits(), b.position_std_m.to_bits());
        assert_eq!(a.yaw_std_rad.to_bits(), b.yaw_std_rad.to_bits());
        assert_eq!(a.neff.to_bits(), b.neff.to_bits());
    }

    #[test]
    fn anchor_kernel_accumulates_and_matches_scalar_on_a_tailed_chunk() {
        // 1003 = 125 × 8 + 3 forces the scalar tail in both lane kernels.
        // The kernel *accumulates* — pre-seed `out` with beam-style values
        // and check every backend adds the identical anchor contribution.
        use mcl_sensor::{AnchorRange, ObservationBatch};
        let n = 1003usize;
        let particles = buffer(n);
        let model = AnchorRangeModel::new(0.17);
        let batch = ObservationBatch::new().with_anchors(&[
            AnchorRange::new(0.2, 0.2, 1.1),
            AnchorRange::new(3.8, 0.2, f32::NAN),
            AnchorRange::new(3.8, 3.8, 2.3),
            AnchorRange::new(0.2, 3.8, 0.4),
        ]);
        let seed: Vec<f32> = (0..n).map(|i| -0.01 * i as f32).collect();
        let mut scalar_logs = seed.clone();
        anchor_log_likelihoods(particles.as_slice(), &model, &batch, &mut scalar_logs);
        for (i, &value) in scalar_logs.iter().enumerate() {
            let direct = model.batch_log_likelihood(particles.x()[i], particles.y()[i], &batch);
            assert_eq!(value.to_bits(), (seed[i] + direct).to_bits());
        }
        let mut lanes_logs = seed.clone();
        anchor_log_likelihoods_lanes(particles.as_slice(), &model, &batch, &mut lanes_logs);
        let mut avx2_logs = seed.clone();
        anchor_log_likelihoods_with(
            KernelBackend::Avx2,
            particles.as_slice(),
            &model,
            &batch,
            &mut avx2_logs,
        );
        for i in 0..n {
            assert_eq!(
                scalar_logs[i].to_bits(),
                lanes_logs[i].to_bits(),
                "lane {i}"
            );
            assert_eq!(scalar_logs[i].to_bits(), avx2_logs[i].to_bits(), "avx {i}");
        }
        // Chunked dispatch writes exactly the sequential values.
        for backend in KernelBackend::ALL {
            let mut chunked = seed.clone();
            ClusterLayout::GAP9.for_each_split(
                (particles.as_slice(), chunked.as_mut_slice()),
                |_, (chunk, out)| anchor_log_likelihoods_with(backend, chunk, &model, &batch, out),
            );
            assert_eq!(scalar_logs, chunked, "{backend:?}");
        }
        // An anchor-free (or all-skipped) batch leaves the accumulator
        // untouched: the neutral 0.0 adds nothing.
        let mut untouched = seed.clone();
        anchor_log_likelihoods(
            particles.as_slice(),
            &model,
            &ObservationBatch::new(),
            &mut untouched,
        );
        assert_eq!(untouched, seed);
    }

    #[test]
    fn angular_difference_group_matches_the_scalar_function_bit_for_bit() {
        // Wraps on both sides, the ±π edges, signed zeros, lanes more than a
        // turn away and non-finite lanes (which send the group to the
        // scalar function).
        let specials = [
            0.0f32,
            -0.0,
            PI,
            -PI,
            f32::from_bits(PI.to_bits() + 1),
            f32::from_bits((-PI).to_bits() + 1),
            TAU,
            f32::from_bits(TAU.to_bits() - 1),
            -TAU,
            2.5 * TAU,
            -7.0 * TAU,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut values: Vec<f32> = (0..4000).map(|_| rng.gen_range(-7.0f32..14.0)).collect();
        for (i, &special) in specials.iter().enumerate() {
            values[37 * i + 3] = special;
        }
        for mean in [
            0.0f32,
            0.3,
            PI,
            f32::from_bits(TAU.to_bits() - 1),
            5.9,
            -0.0,
        ] {
            for group in values.chunks_exact(LANES) {
                let group: &[f32; LANES] = group.try_into().unwrap();
                let lanes = angular_difference_group(group, mean);
                for (got, &t) in lanes.iter().zip(group) {
                    let want = angular_difference(t, mean);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "theta {t}, mean {mean}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_kernel_copies_and_stamps_uniform_weights() {
        let source = buffer(16);
        let mut target = buffer(16);
        let indices: Vec<usize> = (0..16).map(|i| (i * 5) % 16).collect();
        resample_scatter(source.as_slice(), target.as_mut_slice(), &indices, 0.25f32);
        for (slot, &src) in indices.iter().enumerate() {
            assert_eq!(target.x()[slot], source.x()[src]);
            assert_eq!(target.theta()[slot], source.theta()[src]);
            assert_eq!(target.weight()[slot], 0.25);
        }
    }

    #[test]
    fn pose_kernel_matches_the_aos_estimate() {
        let particles = buffer(1000);
        let aos = PoseEstimate::from_particles(&particles.to_particles());
        let soa = pose_estimate(&particles, &ClusterLayout::SINGLE);
        // Block-wise f64 reduction vs. one sequential stream: equal to float
        // tolerance (the reductions associate differently).
        assert!((aos.pose.x - soa.pose.x).abs() < 1e-5);
        assert!((aos.pose.y - soa.pose.y).abs() < 1e-5);
        assert!(angular_difference(aos.pose.theta, soa.pose.theta).abs() < 1e-5);
        assert!((aos.position_std_m - soa.position_std_m).abs() < 1e-5);
        assert!((aos.yaw_std_rad - soa.yaw_std_rad).abs() < 1e-5);
        assert!((aos.neff - soa.neff).abs() < 1e-2);
    }

    #[test]
    fn pose_kernel_is_bit_identical_across_worker_counts() {
        // 1000 particles do not tile the 256-particle reduction blocks evenly,
        // exercising the partial last block.
        let particles = buffer(1000);
        let single = pose_estimate(&particles, &ClusterLayout::SINGLE);
        for workers in [2usize, 3, 8] {
            let multi = pose_estimate(&particles, &ClusterLayout::new(workers));
            assert_eq!(single.pose.x.to_bits(), multi.pose.x.to_bits());
            assert_eq!(single.pose.y.to_bits(), multi.pose.y.to_bits());
            assert_eq!(single.pose.theta.to_bits(), multi.pose.theta.to_bits());
            assert_eq!(
                single.position_std_m.to_bits(),
                multi.position_std_m.to_bits()
            );
            assert_eq!(single.yaw_std_rad.to_bits(), multi.yaw_std_rad.to_bits());
            assert_eq!(single.neff.to_bits(), multi.neff.to_bits());
        }
    }

    #[test]
    fn collapsed_weights_fall_back_to_the_unweighted_mean() {
        let mut particles = buffer(10);
        for w in particles.weight_mut() {
            *w = 0.0;
        }
        let estimate = pose_estimate(&particles, &ClusterLayout::GAP9);
        let mean_x: f32 = particles.x().iter().sum::<f32>() / 10.0;
        assert!((estimate.pose.x - mean_x).abs() < 1e-5);
        assert!((estimate.neff - 10.0).abs() < 1e-3);

        // The unweighted branch on every backend: 1003 = 125 × 8 + 3 runs
        // both the lane groups and the scalar tail of each accumulator.
        fn assert_backends_match_scalar<S: Scalar>() {
            let particles: ParticleBuffer<S> = buffer(1003)
                .iter()
                .map(|p| Particle::from_pose(&p.pose(), 0.0))
                .collect();
            let reference =
                pose_estimate_with(&particles, &ClusterLayout::GAP9, KernelBackend::Scalar);
            assert_eq!(reference.neff, 1003.0, "weights must read as collapsed");
            for backend in KernelBackend::ALL {
                let e = pose_estimate_with(&particles, &ClusterLayout::GAP9, backend);
                assert_eq!(
                    e.pose.x.to_bits(),
                    reference.pose.x.to_bits(),
                    "{backend:?}"
                );
                assert_eq!(
                    e.pose.y.to_bits(),
                    reference.pose.y.to_bits(),
                    "{backend:?}"
                );
                assert_eq!(
                    e.pose.theta.to_bits(),
                    reference.pose.theta.to_bits(),
                    "{backend:?}"
                );
                assert_eq!(
                    e.position_std_m.to_bits(),
                    reference.position_std_m.to_bits(),
                    "{backend:?}"
                );
                assert_eq!(
                    e.yaw_std_rad.to_bits(),
                    reference.yaw_std_rad.to_bits(),
                    "{backend:?}"
                );
                assert_eq!(e.neff.to_bits(), reference.neff.to_bits(), "{backend:?}");
            }
        }
        assert_backends_match_scalar::<f32>();
        assert_backends_match_scalar::<mcl_num::F16>();
    }

    #[test]
    fn empty_batch_scores_neutrally() {
        let map = MapBuilder::new(2.0, 2.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        // One lane group plus a tail.
        let particles = buffer(11);
        let mut empty = BeamBatch::from_beams(&[] as &[Beam]);
        empty.partition_in_range(model.r_max());
        for backend in KernelBackend::ALL {
            let mut out = vec![9.0f32; 11];
            observation_log_likelihoods_with(
                backend,
                particles.as_slice(),
                &edt,
                &model,
                &empty,
                &mut out,
            );
            assert_eq!(out, vec![0.0; 11], "{backend:?}");
        }
    }

    #[test]
    fn unpartitioned_batches_are_rejected_on_every_backend() {
        let map = MapBuilder::new(2.0, 2.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let particles = buffer(11);
        let beam = Beam {
            azimuth_body_rad: 0.0,
            range_m: 0.5,
            origin_body: Pose2::default(),
        };
        for batch in [BeamBatch::from_beams(&[beam]), BeamBatch::default()] {
            for backend in KernelBackend::ALL {
                let panic = std::panic::catch_unwind(|| {
                    let mut out = vec![0.0f32; 11];
                    observation_log_likelihoods_with(
                        backend,
                        particles.as_slice(),
                        &edt,
                        &model,
                        &batch,
                        &mut out,
                    );
                })
                .expect_err("an unpartitioned batch must not be scored");
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert!(
                    message.contains("partition the beam batch for the model's r_max"),
                    "{backend:?}, {} beams: {message}",
                    batch.len()
                );
            }
        }
    }

    /// The mode refinement written as the plain per-iteration loop: every
    /// iteration widens x/y/w/θ and evaluates the owned `f32` `sin_cos`,
    /// widened to `f64`, for each in-window particle, skipping the others.
    /// The reference the cached, branch-free version must match bit for bit
    /// on every backend.
    fn refine_mode_estimate_reference<S: Scalar>(
        particles: &ParticleBuffer<S>,
        n: usize,
        start: Pose2,
        radius_m: f32,
        iterations: usize,
    ) -> (Pose2, f64) {
        let view = particles.as_slice();
        let r2 = f64::from(radius_m) * f64::from(radius_m);
        let total: f64 = view.weight[..n].iter().map(|w| f64::from(w.to_f32())).sum();
        if total <= 0.0 {
            return (start, 0.0);
        }
        let mut center = start;
        let mut window_mass = 0.0f64;
        for _ in 0..iterations {
            let cx = f64::from(center.x);
            let cy = f64::from(center.y);
            let (mut sw, mut sx, mut sy, mut ssin, mut scos) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for i in 0..n {
                let x = f64::from(view.x[i].to_f32());
                let y = f64::from(view.y[i].to_f32());
                let (dx, dy) = (x - cx, y - cy);
                if dx * dx + dy * dy <= r2 {
                    let w = f64::from(view.weight[i].to_f32());
                    let (sin, cos) = sin_cos(view.theta[i].to_f32());
                    sw += w;
                    sx += w * x;
                    sy += w * y;
                    ssin += w * f64::from(sin);
                    scos += w * f64::from(cos);
                }
            }
            if sw <= 0.0 {
                break;
            }
            window_mass = sw;
            let next = Pose2::new((sx / sw) as f32, (sy / sw) as f32, ssin.atan2(scos) as f32);
            if next.x == center.x && next.y == center.y && next.theta == center.theta {
                break;
            }
            center = next;
        }
        (center, window_mass / total)
    }

    /// Two unequal modes 1.5 m apart plus a thin uniform background, with
    /// per-particle yaws and weights that vary.
    fn bimodal<S: Scalar>(n: usize) -> ParticleBuffer<S> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        (0..n)
            .map(|i| {
                let (cx, cy) = match i % 5 {
                    0..=2 => (2.0, 1.0),
                    3 => (3.5, 1.0),
                    _ => (rng.gen_range(0.0..6.0), rng.gen_range(0.0..3.0)),
                };
                let pose = Pose2::new(
                    cx + rng.gen_range(-0.3f32..0.3),
                    cy + rng.gen_range(-0.3f32..0.3),
                    rng.gen_range(-3.1f32..3.1),
                );
                Particle::from_pose(&pose, rng.gen_range(0.1f32..1.0) / n as f32)
            })
            .collect()
    }

    fn assert_refine_matches_reference<S: Scalar>(
        backend: KernelBackend,
        scratch: &mut ModeRefineScratch,
    ) {
        // Windows holding no particle (far start), some (the mode radius)
        // and all of them (a radius wider than the map), over prefixes that
        // shrink and regrow so the scratch is reused at other lengths.
        let cases = [
            (Pose2::new(50.0, 50.0, 0.0), 0.6),
            (Pose2::new(2.6, 1.2, 0.3), 0.6),
            (Pose2::new(3.2, 1.0, -1.0), 0.3),
            (Pose2::new(3.0, 1.5, 0.0), 100.0),
        ];
        // Many more windows across the cloud: a perturbed trig term shifts
        // the f64 sums by far less than an f32 ulp of the published yaw, so
        // a single window rarely exposes it.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cases: Vec<(Pose2, f32)> = cases
            .into_iter()
            .chain((0..160).map(|_| {
                let start = Pose2::new(rng.gen_range(0.0..6.0), rng.gen_range(0.0..3.0), 0.0);
                (start, rng.gen_range(0.2f32..1.5))
            }))
            .collect();
        let particles = bimodal::<S>(700);
        for n in [700, 1, 0, 333, 700] {
            for &(start, radius) in &cases {
                let (pose, mass) =
                    refine_mode_estimate(&particles, n, start, radius, 8, backend, scratch);
                let (want_pose, want_mass) =
                    refine_mode_estimate_reference(&particles, n, start, radius, 8);
                let label = format!(
                    "{}: n = {n}, start = {start:?}, radius = {radius}",
                    backend.name()
                );
                assert_eq!(pose.x.to_bits(), want_pose.x.to_bits(), "{label}");
                assert_eq!(pose.y.to_bits(), want_pose.y.to_bits(), "{label}");
                assert_eq!(pose.theta.to_bits(), want_pose.theta.to_bits(), "{label}");
                assert_eq!(mass.to_bits(), want_mass.to_bits(), "{label}");
            }
        }
        // The cases above really cover an empty, a partial and a full window.
        let (_, empty) =
            refine_mode_estimate(&particles, 700, cases[0].0, 0.6, 8, backend, scratch);
        let (_, partial) =
            refine_mode_estimate(&particles, 700, cases[1].0, 0.6, 8, backend, scratch);
        let (_, full) =
            refine_mode_estimate(&particles, 700, cases[3].0, 100.0, 8, backend, scratch);
        assert_eq!(empty, 0.0);
        assert!(partial > 0.0 && partial < 1.0, "partial = {partial}");
        assert!((full - 1.0).abs() < 1e-12, "full = {full}");
    }

    #[test]
    fn refine_mode_estimate_matches_the_uncached_loop_bit_for_bit() {
        let mut scratch = ModeRefineScratch::default();
        for backend in KernelBackend::ALL {
            assert_refine_matches_reference::<f32>(backend, &mut scratch);
            assert_refine_matches_reference::<mcl_num::F16>(backend, &mut scratch);
        }
    }
}
