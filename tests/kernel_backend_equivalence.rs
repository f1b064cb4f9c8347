//! Equivalence harness pinning the lane-batched and explicit-AVX2 kernel
//! backends to the scalar reference.
//!
//! The `mcl_core::kernel` lane-width contract promises that
//! [`KernelBackend::Lanes`] **and** [`KernelBackend::Avx2`] are
//! **bit-identical** to [`KernelBackend::Scalar`] for `f32` storage: lane
//! grouping (and, for Avx2, issuing the group bodies as single-rounding
//! AVX2 register ops with gathered EDT lookups) restructures the loops,
//! never the per-particle arithmetic. On hosts without AVX2 the Avx2 legs
//! run the lane bodies, so the suite passes everywhere; on AVX2 hosts they
//! pin the intrinsics. This suite pins that promise
//!
//! * per kernel, across **every tail length** `n % LANES ∈ 0..LANES` (the
//!   lane kernels switch from group bodies to the scalar-reference tail at
//!   `n − n % LANES`, so each class exercises a different switch point);
//! * through every [`ClusterLayout`] dispatch shape (`SINGLE`, `new(3)`,
//!   `GAP9` — uneven chunking creates additional intra-chunk tails);
//! * across warm-pool reruns (the shared worker pool must not make a second,
//!   warm dispatch differ from the first);
//! * for **fused ToF + UWB batches** (including a denied NaN-range anchor)
//!   as well as beam-only ones — the anchor-range kernel is held to the same
//!   bit-identity contract as the beam kernel, full-filter, across every
//!   worker count;
//! * for the `Avx2` observation kernel on every distance-field storage
//!   (fp32, fp16, quantized; direct and behind `Arc`), with `f32` and
//!   binary16 particles and end points off the map and on its last cell;
//! * for binary16 storage, within [`F16_BACKEND_ULP_BOUND`] f16 ULPs — the
//!   bound is asserted exactly, not approximated with a float tolerance;
//! * for the pose reduction, against a spelled-out reference of its fixed
//!   block and lane association, on lengths up to 1100 and on zero, NaN,
//!   negative and +∞ weights.

use proptest::prelude::*;
use std::sync::Arc;
use tof_mcl::core::kernel::{self, KernelBackend, LANES};
use tof_mcl::core::{
    AdaptiveConfig, AnchorRangeModel, BeamEndPointModel, ClusterLayout, MclConfig,
    MonteCarloLocalization, MotionDelta, MotionModel, Particle, ParticleBuffer,
};
use tof_mcl::gridmap::{
    CellIndex, DistanceField, EuclideanDistanceField, MapBuilder, OccupancyGrid, Pose2,
};
use tof_mcl::num::{Scalar, F16};
use tof_mcl::sensor::{AnchorRange, Beam, BeamBatch, ObservationBatch};

/// Maximum distance, in binary16 ULPs, between a particle component stored by
/// the `Lanes` backend and the same component stored by `Scalar`, for F16
/// storage. The bound is **zero**: every lane performs the scalar op sequence
/// on the same operands, so each `F16` store rounds the same `f32` value —
/// there is no step where the backends could round differently. Asserting 0
/// through the ULP machinery (rather than `==`) keeps the bound explicit and
/// ready to relax if a future lane kernel legitimately re-associates.
const F16_BACKEND_ULP_BOUND: u32 = 0;

/// Distance between two binary16 values in ULPs (units in the last place),
/// counted along the ordered line of finite-and-infinite f16 values.
fn f16_ulp_distance(a: F16, b: F16) -> u32 {
    assert!(!a.is_nan() && !b.is_nan(), "ULP distance undefined for NaN");
    fn key(v: F16) -> i32 {
        let bits = v.to_bits();
        let magnitude = i32::from(bits & 0x7FFF);
        if bits & 0x8000 != 0 {
            -magnitude
        } else {
            magnitude
        }
    }
    key(a).abs_diff(key(b))
}

fn layouts() -> [ClusterLayout; 3] {
    [
        ClusterLayout::SINGLE,
        ClusterLayout::new(3),
        ClusterLayout::GAP9,
    ]
}

fn arena() -> OccupancyGrid {
    MapBuilder::new(4.0, 4.0, 0.05)
        .border_walls()
        .wall((2.0, 0.0), (2.0, 2.4))
        .filled_rect((2.8, 2.8), (3.2, 3.2))
        .build()
}

/// A deterministic beam ring: in-range, out-of-range and NaN-range beams
/// interleaved, so the partition that feeds the correction kernel's
/// in-range prefix has beams to move.
fn synthetic_beams(salt: u64) -> Vec<Beam> {
    (0..14)
        .map(|k| Beam {
            azimuth_body_rad: k as f32 * core::f32::consts::TAU / 14.0,
            range_m: match (k % 5, salt % 3) {
                (4, _) => 2.2,      // beyond r_max
                (3, 0) => f32::NAN, // corrupt zone
                _ => 0.25 + 0.1 * ((k as u64 + salt) % 11) as f32,
            },
            origin_body: Pose2::default(),
        })
        .collect()
}

/// A deterministic UWB anchor set inside the 4 m × 4 m arena: two usable
/// anchors with salt-varied measured ranges plus one denied anchor whose
/// range is NaN, so the fused legs keep the non-finite skip rule on the
/// pinned path.
fn synthetic_anchors(salt: u64) -> Vec<AnchorRange> {
    vec![
        AnchorRange::new(0.4, 0.4, 1.1 + 0.07 * ((salt % 13) as f32)),
        AnchorRange::new(3.6, 3.2, 2.3 - 0.05 * ((salt % 7) as f32)),
        AnchorRange::new(2.0, 0.4, f32::NAN),
    ]
}

fn buffer<S: Scalar>(n: usize, salt: u64) -> ParticleBuffer<S> {
    (0..n)
        .map(|i| {
            let k = i as u64 + salt;
            Particle::from_pose(
                &Pose2::new(
                    0.3 + ((k * 7) % 67) as f32 * 0.05,
                    0.3 + ((k * 11) % 61) as f32 * 0.055,
                    ((k * 13) % 41) as f32 * 0.15,
                ),
                (1 + (k % 9)) as f32 / n as f32,
            )
        })
        .collect()
}

fn assert_buffers_bit_identical(a: &ParticleBuffer<f32>, b: &ParticleBuffer<f32>, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for i in 0..a.len() {
        let (pa, pb) = (a.get(i), b.get(i));
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "{label}: x[{i}]");
        assert_eq!(pa.y.to_bits(), pb.y.to_bits(), "{label}: y[{i}]");
        assert_eq!(
            pa.theta.to_bits(),
            pb.theta.to_bits(),
            "{label}: theta[{i}]"
        );
        assert_eq!(
            pa.weight.to_bits(),
            pb.weight.to_bits(),
            "{label}: weight[{i}]"
        );
    }
}

/// Every non-scalar backend, every tail length, every layout, every kernel:
/// the batched kernels must be bit-identical to the scalar
/// reference. `n = 4·LANES + tail` keeps several full lane groups in front of
/// each tail class, and the uneven layouts cut chunks that produce further
/// `chunk_len % LANES` classes.
#[test]
fn all_five_kernels_are_bit_identical_across_every_tail_length_and_layout() {
    let map = arena();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let model = BeamEndPointModel::new(0.25, 1.5);
    let anchor_model = AnchorRangeModel::new(0.2);
    let motion = MotionModel::new([0.08, 0.08, 0.05]);
    let delta = MotionDelta::new(0.11, 0.015, 0.04);
    let beams = synthetic_beams(1);
    let mut batch = BeamBatch::from_beams(&beams);
    batch.partition_in_range(model.r_max());

    for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
        for tail in 0..LANES {
            let n = 4 * LANES + tail;
            for layout in layouts() {
                let label = |kern: &str| format!("{} {kern} n={n}", backend.name());
                // Motion kernel.
                let mut scalar: ParticleBuffer<f32> = buffer(n, tail as u64);
                let mut batched = scalar.clone();
                layout.for_each_split(scalar.as_mut_slice(), |start, chunk| {
                    kernel::motion_predict(chunk, &motion, &delta, 5, 1, start as u64);
                });
                layout.for_each_split(batched.as_mut_slice(), |start, chunk| {
                    kernel::motion_predict_with(
                        backend,
                        chunk,
                        &motion,
                        &delta,
                        5,
                        1,
                        start as u64,
                    );
                });
                assert_buffers_bit_identical(&scalar, &batched, &label("motion"));

                // Observation kernel over the partitioned prefix.
                let mut scalar_logs = vec![0.0f32; n];
                layout.for_each_split(
                    (scalar.as_slice(), scalar_logs.as_mut_slice()),
                    |_, (chunk, out)| {
                        kernel::observation_log_likelihoods(chunk, &edt, &model, &batch, out);
                    },
                );
                let mut batched_logs = vec![0.0f32; n];
                layout.for_each_split(
                    (batched.as_slice(), batched_logs.as_mut_slice()),
                    |_, (chunk, out)| {
                        kernel::observation_log_likelihoods_with(
                            backend, chunk, &edt, &model, &batch, out,
                        );
                    },
                );
                for (i, (a, b)) in scalar_logs.iter().zip(batched_logs.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} observation n={n} log[{i}]",
                        backend.name()
                    );
                }

                // Reweight on the logs just produced.
                let max_log = scalar_logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                let mut scalar_w: Vec<f32> = scalar.weight().to_vec();
                let mut batched_w = scalar_w.clone();
                layout.for_each_split(
                    (scalar_w.as_mut_slice(), scalar_logs.as_slice()),
                    |_, (w, l)| kernel::reweight(w, l, max_log),
                );
                layout.for_each_split(
                    (batched_w.as_mut_slice(), batched_logs.as_slice()),
                    |_, (w, l)| kernel::reweight_with(backend, w, l, max_log),
                );
                for (i, (a, b)) in scalar_w.iter().zip(batched_w.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} reweight n={n} w[{i}]",
                        backend.name()
                    );
                }

                // Anchor-range kernel. It *accumulates* onto the beam logs
                // (that is the fused contract), so seed both sides with a
                // deterministic non-zero prefix; the batch carries a denied
                // NaN anchor to keep the skip predicate on the pinned path.
                let fused =
                    ObservationBatch::new().with_anchors(&synthetic_anchors(tail as u64 + 2));
                let seed_logs = |logs: &mut [f32]| {
                    for (i, slot) in logs.iter_mut().enumerate() {
                        *slot = -0.25 * ((i % 17) as f32);
                    }
                };
                let mut scalar_logs = vec![0.0f32; n];
                seed_logs(&mut scalar_logs);
                layout.for_each_split(
                    (scalar.as_slice(), scalar_logs.as_mut_slice()),
                    |_, (chunk, out)| {
                        kernel::anchor_log_likelihoods(chunk, &anchor_model, &fused, out);
                    },
                );
                let mut batched_logs = vec![0.0f32; n];
                seed_logs(&mut batched_logs);
                layout.for_each_split(
                    (batched.as_slice(), batched_logs.as_mut_slice()),
                    |_, (chunk, out)| {
                        kernel::anchor_log_likelihoods_with(
                            backend,
                            chunk,
                            &anchor_model,
                            &fused,
                            out,
                        );
                    },
                );
                for (i, (a, b)) in scalar_logs.iter().zip(batched_logs.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} anchor n={n} log[{i}]",
                        backend.name()
                    );
                }

                // Resampling scatter (near-sorted indices, like a systematic plan).
                let indices: Vec<usize> = (0..n).map(|i| (i * 2).min(n - 1)).collect();
                let uniform = 1.0f32 / n as f32;
                let mut scalar_target: ParticleBuffer<f32> = buffer(n, 99);
                let mut batched_target = scalar_target.clone();
                kernel::resample_scatter(
                    scalar.as_slice(),
                    scalar_target.as_mut_slice(),
                    &indices,
                    uniform,
                );
                kernel::resample_scatter_with(
                    backend,
                    batched.as_slice(),
                    batched_target.as_mut_slice(),
                    &indices,
                    uniform,
                );
                assert_buffers_bit_identical(&scalar_target, &batched_target, &label("scatter"));

                // Pose reduction.
                let a = kernel::pose_estimate_with(&scalar_target, &layout, KernelBackend::Scalar);
                let b = kernel::pose_estimate_with(&batched_target, &layout, backend);
                let pose = label("pose");
                assert_eq!(a.pose.x.to_bits(), b.pose.x.to_bits(), "{pose}");
                assert_eq!(a.pose.y.to_bits(), b.pose.y.to_bits(), "{pose}");
                assert_eq!(a.pose.theta.to_bits(), b.pose.theta.to_bits(), "{pose}");
                assert_eq!(
                    a.position_std_m.to_bits(),
                    b.position_std_m.to_bits(),
                    "{pose}"
                );
                assert_eq!(a.yaw_std_rad.to_bits(), b.yaw_std_rad.to_bits(), "{pose}");
                assert_eq!(a.neff.to_bits(), b.neff.to_bits(), "{pose}");
            }
        }
    }
}

/// Runs a full filter (uniform init + three gated updates) under `backend`
/// and returns the particle buffer and final estimate. A non-empty `anchors`
/// slice turns every update into a fused ToF + UWB batch scored through the
/// anchor-range kernel; an empty slice runs the exact beam-only sequence the
/// golden trace pins.
#[allow(clippy::too_many_arguments)]
fn run_filter<S: Scalar, D: tof_mcl::gridmap::DistanceField + Clone>(
    map: &OccupancyGrid,
    edt: &D,
    beams: &[Beam],
    anchors: &[AnchorRange],
    n: usize,
    seed: u64,
    workers: usize,
    backend: KernelBackend,
) -> (ParticleBuffer<S>, tof_mcl::core::PoseEstimate) {
    let config = MclConfig::default()
        .with_particles(n)
        .with_seed(seed)
        .with_workers(workers)
        .with_kernel_backend(backend);
    let mut filter = MonteCarloLocalization::<S, _>::new(config, edt.clone()).unwrap();
    filter.initialize_uniform(map, seed).unwrap();
    let delta = MotionDelta::new(0.12, 0.01, 0.05);
    let observations = ObservationBatch::from_beams(beams).with_anchors(anchors);
    for _ in 0..3 {
        filter.predict(delta);
        let outcome = filter.update_observations(&observations).unwrap();
        assert!(outcome.is_applied());
    }
    let estimate = filter.estimate();
    (filter.particles().current().clone(), estimate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-filter equivalence for f32 storage: for every seed, particle
    /// count (the `+ tail` term sweeps the `n % LANES` classes with the
    /// case index), worker layout, observation mix (beam-only *and* fused
    /// ToF + UWB) and a warm-pool rerun, the `Lanes` and `Avx2` filters are
    /// bit-identical to the `Scalar` filter.
    #[test]
    fn batched_filters_are_bit_identical_to_scalar_for_f32(
        seed in 0u64..300,
        base in 2usize..12,
        tail in 0usize..LANES,
    ) {
        let n = base * LANES + tail;
        let map = arena();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let beams = synthetic_beams(seed);
        // Cartesian sweep: every worker layout under a beam-only batch and a
        // fused ToF + UWB batch (two usable anchors plus a denied NaN one).
        for (workers, anchors) in [1usize, 3, 8]
            .into_iter()
            .flat_map(|w| [(w, Vec::new()), (w, synthetic_anchors(seed))])
        {
            let (scalar_particles, scalar_estimate) = run_filter::<f32, _>(
                &map, &edt, &beams, &anchors, n, seed, workers, KernelBackend::Scalar,
            );
            for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
                // Two runs: the second re-dispatches on the already-warm
                // shared pool and must not drift.
                for rerun in 0..2 {
                    let (particles, estimate) =
                        run_filter::<f32, _>(&map, &edt, &beams, &anchors, n, seed, workers, backend);
                    prop_assert_eq!(
                        &scalar_particles,
                        &particles,
                        "{} workers={} rerun={} anchors={} diverged",
                        backend.name(), workers, rerun, anchors.len()
                    );
                    prop_assert_eq!(scalar_estimate.pose.x.to_bits(), estimate.pose.x.to_bits());
                    prop_assert_eq!(scalar_estimate.pose.y.to_bits(), estimate.pose.y.to_bits());
                    prop_assert_eq!(
                        scalar_estimate.pose.theta.to_bits(),
                        estimate.pose.theta.to_bits()
                    );
                    prop_assert_eq!(
                        scalar_estimate.position_std_m.to_bits(),
                        estimate.position_std_m.to_bits()
                    );
                    prop_assert_eq!(
                        scalar_estimate.yaw_std_rad.to_bits(),
                        estimate.yaw_std_rad.to_bits()
                    );
                    prop_assert_eq!(scalar_estimate.neff.to_bits(), estimate.neff.to_bits());
                }
            }
        }
    }

    /// Full-filter equivalence for binary16 storage, pinned to the stated
    /// [`F16_BACKEND_ULP_BOUND`]: the bound itself is asserted per component,
    /// not approximated with a floating tolerance. (The `<=` against the
    /// currently-zero bound is deliberate — the comparison *is* the contract,
    /// and stays valid if the bound is ever relaxed above zero.) The sweep
    /// covers both beam-only and fused ToF + UWB batches, so the anchor
    /// kernel is held to the same zero-ULP bound on f16 storage.
    #[allow(clippy::absurd_extreme_comparisons)]
    #[test]
    fn batched_filters_stay_within_the_stated_f16_ulp_bound(
        seed in 0u64..300,
        base in 2usize..10,
        tail in 0usize..LANES,
    ) {
        let n = base * LANES + tail;
        let map = arena();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let beams = synthetic_beams(seed);
        for (workers, anchors) in [1usize, 8]
            .into_iter()
            .flat_map(|w| [(w, Vec::new()), (w, synthetic_anchors(seed))])
        {
            let (scalar_particles, scalar_estimate) = run_filter::<F16, _>(
                &map, &edt, &beams, &anchors, n, seed, workers, KernelBackend::Scalar,
            );
            for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
                let (particles, estimate) =
                    run_filter::<F16, _>(&map, &edt, &beams, &anchors, n, seed, workers, backend);
                for i in 0..n {
                    let (a, b) = (scalar_particles.get(i), particles.get(i));
                    for (sa, sb, component) in [
                        (a.x, b.x, "x"),
                        (a.y, b.y, "y"),
                        (a.theta, b.theta, "theta"),
                        (a.weight, b.weight, "weight"),
                    ] {
                        let ulps = f16_ulp_distance(sa, sb);
                        prop_assert!(
                            ulps <= F16_BACKEND_ULP_BOUND,
                            "{} {}[{}] off by {} ULPs (> {}) at workers={} anchors={}",
                            backend.name(), component, i, ulps, F16_BACKEND_ULP_BOUND,
                            workers, anchors.len()
                        );
                    }
                }
                // The estimate is computed in f32/f64 from the f16 components;
                // with 0-ULP particle agreement it must match bit for bit.
                prop_assert_eq!(scalar_estimate.pose.x.to_bits(), estimate.pose.x.to_bits());
                prop_assert_eq!(scalar_estimate.neff.to_bits(), estimate.neff.to_bits());
            }
        }
    }
}

/// The paper's FP16_QM configuration — binary16 particles over the 8-bit
/// quantized distance field — is where the Avx2 backend takes its gather
/// path through the quantized codes. Full-filter equivalence across every
/// backend must hold there too, at the same zero-ULP bound, for beam-only
/// and fused ToF + UWB batches alike.
#[allow(clippy::absurd_extreme_comparisons)]
#[test]
fn every_backend_matches_scalar_on_the_quantized_f16_pipeline() {
    let map = arena();
    let quantized = EuclideanDistanceField::compute(&map, 1.5).quantize();
    for (seed, tail) in [(3u64, 1usize), (11, 5), (29, 0)] {
        let n = 6 * LANES + tail;
        let beams = synthetic_beams(seed);
        for (workers, anchors) in [1usize, 8]
            .into_iter()
            .flat_map(|w| [(w, Vec::new()), (w, synthetic_anchors(seed))])
        {
            let (scalar_particles, scalar_estimate) = run_filter::<F16, _>(
                &map,
                &quantized,
                &beams,
                &anchors,
                n,
                seed,
                workers,
                KernelBackend::Scalar,
            );
            for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
                let (particles, estimate) = run_filter::<F16, _>(
                    &map, &quantized, &beams, &anchors, n, seed, workers, backend,
                );
                for i in 0..n {
                    let (a, b) = (scalar_particles.get(i), particles.get(i));
                    for (sa, sb, component) in [
                        (a.x, b.x, "x"),
                        (a.y, b.y, "y"),
                        (a.theta, b.theta, "theta"),
                        (a.weight, b.weight, "weight"),
                    ] {
                        let ulps = f16_ulp_distance(sa, sb);
                        assert!(
                            ulps <= F16_BACKEND_ULP_BOUND,
                            "{} {component}[{i}] off by {ulps} ULPs at workers={workers} \
                             seed={seed}",
                            backend.name()
                        );
                    }
                }
                assert_eq!(
                    scalar_estimate.pose.x.to_bits(),
                    estimate.pose.x.to_bits(),
                    "{} seed={seed}",
                    backend.name()
                );
                assert_eq!(
                    scalar_estimate.neff.to_bits(),
                    estimate.neff.to_bits(),
                    "{} seed={seed}",
                    backend.name()
                );
            }
        }
    }
}

/// A 31 × 31-cell room (961 cells, odd, so the fp16 pair-word gather at
/// the last cell reads its pad element) with an interior wall.
fn odd_room() -> OccupancyGrid {
    let map = MapBuilder::new(1.55, 1.55, 0.05)
        .border_walls()
        .wall((0.75, 0.0), (0.75, 1.0))
        .build();
    assert_eq!(map.cell_count() % 2, 1, "pad coverage needs an odd field");
    map
}

/// The beams of [`assert_avx2_observation_matches_scalar`]: (body azimuth,
/// range) pairs, all inside the model's `r_max` of 1.5 m.
const PROBE_BEAMS: [(f32, f32); 5] = [(0.0, 0.34), (1.3, 1.4), (2.9, 0.9), (4.4, 1.2), (5.6, 0.2)];

/// Pose `i` of [`assert_avx2_observation_matches_scalar`]. Pose 0 lands its
/// azimuth-0 beam on the last cell of [`odd_room`] (the gathers read into
/// the pad); the others scatter over and around the room, so end points
/// leave it on every side.
fn probe_pose(i: usize) -> Pose2 {
    if i == 0 {
        return Pose2::new(1.2, 1.53, 0.0);
    }
    let k = i as f32;
    Pose2::new(-0.3 + (k * 0.37) % 2.2, 1.9 - (k * 0.29) % 2.2, k * 0.7)
}

/// Scores the first `n` [`probe_pose`]s against [`PROBE_BEAMS`] with the
/// scalar kernel and with the `Avx2` dispatch and asserts the two agree bit
/// for bit.
fn assert_avx2_observation_matches_scalar<S: Scalar, D: DistanceField + ?Sized>(
    field: &D,
    n: usize,
    label: &str,
) {
    let model = BeamEndPointModel::new(0.25, 1.5);
    let beams: Vec<Beam> = PROBE_BEAMS
        .into_iter()
        .map(|(azimuth_body_rad, range_m)| Beam {
            azimuth_body_rad,
            range_m,
            origin_body: Pose2::default(),
        })
        .collect();
    let mut batch = BeamBatch::from_beams(&beams);
    batch.partition_in_range(model.r_max());
    let particles: ParticleBuffer<S> = (0..n)
        .map(|i| Particle::from_pose(&probe_pose(i), 1.0 / n as f32))
        .collect();
    let mut scalar = vec![0.0f32; n];
    kernel::observation_log_likelihoods(particles.as_slice(), field, &model, &batch, &mut scalar);
    let mut avx2 = vec![f32::NAN; n];
    kernel::observation_log_likelihoods_with(
        KernelBackend::Avx2,
        particles.as_slice(),
        field,
        &model,
        &batch,
        &mut avx2,
    );
    for (i, (a, b)) in scalar.iter().zip(&avx2).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} n={n} log[{i}]");
    }
}

/// The `Avx2` observation kernel scores through each storage's gather
/// lookup. Every storage — fp32, fp16 and quantized, each passed directly
/// and as `Arc<D>` — must match the scalar kernel bit for bit, for `f32`
/// and binary16 particles and every tail length `n mod 8`, including end
/// points outside the map and on its last cell.
#[test]
fn avx2_observation_matches_scalar_on_every_storage_and_tail() {
    let map = odd_room();
    // Pose 0's azimuth-0 end point: x + 1·0.34 − 0·0, y + 0·0.34 + 1·0.
    let last = CellIndex::new(map.width() - 1, map.height() - 1);
    assert_eq!(map.world_to_cell(1.2f32 + 0.34, 1.53), Some(last));
    // The probe poses reach past every edge of the 1.55 m room by a margin
    // far above any rounding of the end-point arithmetic.
    let ends: Vec<(f32, f32)> = (1..2 * LANES)
        .map(probe_pose)
        .flat_map(|pose| {
            PROBE_BEAMS.map(|(azimuth, range)| {
                let heading = pose.theta + azimuth;
                (
                    pose.x + range * heading.cos(),
                    pose.y + range * heading.sin(),
                )
            })
        })
        .collect();
    assert!(
        ends.iter().any(|&(x, _)| x < -0.1),
        "no end point left of the map"
    );
    assert!(
        ends.iter().any(|&(_, y)| y < -0.1),
        "no end point below the map"
    );
    assert!(
        ends.iter().any(|&(x, _)| x > 1.65),
        "no end point beyond the width"
    );
    assert!(
        ends.iter().any(|&(_, y)| y > 1.65),
        "no end point beyond the height"
    );
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let half = edt.to_f16();
    let quantized = edt.quantize();
    let (edt_arc, half_arc, quantized_arc) = (
        Arc::new(edt.clone()),
        Arc::new(half.clone()),
        Arc::new(quantized.clone()),
    );
    for n in (2 * LANES)..(3 * LANES) {
        assert_avx2_observation_matches_scalar::<f32, _>(&edt, n, "fp32");
        assert_avx2_observation_matches_scalar::<f32, _>(&half, n, "fp16");
        assert_avx2_observation_matches_scalar::<f32, _>(&quantized, n, "quantized");
        assert_avx2_observation_matches_scalar::<f32, _>(&edt_arc, n, "Arc fp32");
        assert_avx2_observation_matches_scalar::<f32, _>(&half_arc, n, "Arc fp16");
        assert_avx2_observation_matches_scalar::<f32, _>(&quantized_arc, n, "Arc quantized");
        assert_avx2_observation_matches_scalar::<F16, _>(&edt, n, "F16 fp32");
        assert_avx2_observation_matches_scalar::<F16, _>(&half, n, "F16 fp16");
        assert_avx2_observation_matches_scalar::<F16, _>(&quantized, n, "F16 quantized");
        assert_avx2_observation_matches_scalar::<F16, _>(&edt_arc, n, "F16 Arc fp32");
        assert_avx2_observation_matches_scalar::<F16, _>(&half_arc, n, "F16 Arc fp16");
        assert_avx2_observation_matches_scalar::<F16, _>(&quantized_arc, n, "F16 Arc quantized");
    }
}

/// Runs a KLD-adaptive filter (uniform init + eight gated updates) under
/// `backend` and returns the final particle buffer, the estimate, the
/// per-update population trajectory and the number of tempered updates.
/// Like [`run_filter`], a non-empty `anchors` slice makes every update a
/// fused ToF + UWB batch.
#[allow(clippy::too_many_arguments)]
fn run_adaptive_filter(
    map: &OccupancyGrid,
    edt: &EuclideanDistanceField,
    beams: &[Beam],
    anchors: &[AnchorRange],
    n: usize,
    seed: u64,
    workers: usize,
    backend: KernelBackend,
) -> (
    ParticleBuffer<f32>,
    tof_mcl::core::PoseEstimate,
    Vec<usize>,
    u64,
) {
    let config = MclConfig::default()
        .with_particles(n)
        .with_seed(seed)
        .with_workers(workers)
        .with_kernel_backend(backend)
        .with_adaptive(AdaptiveConfig::enabled().with_population_range(64, 2 * n));
    let mut filter = MonteCarloLocalization::<f32, _>::new(config, edt.clone()).unwrap();
    filter.initialize_uniform(map, seed).unwrap();
    let delta = MotionDelta::new(0.12, 0.01, 0.05);
    let observations = ObservationBatch::from_beams(beams).with_anchors(anchors);
    let mut populations = Vec::new();
    for _ in 0..8 {
        filter.predict(delta);
        let outcome = filter.update_observations(&observations).unwrap();
        assert!(outcome.is_applied());
        populations.push(filter.particles().len());
    }
    let estimate = filter.estimate();
    (
        filter.particles().current().clone(),
        estimate,
        populations,
        filter.counters().updates_tempered,
    )
}

/// The adaptive (KLD + recovery-injection) filter *changes its population
/// mid-run*, which stresses the size-generalized resampling plan and the
/// dynamic scatter geometry. The backend contract must survive that: for
/// every worker layout, the `Lanes` and `Avx2` adaptive filters must stay
/// bit-identical to the `Scalar` one — same particles, same estimate, the
/// exact same population trajectory and the same tempered updates (the
/// tempering solve and the mode refinement run backend-specific bodies).
#[test]
fn adaptive_filters_are_bit_identical_across_backends_while_resizing() {
    let map = arena();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let mut tempered_runs = 0;
    for (seed, n) in [(5u64, 96usize), (17, 257), (41, 512)] {
        let beams = synthetic_beams(seed);
        for (workers, anchors) in [1usize, 3, 8]
            .into_iter()
            .flat_map(|w| [(w, Vec::new()), (w, synthetic_anchors(seed))])
        {
            let (scalar_particles, scalar_estimate, scalar_populations, scalar_tempered) =
                run_adaptive_filter(
                    &map,
                    &edt,
                    &beams,
                    &anchors,
                    n,
                    seed,
                    workers,
                    KernelBackend::Scalar,
                );
            // The beam-only run must actually exercise resizing, otherwise
            // this test degenerates into the fixed-size equivalence suite
            // above. (The fused legs keep whatever trajectory the anchors
            // induce — the contract under test is backend agreement.)
            assert!(
                !anchors.is_empty() || scalar_populations.iter().any(|&p| p != n),
                "seed={seed}: population never left {n}: {scalar_populations:?}"
            );
            for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
                let (particles, estimate, populations, tempered) =
                    run_adaptive_filter(&map, &edt, &beams, &anchors, n, seed, workers, backend);
                assert_eq!(
                    scalar_tempered,
                    tempered,
                    "{} tempered updates",
                    backend.name()
                );
                assert_eq!(
                    scalar_populations,
                    populations,
                    "{} workers={workers} seed={seed}: population trajectory diverged",
                    backend.name()
                );
                assert_buffers_bit_identical(
                    &scalar_particles,
                    &particles,
                    &format!("{} adaptive workers={workers} seed={seed}", backend.name()),
                );
                assert_eq!(scalar_estimate.pose.x.to_bits(), estimate.pose.x.to_bits());
                assert_eq!(scalar_estimate.pose.y.to_bits(), estimate.pose.y.to_bits());
                assert_eq!(
                    scalar_estimate.pose.theta.to_bits(),
                    estimate.pose.theta.to_bits()
                );
                assert_eq!(scalar_estimate.neff.to_bits(), estimate.neff.to_bits());
            }
            tempered_runs += usize::from(scalar_tempered > 0);
        }
    }
    assert!(
        tempered_runs > 0,
        "no run tempered, so the solve went unchecked"
    );
}

#[test]
fn ulp_distance_counts_code_steps() {
    assert_eq!(f16_ulp_distance(F16::ONE, F16::ONE), 0);
    assert_eq!(f16_ulp_distance(F16::ZERO, F16::from_bits(0x8000)), 0); // ±0
    assert_eq!(f16_ulp_distance(F16::ONE, F16::from_bits(0x3C01)), 1);
    assert_eq!(
        f16_ulp_distance(F16::from_bits(0x0001), F16::from_bits(0x8001)),
        2
    ); // smallest positive ↔ smallest negative subnormal straddle zero
    assert_eq!(f16_ulp_distance(F16::MAX, F16::INFINITY), 1);
}

/// The pose reduction's association, spelled out: 256-particle blocks; in
/// each, four lane accumulators over the whole quads (lane `l` takes the
/// block indices `≡ l (mod 4)`), merged as `l0 + l1 + l2 + l3`, then the
/// block's last `len mod 4` terms added serially; the block sums merged in
/// block order.
fn block_lane_sum(n: usize, term: impl Fn(usize) -> f64) -> f64 {
    let mut total = 0.0f64;
    for start in (0..n).step_by(256) {
        let end = (start + 256).min(n);
        let quads = start + (end - start) / 4 * 4;
        let mut lanes = [0.0f64; 4];
        for i in start..quads {
            lanes[(i - start) % 4] += term(i);
        }
        let mut block = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for i in quads..end {
            block += term(i);
        }
        total += block;
    }
    total
}

/// The estimate of `particles` with the per-particle weights `w`, straight
/// from the documented two passes in the [`block_lane_sum`] association.
fn reference_estimate<S: Scalar>(particles: &ParticleBuffer<S>, w: &[f64]) -> [u32; 6] {
    use tof_mcl::num::{angular_difference, math::sin_cos, normalize_angle};
    let n = particles.len();
    let x = |i: usize| particles.x()[i].to_f32();
    let y = |i: usize| particles.y()[i].to_f32();
    let theta = |i: usize| particles.theta()[i].to_f32();
    let sum_w = block_lane_sum(n, |i| w[i]);
    let sum_w_sq = block_lane_sum(n, |i| w[i] * w[i]);
    let sum_wx = block_lane_sum(n, |i| w[i] * f64::from(x(i)));
    let sum_wy = block_lane_sum(n, |i| w[i] * f64::from(y(i)));
    let sum_sin = block_lane_sum(n, |i| w[i] * f64::from(sin_cos(theta(i)).0));
    let sum_cos = block_lane_sum(n, |i| w[i] * f64::from(sin_cos(theta(i)).1));
    let mean_x = (sum_wx / sum_w) as f32;
    let mean_y = (sum_wy / sum_w) as f32;
    let norm = (sum_sin * sum_sin + sum_cos * sum_cos).sqrt();
    let mean_theta = normalize_angle(if sum_w <= 0.0 || norm < 1e-6 * sum_w {
        theta(0)
    } else {
        normalize_angle(sum_sin.atan2(sum_cos) as f32)
    });
    let var_pos = block_lane_sum(n, |i| {
        let dx = f64::from(x(i) - mean_x);
        let dy = f64::from(y(i) - mean_y);
        w[i] * (dx * dx + dy * dy)
    });
    let var_yaw = block_lane_sum(n, |i| {
        let dt = f64::from(angular_difference(theta(i), mean_theta));
        w[i] * dt * dt
    });
    let (position_std, yaw_std) = if sum_w <= 0.0 {
        (0.0, 0.0)
    } else {
        (
            (var_pos / sum_w).sqrt() as f32,
            (var_yaw / sum_w).sqrt() as f32,
        )
    };
    let neff = if sum_w_sq <= 0.0 {
        0.0
    } else {
        (sum_w * sum_w / sum_w_sq) as f32
    };
    [mean_x, mean_y, mean_theta, position_std, yaw_std, neff].map(canonical_bits)
}

/// The bits of `v`, with every NaN as the canonical `f32::NAN`: Rust leaves
/// the sign and payload of a NaN result unspecified (the compiler may swap
/// the operands of an addition), so only NaN-ness is comparable.
fn canonical_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Weight patterns of the association proptest.
const WEIGHT_KINDS: [&str; 5] = ["random", "all zero", "NaN", "negative", "+inf"];

/// `n` particles stored as `S`: positions over a few metres, yaws over
/// `[-7, 14)` rad (more than a turn from any mean, so the angular
/// difference leaves its fast path) with an occasional NaN, and weights of
/// pattern `WEIGHT_KINDS[kind]` — a random spread with every 7th weight
/// replaced by the pattern's special value (or every weight zero).
fn association_buffer<S: Scalar>(n: usize, seed: u64, kind: usize) -> ParticleBuffer<S> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let theta = if i % 97 == 5 {
                f32::NAN
            } else {
                rng.gen_range(-7.0f32..14.0)
            };
            let random = rng.gen_range(0.0f32..1.0) / n as f32;
            let weight = match (kind, i % 7 == 3) {
                (1, _) => 0.0,
                (2, true) => f32::NAN,
                (3, true) => -random,
                (4, true) => f32::INFINITY,
                _ => random,
            };
            Particle {
                x: S::from_f32(rng.gen_range(-1.0f32..5.0)),
                y: S::from_f32(rng.gen_range(-1.0f32..5.0)),
                theta: S::from_f32(theta),
                weight: S::from_f32(weight),
            }
        })
        .collect()
}

/// Checks every backend's estimate of an [`association_buffer`] against
/// [`reference_estimate`]: with the clamped weights (`w` when `w > 0`, else
/// 0), or with unit weights when those collapse. The all-zero pattern must
/// equal the reference fed unit weights.
fn check_pose_association<S: Scalar>(n: usize, seed: u64, kind: usize) {
    let particles: ParticleBuffer<S> = association_buffer(n, seed, kind);
    let clamped: Vec<f64> = particles
        .weight()
        .iter()
        .map(|w| {
            let w = w.to_f32();
            if w > 0.0 {
                f64::from(w)
            } else {
                0.0
            }
        })
        .collect();
    let unit = vec![1.0f64; n];
    let collapsed = block_lane_sum(n, |i| clamped[i]) <= f64::from(f32::MIN_POSITIVE);
    assert_eq!(collapsed, kind == 1, "only the all-zero pattern collapses");
    let expected = reference_estimate(&particles, if collapsed { &unit } else { &clamped });
    for backend in KernelBackend::ALL {
        for layout in layouts() {
            let e = kernel::pose_estimate_with(&particles, &layout, backend);
            let got = [
                e.pose.x,
                e.pose.y,
                e.pose.theta,
                e.position_std_m,
                e.yaw_std_rad,
                e.neff,
            ]
            .map(canonical_bits);
            assert_eq!(
                got,
                expected,
                "{backend:?}, {} workers, n {n}, {} weights",
                layout.workers(),
                WEIGHT_KINDS[kind]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every backend folds the pose reduction in the documented block and
    /// lane association, for every length up to past four blocks (so every
    /// tail length mod 4 and mod 256 occurs), at fp32 and fp16, on random,
    /// all-zero, NaN, negative and +∞ weights.
    #[test]
    fn pose_estimates_follow_the_block_lane_association_on_every_backend(
        n in 1usize..=1100,
        seed in 0u64..1_000_000,
        kind in 0usize..5,
    ) {
        check_pose_association::<f32>(n, seed, kind);
        check_pose_association::<F16>(n, seed, kind);
    }
}
