//! Golden-trace fixture: one fixed-seed corridor sequence with the per-step
//! pose estimates pinned as hex-encoded `f32` bit patterns.
//!
//! The determinism suites compare two live code paths against each other
//! (SoA vs AoS, pool vs serial, lanes vs scalar) — a numeric change that hits
//! *both* sides identically slips through all of them. This fixture is the
//! absolute anchor: any future kernel change that silently shifts the
//! filter's numerics (a re-associated sum, a "harmless" fused multiply-add, a
//! different rounding in the f16 converter) fails this test loudly, under
//! **every** kernel backend.
//!
//! The trace exercises every kernel: gated motion accumulation, the
//! branch-free partitioned correction (plus beams beyond `r_max` that take
//! the skip predicate), systematic resampling and the fixed-block pose
//! reduction, on a particle count (197) that is not a multiple of the lane
//! width or the reduction block.
//!
//! The filter's per-particle transcendentals — the Box–Muller `ln` and
//! `sin_cos` of the motion noise, the yaw `sin_cos` of the observation and
//! pose kernels, the reweighting `exp` — and the odometry accumulation in
//! `predict` run on the owned `mcl_num::math` functions, which are fixed IEEE
//! 754 op sequences and return the same bits on every host. The libm calls
//! that still sit on the pinned path are:
//!
//! * the simulated sensor inputs: `SensorRig::observe` (ray-casting `sin`/
//!   `cos`, the range-noise `ln`/`cos`, the zone-elevation `cos`),
//!   `BeamBatch::from_beams` (each beam's azimuth `sin_cos`) and this file's
//!   `trace_range` ripple (`sin`);
//! * the ground truth this file steps with `Pose2::compose` and converts
//!   with `MotionDelta::between` (`Pose2` `sin_cos`);
//! * the observation models' constant log-normalizers (`ln`, once per model);
//! * the circular mean in `PosePartials::mean` (`f64::atan2`, once per
//!   estimate).
//!
//! They are valid for the x86-64 Linux/glibc toolchain this repository
//! builds and tests on. If a *deliberate* numeric change (or a platform
//! change) moves the trace, verify the shift is intended and re-bless the
//! fixture:
//!
//! ```sh
//! MCL_BLESS=1 cargo test -q --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed tables over `GOLDEN_POSE_BITS` and
//! `GOLDEN_FUSED_POSE_BITS`.

use tof_mcl::core::kernel::KernelBackend;
use tof_mcl::core::{MclConfig, MonteCarloLocalization, MotionDelta};
use tof_mcl::gridmap::{EuclideanDistanceField, MapBuilder, Pose2};
use tof_mcl::sensor::{AnchorRange, ObservationBatch, SensorConfig, SensorRig};

use rand::SeedableRng;

/// `(x, y, theta)` estimate bits after each applied update, in step order.
const GOLDEN_POSE_BITS: [[u32; 3]; 8] = [
    [0x3F2A02AF, 0x3F240048, 0x3E0A92E8],
    [0x3F4DE946, 0x3F3A4272, 0x3E0CD8FE],
    [0x3F706BEB, 0x3F56D6C6, 0x3E420B51],
    [0x3F8A6263, 0x3F6460C2, 0x3E2CB30F],
    [0x3F99ADF0, 0x3F5BE860, 0x3E4AC4F3],
    [0x3FAD0F01, 0x3F46B38F, 0x3E5B2BB6],
    [0x3FBC3D44, 0x3F5274D3, 0x3E720CDC],
    [0x3FCB59D8, 0x3F58AA3B, 0x3E86132E],
];

/// `(x, y, theta)` estimate bits of the *fused* replay (same corridor, same
/// beams, plus three UWB anchors per step — one denied with a NaN range, so
/// the non-finite skip predicate is on the pinned path too).
const GOLDEN_FUSED_POSE_BITS: [[u32; 3]; 8] = [
    [0x3F284B5C, 0x3F125861, 0x3E044BBA],
    [0x3F4E19DF, 0x3F1D84B7, 0x3DE70741],
    [0x3F6EE321, 0x3F27DDE7, 0x3E24126D],
    [0x3F876D2D, 0x3F3C0AC9, 0x3E3B0D17],
    [0x3F98235F, 0x3F490311, 0x3E5A9F36],
    [0x3FA84C89, 0x3F420670, 0x3E77644A],
    [0x3FB8871F, 0x3F4A2A2F, 0x3E78A4DC],
    [0x3FC74008, 0x3F572DD0, 0x3E881009],
];

/// The fixed UWB anchors of the fused replay: two corridor corners plus one
/// permanently denied anchor (its measured range is always NaN).
const TRACE_ANCHORS: [[f32; 2]; 3] = [[0.2, 0.2], [3.8, 1.4], [2.0, 0.2]];

/// Deterministic measured range to `TRACE_ANCHORS[k]` from `truth`: true
/// distance plus a small step-indexed ripple (no RNG draws, so the beam
/// noise stream is untouched by the fused variant). Anchor 2 is denied.
fn trace_range(truth: &Pose2, k: usize, step: usize) -> f32 {
    if k == 2 {
        return f32::NAN;
    }
    let dx = truth.x - TRACE_ANCHORS[k][0];
    let dy = truth.y - TRACE_ANCHORS[k][1];
    let ripple = 0.04 * (step as f32 * 0.9 + k as f32).sin();
    (dx * dx + dy * dy).sqrt() + ripple
}

/// Replays the fixed corridor sequence under `backend` and returns the
/// per-step estimate bits. With `fused`, every update also scores the
/// [`TRACE_ANCHORS`] ranges through the anchor kernel; without it, every
/// update is a beam-only batch, which runs no anchor dispatch — pinning the
/// beam-only numerics bit for bit.
fn trace(backend: KernelBackend, fused: bool) -> Vec<[u32; 3]> {
    // A 4 m × 1.6 m corridor with a mid pillar: walls near enough that most
    // beams land within r_max, far corridor axis beams beyond it.
    let map = MapBuilder::new(4.0, 1.6, 0.05)
        .border_walls()
        .filled_rect((2.4, 0.6), (2.6, 1.0))
        .build();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let config = MclConfig::default()
        .with_particles(197)
        .with_seed(42)
        .with_workers(3)
        .with_kernel_backend(backend);
    let mut filter = MonteCarloLocalization::<f32, _>::new(config, edt).unwrap();
    let mut truth = Pose2::new(0.5, 0.6, 0.1);
    filter.initialize_gaussian(&truth, 0.15, 0.2, 7).unwrap();
    let rig = SensorRig::front_and_rear(
        SensorConfig::default()
            .with_range_noise(0.01)
            .with_interference_probability(0.0),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut bits = Vec::new();
    for step in 0..GOLDEN_POSE_BITS.len() {
        let next = truth.compose(&Pose2::new(0.13, 0.005, 0.03));
        let delta = MotionDelta::between(&truth, &next);
        truth = next;
        filter.predict(delta);
        let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
        let mut observations = ObservationBatch::from_beams(&beams);
        observations.partition_in_range(filter.config().r_max);
        if fused {
            for (k, [ax, ay]) in TRACE_ANCHORS.iter().enumerate() {
                observations.push_anchor(AnchorRange::new(*ax, *ay, trace_range(&truth, k, step)));
            }
        }
        let outcome = filter.update_observations(&observations).unwrap();
        let estimate = outcome.estimate().expect("0.13 m step opens the gate");
        bits.push([
            estimate.pose.x.to_bits(),
            estimate.pose.y.to_bits(),
            estimate.pose.theta.to_bits(),
        ]);
    }
    bits
}

fn check_trace(fused: bool, golden: &[[u32; 3]; 8]) {
    for backend in KernelBackend::ALL {
        let got = trace(backend, fused);
        if std::env::var("MCL_BLESS").is_ok_and(|v| !v.is_empty()) {
            println!(
                "// {} backend ({}):",
                backend.name(),
                if fused { "fused" } else { "beam-only" }
            );
            for step in &got {
                println!(
                    "    [0x{:08X}, 0x{:08X}, 0x{:08X}],",
                    step[0], step[1], step[2]
                );
            }
            continue;
        }
        for (step, (got, want)) in got.iter().zip(golden.iter()).enumerate() {
            assert_eq!(
                got,
                want,
                "{} backend drifted at step {step}: got [{:#010X}, {:#010X}, {:#010X}] \
                 = ({}, {}, {})",
                backend.name(),
                got[0],
                got[1],
                got[2],
                f32::from_bits(got[0]),
                f32::from_bits(got[1]),
                f32::from_bits(got[2]),
            );
        }
    }
}

#[test]
fn corridor_trace_matches_the_pinned_estimates_under_both_backends() {
    check_trace(false, &GOLDEN_POSE_BITS);
}

#[test]
fn fused_corridor_trace_matches_the_pinned_estimates_under_both_backends() {
    check_trace(true, &GOLDEN_FUSED_POSE_BITS);
}

#[test]
fn fused_trace_differs_from_the_beam_only_trace() {
    // The anchor kernel must actually perturb the weights: a fused batch
    // whose anchors silently score zero would leave the trace unchanged.
    assert_ne!(GOLDEN_FUSED_POSE_BITS[0], GOLDEN_POSE_BITS[0]);
}

#[test]
fn the_trace_tracks_the_corridor_truth() {
    // Sanity: the pinned trajectory is a *converged* tracking run, not frozen
    // garbage — the last pinned estimate sits near where the truth ends up
    // (start 0.5 + 8 steps of ~0.13 m forward motion).
    let last = GOLDEN_POSE_BITS[GOLDEN_POSE_BITS.len() - 1];
    let (x, y) = (f32::from_bits(last[0]), f32::from_bits(last[1]));
    assert!((1.0..2.2).contains(&x), "final x {x}");
    assert!((0.4..1.2).contains(&y), "final y {y}");
}
