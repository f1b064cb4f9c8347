//! Determinism harness for the persistent worker pool.
//!
//! The `ClusterLayout` dispatch entry points moved from per-dispatch scoped
//! threads onto the shared persistent `mcl_core::pool::WorkerPool`. This suite
//! proves the move unobservable in the results:
//!
//! * filter particles **and** pose estimates are bit-identical across
//!   `ClusterLayout::{SINGLE, new(3), GAP9}` (plus the `MCL_TEST_WORKERS`
//!   layout the CI matrix injects) when running on the pool;
//! * every pooled dispatch entry point produces outputs bit-identical to the
//!   serial reference — the same work run inline over the same chunks — on
//!   the same inputs;
//! * repeated dispatches on one warm pool leave no state behind — replaying
//!   the same run yields the same bits, update after update.
//!
//! The CI workflow runs `cargo test -q` with `MCL_TEST_WORKERS` ∈ {1, 3, 8},
//! which sizes the shared pool itself (see `mcl_core::pool::shared`), so these
//! properties are exercised with real 1-, 3- and 8-thread pools regardless of
//! the runner's core count.

use proptest::prelude::*;
use tof_mcl::core::kernel::{self, PosePartials, POSE_REDUCTION_BLOCK};
use tof_mcl::core::{
    pool, AdaptiveConfig, ClusterLayout, MclConfig, MonteCarloLocalization, MotionDelta,
    MotionModel, Particle, ParticleBuffer, PoseEstimate,
};
use tof_mcl::gridmap::{EuclideanDistanceField, MapBuilder, OccupancyGrid, Pose2};
use tof_mcl::sensor::{Beam, ObservationBatch};

/// The worker count the CI matrix injects, if any.
fn env_workers() -> Option<usize> {
    std::env::var("MCL_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The layouts every determinism property is checked across: sequential, an
/// uneven three-worker split, the GAP9 cluster shape, and whatever the CI
/// matrix asked for.
fn layouts() -> Vec<ClusterLayout> {
    let mut workers = vec![1usize, 3, 8];
    if let Some(n) = env_workers() {
        if !workers.contains(&n) {
            workers.push(n);
        }
    }
    workers.into_iter().map(ClusterLayout::new).collect()
}

fn arena() -> OccupancyGrid {
    MapBuilder::new(3.0, 3.0, 0.05)
        .border_walls()
        .wall((1.5, 0.0), (1.5, 1.8))
        .build()
}

/// Deterministic synthetic observation: a ring of beams, some beyond the
/// default `r_max` truncation so the in-range partition is non-trivial.
fn synthetic_beams(case_seed: u64) -> Vec<Beam> {
    (0..12)
        .map(|k| Beam {
            azimuth_body_rad: k as f32 * core::f32::consts::TAU / 12.0,
            range_m: 0.3 + 0.12 * ((k as u64 + case_seed) % 13) as f32,
            origin_body: Pose2::default(),
        })
        .collect()
}

/// Runs one filter (given layout worker count) for `updates` gated updates and
/// returns the final particles plus the estimate.
fn run_filter(
    map: &OccupancyGrid,
    edt: &EuclideanDistanceField,
    beams: &[Beam],
    workers: usize,
    n: usize,
    seed: u64,
    updates: usize,
) -> (Vec<Particle<f32>>, PoseEstimate) {
    let config = MclConfig::default()
        .with_particles(n)
        .with_seed(seed)
        .with_workers(workers);
    let mut filter = MonteCarloLocalization::<f32, _>::new(config, edt.clone()).unwrap();
    filter.initialize_uniform(map, seed).unwrap();
    let delta = MotionDelta::new(0.12, 0.01, 0.06);
    let observations = ObservationBatch::from_beams(beams);
    for _ in 0..updates {
        filter.predict(delta);
        let outcome = filter.update_observations(&observations).unwrap();
        assert!(outcome.is_applied(), "gate must be open every update");
    }
    (filter.particles().to_particles(), filter.estimate())
}

fn assert_estimates_bit_equal(a: &PoseEstimate, b: &PoseEstimate, context: &str) {
    assert_eq!(a.pose.x.to_bits(), b.pose.x.to_bits(), "{context}: x");
    assert_eq!(a.pose.y.to_bits(), b.pose.y.to_bits(), "{context}: y");
    assert_eq!(
        a.pose.theta.to_bits(),
        b.pose.theta.to_bits(),
        "{context}: theta"
    );
    assert_eq!(
        a.position_std_m.to_bits(),
        b.position_std_m.to_bits(),
        "{context}: position_std"
    );
    assert_eq!(
        a.yaw_std_rad.to_bits(),
        b.yaw_std_rad.to_bits(),
        "{context}: yaw_std"
    );
    assert_eq!(a.neff.to_bits(), b.neff.to_bits(), "{context}: neff");
}

fn particles(n: usize) -> ParticleBuffer<f32> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Particles and pose estimates are bit-identical across worker layouts on
    /// the pool, and across repeated runs on the same warm pool (no state
    /// leaks from one dispatch into the next).
    #[test]
    fn pooled_filter_is_bit_identical_across_layouts_and_reruns(
        seed in 0u64..300,
        n in 16usize..160,
    ) {
        let map = arena();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let beams = synthetic_beams(seed);
        let mut reference: Option<(Vec<Particle<f32>>, PoseEstimate)> = None;
        for layout in layouts() {
            let workers = layout.workers();
            // Two identical runs back to back: by the time the second one
            // dispatches, the pool is warm from the first — any cross-update
            // or cross-run state leakage would show up as diverging bits.
            let first = run_filter(&map, &edt, &beams, workers, n, seed, 3);
            let second = run_filter(&map, &edt, &beams, workers, n, seed, 3);
            prop_assert_eq!(
                &first.0, &second.0,
                "workers={} rerun diverged", workers
            );
            assert_estimates_bit_equal(
                &first.1,
                &second.1,
                &format!("workers={workers} rerun"),
            );
            match &reference {
                None => reference = Some(first),
                Some((particles, estimate)) => {
                    prop_assert_eq!(
                        particles, &first.0,
                        "workers={} diverged from the single-worker particles", workers
                    );
                    assert_estimates_bit_equal(
                        estimate,
                        &first.1,
                        &format!("workers={workers} vs single"),
                    );
                }
            }
        }
    }

    /// The motion kernel dispatched on the pool matches one serial kernel
    /// call over the whole buffer bit for bit, for every layout.
    #[test]
    fn pooled_motion_kernel_matches_the_serial_reference(
        seed in 0u64..500,
        n in 1usize..400,
    ) {
        let model = MotionModel::new([0.05, 0.05, 0.02]);
        let delta = MotionDelta::new(0.1, 0.02, 0.05);
        for layout in layouts() {
            let mut pooled = particles(n);
            layout.for_each_split(pooled.as_mut_slice(), |start, chunk| {
                kernel::motion_predict(chunk, &model, &delta, seed, 2, start as u64);
            });
            let mut serial = particles(n);
            kernel::motion_predict(serial.as_mut_slice(), &model, &delta, seed, 2, 0);
            prop_assert_eq!(
                pooled.to_particles(),
                serial.to_particles(),
                "workers={}", layout.workers()
            );
        }
    }

    /// Every dispatch entry point agrees with its serial reference on random
    /// data: mutation (`for_each_split`), per-chunk results (`map_split`),
    /// fixed-block reduction (`map_index_blocks`) and plan-shaped ranges
    /// (`for_each_range` via `scatter_resample`).
    #[test]
    fn every_entry_point_matches_the_serial_reference(
        values in prop::collection::vec(0u64..u64::MAX, 1..300),
        range_sizes in prop::collection::vec(0usize..40, 1..12),
    ) {
        for layout in layouts() {
            // for_each_split: index-keyed mutation.
            let mutate = |start: usize, slice: &mut [u64]| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v = v.wrapping_mul(6364136223846793005)
                        .wrapping_add((start + i) as u64);
                }
            };
            let mut pooled = values.clone();
            layout.for_each_split(pooled.as_mut_slice(), mutate);
            let mut serial = values.clone();
            mutate(0, serial.as_mut_slice());
            prop_assert_eq!(&pooled, &serial);

            // map_split: per-chunk f64 sums, order-sensitive fold.
            let sum = |_: usize, chunk: &[u64]| {
                chunk.iter().map(|&v| (v % 1024) as f64).sum::<f64>()
            };
            let a = layout.map_split(values.as_slice(), sum);
            let b: Vec<f64> = layout
                .chunks(values.len())
                .map(|(s, e)| sum(s, &values[s..e]))
                .collect();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // map_index_blocks: fixed-block partial reduction.
            let reduce = |s: usize, e: usize| {
                values[s..e].iter().map(|&v| (v % 4096) as f64).sum::<f64>()
            };
            let a = layout.map_index_blocks(values.len(), 32, reduce);
            let b = ClusterLayout::SINGLE.map_index_blocks(values.len(), 32, reduce);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        // for_each_range / scatter_resample on a random tiling (zero-length
        // ranges included).
        let mut ranges = Vec::with_capacity(range_sizes.len());
        let mut total = 0usize;
        for &size in &range_sizes {
            ranges.push((total, total + size));
            total += size;
        }
        let source: Vec<u64> = (0..total as u64).map(|i| i * 31).collect();
        let indices: Vec<usize> = (0..total).map(|i| (i * 13) % total.max(1)).collect();
        for layout in layouts() {
            let mut pooled = vec![0u64; total];
            layout.scatter_resample(&source, &mut pooled, &indices, &ranges);
            let serial: Vec<u64> = indices.iter().map(|&i| source[i]).collect();
            prop_assert_eq!(&pooled, &serial, "workers={}", layout.workers());
        }
    }
}

/// The pose-reduction kernel keeps returning the same bits over many repeated
/// dispatches on the warm shared pool — the "no cross-dispatch state" check at
/// kernel granularity.
#[test]
fn repeated_pose_reductions_on_the_warm_pool_are_stable() {
    let buffer = particles(3000);
    let view = buffer.as_slice();
    let slice_of = |start: usize, end: usize| {
        let (_, tail) = view.split_at(start);
        let (mid, _) = tail.split_at(end - start);
        mid
    };
    for layout in layouts() {
        let reference = kernel::pose_estimate(&buffer, &layout);
        for round in 0..20 {
            let again = kernel::pose_estimate(&buffer, &layout);
            assert_estimates_bit_equal(
                &reference,
                &again,
                &format!("workers={} round={round}", layout.workers()),
            );
        }
        // The partials behind the estimate are block-order stable too.
        let partials = layout.map_index_blocks(buffer.len(), POSE_REDUCTION_BLOCK, |start, end| {
            PosePartials::accumulate(slice_of(start, end))
        });
        assert_eq!(partials.len(), buffer.len().div_ceil(POSE_REDUCTION_BLOCK));
    }
}

/// Runs one KLD-adaptive filter and returns the final particles, the
/// estimate and the per-update population trajectory.
fn run_adaptive_filter(
    map: &OccupancyGrid,
    edt: &EuclideanDistanceField,
    beams: &[Beam],
    workers: usize,
    n: usize,
    seed: u64,
) -> (Vec<Particle<f32>>, PoseEstimate, Vec<usize>) {
    let config = MclConfig::default()
        .with_particles(n)
        .with_seed(seed)
        .with_workers(workers)
        .with_adaptive(AdaptiveConfig::enabled().with_population_range(48, 2 * n));
    let mut filter = MonteCarloLocalization::<f32, _>::new(config, edt.clone()).unwrap();
    filter.initialize_uniform(map, seed).unwrap();
    let delta = MotionDelta::new(0.12, 0.01, 0.06);
    let observations = ObservationBatch::from_beams(beams);
    let mut populations = Vec::new();
    for _ in 0..6 {
        filter.predict(delta);
        let outcome = filter.update_observations(&observations).unwrap();
        assert!(outcome.is_applied(), "gate must be open every update");
        populations.push(filter.particles().len());
    }
    (
        filter.particles().to_particles(),
        filter.estimate(),
        populations,
    )
}

/// The adaptive filter re-sizes its particle buffers mid-run, so every update
/// dispatches a *different* plan geometry onto the warm pool. Particles,
/// estimates and the population trajectory itself must stay bit-identical
/// across worker layouts and across reruns on the same warm pool.
#[test]
fn adaptive_filter_is_bit_identical_across_layouts_and_warm_pool_reruns() {
    let map = arena();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    for (seed, n) in [(9u64, 128usize), (33, 300)] {
        let beams = synthetic_beams(seed);
        let mut reference: Option<(Vec<Particle<f32>>, PoseEstimate, Vec<usize>)> = None;
        for layout in layouts() {
            let workers = layout.workers();
            let first = run_adaptive_filter(&map, &edt, &beams, workers, n, seed);
            // The run must actually change size, or this collapses into the
            // fixed-size property above.
            assert!(
                first.2.iter().any(|&p| p != n),
                "seed={seed}: population never left {n}: {:?}",
                first.2
            );
            // Second run on the now-warm pool: no cross-run state may leak
            // through the size-changing dispatches.
            let second = run_adaptive_filter(&map, &edt, &beams, workers, n, seed);
            assert_eq!(first.0, second.0, "workers={workers} rerun diverged");
            assert_eq!(
                first.2, second.2,
                "workers={workers} rerun population trajectory diverged"
            );
            assert_estimates_bit_equal(
                &first.1,
                &second.1,
                &format!("adaptive workers={workers} rerun"),
            );
            match &reference {
                None => reference = Some(first),
                Some((particles, estimate, populations)) => {
                    assert_eq!(
                        populations, &first.2,
                        "workers={workers} population trajectory diverged from single-worker"
                    );
                    assert_eq!(
                        particles, &first.0,
                        "workers={workers} diverged from the single-worker particles"
                    );
                    assert_estimates_bit_equal(
                        estimate,
                        &first.1,
                        &format!("adaptive workers={workers} vs single"),
                    );
                }
            }
        }
    }
}

/// The shared pool is sized by `MCL_TEST_WORKERS` when the CI matrix sets it.
#[test]
fn shared_pool_honors_the_test_workers_override() {
    match env_workers() {
        Some(n) => assert_eq!(pool::shared().workers(), n.min(64)),
        None => assert!(pool::shared().workers() >= 1),
    }
}
