//! Property-based tests (proptest) on the core data structures and invariants.
//!
//! These complement the unit tests with randomized coverage of the numeric
//! primitives (binary16, quantization, angles), the geometry, the resampling
//! schemes, the distance transform and the memory accounting.

use proptest::prelude::*;
use tof_mcl::core::precision::MemoryFootprint;
use tof_mcl::core::{
    systematic_resample, BeamEndPointModel, MclConfig, MonteCarloLocalization, MotionDelta,
    MotionModel, PartialSumResampler, Particle, ParticleSet,
};
use tof_mcl::gridmap::{
    CellIndex, CellState, DistanceField, EuclideanDistanceField, MapBuilder, OccupancyGrid, Point2,
    Pose2,
};
use tof_mcl::num::math::{exp, sin_cos};
use tof_mcl::num::{angular_difference, normalize_angle, Quantizer, F16};
use tof_mcl::sensor::{raycast_distance, Beam, ObservationBatch};

/// Independent restatement of the batched beam-end-point log-likelihood
/// (Eq. 1 with the beam end point resolved in the body frame and rotated by
/// the particle yaw — the op order `BeamBatch` + `batch_log_likelihood`
/// promise). Deliberately reimplemented from `&[Beam]` without touching
/// `BeamBatch`, so a regression in the library's batch path cannot hide on
/// both sides of the bit-identity assertion.
fn reference_batch_log_likelihood(
    field: &EuclideanDistanceField,
    x: f32,
    y: f32,
    theta: f32,
    beams: &[Beam],
    sigma_obs: f32,
    r_max: f32,
) -> f32 {
    let log_normalizer = -(core::f32::consts::TAU.sqrt() * sigma_obs).ln();
    // The particle yaw goes through the owned sin_cos, like the kernels; the
    // beam azimuth below is simulation input and stays on libm, exactly as in
    // `BeamBatch::from_beams`.
    let (sin_t, cos_t) = sin_cos(theta);
    let mut log_sum = 0.0f32;
    let mut used = 0usize;
    for beam in beams {
        if beam.range_m >= r_max {
            continue;
        }
        let (sin_az, cos_az) = beam.azimuth_body_rad.sin_cos();
        let bx = beam.origin_body.x + cos_az * beam.range_m;
        let by = beam.origin_body.y + sin_az * beam.range_m;
        let ex = x + cos_t * bx - sin_t * by;
        let ey = y + sin_t * bx + cos_t * by;
        let edt = field.distance_at_world(ex, ey).min(r_max);
        log_sum += log_normalizer - (edt * edt) / (2.0 * sigma_obs * sigma_obs);
        used += 1;
    }
    if used == 0 {
        return 0.0;
    }
    log_sum
}

/// One full MCL iteration on array-of-structs storage, sequentially, with the
/// seed repository's per-particle algorithm (the observation term restated by
/// [`reference_batch_log_likelihood`], since the batch path hoists the beam
/// trigonometry by design): the reference the SoA + kernel filter must
/// reproduce bit for bit (see `soa_filter_is_bit_identical_…` below).
#[allow(clippy::too_many_arguments)] // mirrors the filter's full per-update state
fn reference_aos_iteration(
    particles: &mut [Particle<f32>],
    motion: &MotionModel,
    observation: &BeamEndPointModel,
    field: &EuclideanDistanceField,
    beams: &[Beam],
    delta: &MotionDelta,
    seed: u64,
    update_index: u64,
) {
    // 1. Prediction: one counter-RNG stream per (seed, update, particle).
    for (i, p) in particles.iter_mut().enumerate() {
        *p = motion.sample(p, delta, seed, update_index, i as u64);
    }
    // 2. Correction: batched beam-end-point log-likelihoods, rescaled by the
    // set-wide maximum before exponentiation.
    let logs: Vec<f32> = particles
        .iter()
        .map(|p| {
            reference_batch_log_likelihood(
                field,
                p.x,
                p.y,
                p.theta,
                beams,
                observation.sigma_obs(),
                observation.r_max(),
            )
        })
        .collect();
    let max_log = logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    for (p, &log_lik) in particles.iter_mut().zip(logs.iter()) {
        p.weight *= exp(log_lik - max_log);
    }
    // 3. Normalization (sequential f32 sum, like ParticleSet::normalize_weights)
    // and systematic resampling with the per-update wheel offset.
    let sum: f32 = particles.iter().map(|p| p.weight).sum();
    if sum <= f32::MIN_POSITIVE {
        let uniform = 1.0 / particles.len().max(1) as f32;
        for p in particles.iter_mut() {
            p.weight = uniform;
        }
    } else {
        for p in particles.iter_mut() {
            p.weight /= sum;
        }
    }
    let mut offset_rng = tof_mcl::core::rng::CounterRng::for_update(seed, update_index);
    let offset = offset_rng.uniform();
    let weights: Vec<f32> = particles.iter().map(|p| p.weight).collect();
    let picks = systematic_resample(&weights, offset);
    let previous = particles.to_vec();
    let uniform = 1.0 / particles.len() as f32;
    for (slot, &src) in picks.iter().enumerate() {
        particles[slot] = previous[src];
        particles[slot].weight = uniform;
    }
}

/// Deterministic synthetic observation: a ring of beams, some beyond the
/// model's `r_max` truncation so the in-range partition is exercised.
fn synthetic_beams(case_seed: u64) -> Vec<Beam> {
    (0..12)
        .map(|k| Beam {
            azimuth_body_rad: k as f32 * core::f32::consts::TAU / 12.0,
            range_m: 0.3 + 0.12 * ((k as u64 + case_seed) % 13) as f32,
            origin_body: Pose2::default(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// binary16 round-trips within the documented relative error bound for all
    /// values in the normal range.
    #[test]
    fn f16_roundtrip_error_is_bounded(value in 7e-5f32..60000.0) {
        let roundtrip = F16::from_f32(value).to_f32();
        let rel = (roundtrip - value).abs() / value;
        prop_assert!(rel <= F16::RELATIVE_ERROR_BOUND, "rel error {rel} at {value}");
    }

    /// Negating a binary16 value only flips its sign.
    #[test]
    fn f16_negation_is_exact(value in -60000.0f32..60000.0) {
        let x = F16::from_f32(value);
        prop_assert_eq!((-x).to_f32(), -x.to_f32());
    }

    /// Quantization reconstructs within half a step for in-range values.
    #[test]
    fn quantizer_roundtrip_is_within_half_step(
        max in 0.1f32..10.0,
        frac in 0.0f32..1.0,
    ) {
        let q = Quantizer::new(max).unwrap();
        let value = frac * max;
        let rec = q.dequantize(q.quantize(value));
        prop_assert!((rec - value).abs() <= q.max_error() + 1e-5);
    }

    /// Angle normalization always lands in [0, 2π) and preserves the direction.
    #[test]
    fn normalized_angles_are_canonical(angle in -100.0f32..100.0) {
        let n = normalize_angle(angle);
        prop_assert!((0.0..std::f32::consts::TAU).contains(&n));
        prop_assert!(angular_difference(n, angle).abs() < 1e-3);
    }

    /// The angular difference is the shortest signed rotation.
    #[test]
    fn angular_difference_is_bounded_by_pi(a in -10.0f32..10.0, b in -10.0f32..10.0) {
        let d = angular_difference(a, b);
        prop_assert!(d > -std::f32::consts::PI - 1e-5);
        prop_assert!(d <= std::f32::consts::PI + 1e-5);
        // Rotating b by d reaches a (mod 2π).
        prop_assert!(angular_difference(a, b + d).abs() < 1e-3);
    }

    /// Composing a pose with a local pose and expressing the result relative to
    /// the original recovers the local pose.
    #[test]
    fn pose_compose_relative_roundtrip(
        x in -10.0f32..10.0, y in -10.0f32..10.0, t in -7.0f32..7.0,
        lx in -2.0f32..2.0, ly in -2.0f32..2.0, lt in -3.0f32..3.0,
    ) {
        let parent = Pose2::new(x, y, t);
        let local = Pose2::new(lx, ly, lt);
        let world = parent.compose(&local);
        let back = parent.relative_to(&world);
        prop_assert!((back.x - local.x).abs() < 1e-3);
        prop_assert!((back.y - local.y).abs() < 1e-3);
        prop_assert!(angular_difference(back.theta, local.theta).abs() < 1e-3);
    }

    /// Systematic resampling returns one valid, non-decreasing source index per
    /// slot, and a particle holding half the weight receives about half the slots.
    #[test]
    fn systematic_resampling_invariants(
        weights in prop::collection::vec(0.0f32..1.0, 2..300),
        offset in 0.0f32..0.999,
        heavy in any::<prop::sample::Index>(),
    ) {
        let mut weights = weights;
        let heavy = heavy.index(weights.len());
        let others: f32 = weights.iter().enumerate()
            .filter(|(i, _)| *i != heavy)
            .map(|(_, w)| *w)
            .sum();
        weights[heavy] = others.max(0.01); // the heavy particle holds ~half the mass
        let picks = systematic_resample(&weights, offset);
        prop_assert_eq!(picks.len(), weights.len());
        prop_assert!(picks.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(picks.iter().all(|&i| i < weights.len()));
        let copies = picks.iter().filter(|&&i| i == heavy).count();
        let expected = weights.len() as f32 * weights[heavy]
            / (weights[heavy] + others.max(0.0));
        prop_assert!((copies as f32 - expected).abs() <= 1.0 + 1e-3);
    }

    /// The per-chunk partial-sum decomposition selects exactly the same particles
    /// as the sequential wheel, for any worker count.
    #[test]
    fn partial_sum_resampler_matches_sequential(
        weights in prop::collection::vec(1e-6f32..1.0, 2..400),
        offset in 0.0f32..0.999,
        workers in 1usize..12,
    ) {
        let sequential = systematic_resample(&weights, offset);
        let plan = PartialSumResampler::new(workers).plan(&weights, offset);
        prop_assert_eq!(&plan.indices, &sequential);
        prop_assert_eq!(plan.per_worker_draws().iter().sum::<usize>(), weights.len());
    }

    /// The fast EDT equals the brute-force distance (truncated) on random maps.
    #[test]
    fn edt_matches_brute_force(
        occupied in prop::collection::vec((0usize..20, 0usize..15), 1..25),
    ) {
        let mut map = OccupancyGrid::new(1.0, 0.75, 0.05).unwrap();
        for (col, row) in &occupied {
            map.set(CellIndex::new(*col, *row), CellState::Occupied).unwrap();
        }
        let rmax = 1.5f32;
        let edt = EuclideanDistanceField::compute(&map, rmax);
        for idx in map.indices() {
            let brute = occupied.iter().map(|(c, r)| {
                let dc = idx.col as f32 - *c as f32;
                let dr = idx.row as f32 - *r as f32;
                (dc * dc + dr * dr).sqrt() * 0.05
            }).fold(rmax, f32::min);
            prop_assert!((edt.distance_at(idx) - brute).abs() < 1e-3);
        }
    }

    /// Quantizing a distance field never changes a value by more than the
    /// quantization error, and out-of-range lookups return rmax.
    #[test]
    fn quantized_edt_stays_close(seed in 0u64..50) {
        let maze = tof_mcl::gridmap::DroneMaze::generate(tof_mcl::gridmap::MazeConfig {
            width_m: 2.0,
            height_m: 2.0,
            seed,
            ..Default::default()
        });
        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let quantized = edt.quantize();
        for idx in maze.map().indices().step_by(7) {
            let err = (edt.distance_at(idx) - quantized.distance_at(idx)).abs();
            prop_assert!(err <= quantized.quantization_error() + 1e-6);
        }
        prop_assert_eq!(quantized.distance_at(CellIndex::new(9999, 0)), 1.5);
    }

    /// Ray casting never reports more than the requested range and, in a closed
    /// room, always hits an occupied cell within the diagonal.
    #[test]
    fn raycast_respects_range_and_geometry(
        x in 0.3f32..3.7, y in 0.3f32..3.7, angle in 0.0f32..std::f32::consts::TAU, range in 0.2f32..6.0,
    ) {
        let map = tof_mcl::gridmap::MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let d = raycast_distance(&map, Point2::new(x, y), angle, range);
        prop_assert!(d <= range + 1e-6);
        // With an unbounded range the border is always hit within the diagonal.
        let d_full = raycast_distance(&map, Point2::new(x, y), angle, 20.0);
        prop_assert!(d_full <= (32.0f32).sqrt() + 0.1);
    }

    /// Memory accounting: whatever `max_particles` returns actually fits in the
    /// budget, and one more particle does not.
    #[test]
    fn memory_footprint_max_particles_is_tight(
        budget in 10_000usize..2_000_000,
        cells in 100usize..50_000,
        optimized in any::<bool>(),
    ) {
        let footprint = if optimized {
            MemoryFootprint::optimized()
        } else {
            MemoryFootprint::full_precision()
        };
        match footprint.max_particles(budget, cells) {
            Some(n) => {
                prop_assert!(footprint.total_bytes(n, cells) <= budget);
                prop_assert!(footprint.total_bytes(n + 1, cells) > budget);
            }
            None => prop_assert!(footprint.map_bytes(cells) > budget),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SoA + kernel filter is bit-identical to the sequential
    /// array-of-structs reference (`reference_aos_iteration`, the seed
    /// repository's per-particle algorithm) for every seed, particle count and
    /// `ClusterLayout` worker count — and the pose estimates agree bit for bit
    /// across worker counts, which is the determinism `parallel.rs` promises.
    #[test]
    fn soa_filter_is_bit_identical_to_the_aos_reference(
        seed in 0u64..500,
        n in 16usize..180,
    ) {
        let map = MapBuilder::new(3.0, 3.0, 0.05)
            .border_walls()
            .wall((1.5, 0.0), (1.5, 1.8))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let beams = synthetic_beams(seed);
        // Gate-passing odometry increment (translation 0.12 ≥ d_xy = 0.1).
        let delta = MotionDelta::new(0.12, 0.01, 0.06);

        // Reference: AoS storage, sequential execution, seed per-particle math.
        let motion = MotionModel::new(MclConfig::default().sigma_odom);
        let observation = BeamEndPointModel::new(
            MclConfig::default().sigma_obs,
            MclConfig::default().r_max,
        );
        let mut init = ParticleSet::<f32>::with_capacity(n).unwrap();
        init.initialize_uniform(n, &map, seed).unwrap();
        let mut reference = init.to_particles();
        for update in 1..=3u64 {
            reference_aos_iteration(
                &mut reference, &motion, &observation, &edt, &beams, &delta, seed, update,
            );
        }

        // The SoA filter on three layouts: sequential, uneven (3), GAP9 (8).
        let mut estimates = Vec::new();
        for workers in [1usize, 3, 8] {
            let config = MclConfig::default()
                .with_particles(n)
                .with_seed(seed)
                .with_workers(workers);
            let mut filter =
                MonteCarloLocalization::<f32, _>::new(config, edt.clone()).unwrap();
            filter.initialize_uniform(&map, seed).unwrap();
            for _ in 0..3 {
                filter.predict(delta);
                let obs = ObservationBatch::from_beams(&beams);
                let outcome = filter.update_observations(&obs).unwrap();
                prop_assert!(outcome.is_applied());
            }
            prop_assert_eq!(
                filter.particles().to_particles(),
                reference.clone(),
                "workers={} diverged from the AoS reference", workers
            );
            estimates.push(filter.estimate());
        }
        for estimate in &estimates[1..] {
            prop_assert_eq!(
                estimates[0].pose.x.to_bits(), estimate.pose.x.to_bits(),
                "estimate x differs across worker counts"
            );
            prop_assert_eq!(estimates[0].pose.y.to_bits(), estimate.pose.y.to_bits());
            prop_assert_eq!(
                estimates[0].pose.theta.to_bits(), estimate.pose.theta.to_bits()
            );
            prop_assert_eq!(
                estimates[0].position_std_m.to_bits(), estimate.position_std_m.to_bits()
            );
            prop_assert_eq!(estimates[0].neff.to_bits(), estimate.neff.to_bits());
        }
    }
}
