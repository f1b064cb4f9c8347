//! Beam-end-point observation model (the correction step).
//!
//! For a particle pose `x_t` and a beam measurement `z_t^k`, the beam end point
//! `ẑ_t^k` is where the measured range lands in the map when shot from the
//! hypothesised pose. The paper scores it with Eq. 1:
//!
//! ```text
//! p(z_t^k | x_t, m) = 1/√(2π σ_obs²) · exp( − EDT(ẑ_t^k)² / (2 σ_obs²) )
//! ```
//!
//! where `EDT` is the precomputed Euclidean distance transform truncated at
//! `r_max`. If the hypothesis is right, end points land on obstacles (EDT ≈ 0)
//! and the particle keeps a high weight; wrong hypotheses scatter end points into
//! open space (EDT → r_max) and are down-weighted. Beams flagged invalid by the
//! sensor never reach this model ([`mcl_sensor::ToFFrame::to_beams`] drops them),
//! and measured ranges at or beyond `r_max` (or NaN) are not scored, matching
//! the truncated field: the per-beam reference skips them, and the batched
//! scorers read only the in-range prefix of a
//! [partitioned](mcl_sensor::BeamBatch::partition_in_range) batch.

use crate::particle::Particle;
use mcl_gridmap::DistanceField;
use mcl_num::Scalar;
use mcl_sensor::{Beam, ObservationBatch};

/// The beam-end-point likelihood model of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamEndPointModel {
    sigma_obs: f32,
    r_max: f32,
    log_normalizer: f32,
}

impl BeamEndPointModel {
    /// Creates the model with the paper's `σ_obs` and `r_max` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_obs` or `r_max` is not positive and finite; these are
    /// static configuration values.
    pub fn new(sigma_obs: f32, r_max: f32) -> Self {
        assert!(
            sigma_obs.is_finite() && sigma_obs > 0.0,
            "sigma_obs must be positive"
        );
        assert!(r_max.is_finite() && r_max > 0.0, "r_max must be positive");
        BeamEndPointModel {
            sigma_obs,
            r_max,
            log_normalizer: -(core::f32::consts::TAU.sqrt() * sigma_obs).ln(),
        }
    }

    /// The observation standard deviation.
    pub fn sigma_obs(&self) -> f32 {
        self.sigma_obs
    }

    /// The range truncation.
    pub fn r_max(&self) -> f32 {
        self.r_max
    }

    /// The precomputed `−ln(√(2π) σ_obs)` term of Eq. 1, shared with the
    /// explicit-SIMD scorer so both paths use the identical constant.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn log_normalizer(&self) -> f32 {
        self.log_normalizer
    }

    /// Log-likelihood of a single beam for a particle at `pose`.
    ///
    /// Returns `None` when the beam is skipped — a beam is scored only when
    /// its measured range is strictly below `r_max` (so a NaN range is
    /// skipped too, matching the predicate of
    /// [`mcl_sensor::BeamBatch::partition_in_range`]).
    pub fn beam_log_likelihood<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        pose: &mcl_gridmap::Pose2,
        beam: &Beam,
    ) -> Option<f32> {
        if beam.range_m.is_nan() || beam.range_m >= self.r_max {
            return None;
        }
        let end = beam.end_point(pose);
        let edt = field.distance_at_world(end.x, end.y).min(self.r_max);
        Some(self.log_normalizer - (edt * edt) / (2.0 * self.sigma_obs * self.sigma_obs))
    }

    /// Log-likelihood of a full observation `z_t` for a particle at `pose`: the
    /// sum of the per-beam log-likelihoods of Eq. 1.
    ///
    /// When every beam is skipped the method returns 0.0 (likelihood 1), leaving
    /// the particle's weight untouched — with no usable information the posterior
    /// equals the prior.
    ///
    /// The filter exponentiates these values only after subtracting the maximum
    /// across the particle set, so sharp observation models (small `σ_obs`) never
    /// underflow `f32` even with many beams.
    pub fn observation_log_likelihood<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        pose: &mcl_gridmap::Pose2,
        beams: &[Beam],
    ) -> f32 {
        let mut log_sum = 0.0f32;
        let mut used = 0usize;
        for beam in beams {
            if let Some(ll) = self.beam_log_likelihood(field, pose, beam) {
                log_sum += ll;
                used += 1;
            }
        }
        if used == 0 {
            return 0.0;
        }
        log_sum
    }

    /// Log-likelihood of a full observation for a particle pose given as raw
    /// `f32` components, scored against the in-range end points of a
    /// partitioned [`mcl_sensor::BeamBatch`] — the batched form of Eq. 1 the
    /// correction kernel ([`crate::kernel::observation_log_likelihoods`])
    /// evaluates.
    ///
    /// `end_x` / `end_y` are the body-frame end points
    /// [`mcl_sensor::BeamBatch::in_range_slices`] returns for this model's
    /// `r_max`: every beam is scored, so the loop body is branch-free, and an
    /// empty prefix sums to 0.0 (likelihood 1). Scoring one particle costs a
    /// single `sin_cos` of the particle yaw (the owned
    /// [`mcl_num::math::sin_cos`], which every backend replays) plus four
    /// multiply-adds and one distance-field lookup per beam. Rotating the
    /// precomputed body-frame end point is mathematically identical to
    /// [`mcl_sensor::Beam::end_point`] but associates the trigonometry
    /// differently, so the result can differ from
    /// [`BeamEndPointModel::observation_log_likelihood`] in the last ulp.
    pub fn batch_log_likelihood<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        x: f32,
        y: f32,
        theta: f32,
        end_x: &[f32],
        end_y: &[f32],
    ) -> f32 {
        let (sin_t, cos_t) = mcl_num::math::sin_cos(theta);
        let mut log_sum = 0.0f32;
        for (&bx, &by) in end_x.iter().zip(end_y) {
            let ex = x + cos_t * bx - sin_t * by;
            let ey = y + sin_t * bx + cos_t * by;
            let edt = field.distance_at_world(ex, ey).min(self.r_max);
            log_sum += self.log_normalizer - (edt * edt) / (2.0 * self.sigma_obs * self.sigma_obs);
        }
        log_sum
    }

    /// Lane-batched twin of [`BeamEndPointModel::batch_log_likelihood`]: scores
    /// one [`LANES`](crate::kernel::LANES)-wide group of particle poses at once
    /// against the same in-range end-point prefix.
    ///
    /// Per lane the arithmetic is the exact per-particle op order of the
    /// scalar path — one `sin_cos` of the lane's yaw, then per beam the
    /// body→world rotation, the truncated distance-field lookup and the Eq. 1
    /// log-term accumulated in beam order — so every lane's score is
    /// **bit-identical** to the scalar entry point. The lane structure only
    /// changes what the compiler can do with it: the rotation, the lookup's
    /// world→cell divisions ([`DistanceField::distances_at_world_lanes`]) and
    /// the accumulation become straight-line loops over fixed-width arrays
    /// that vectorize, instead of one serial chain per particle.
    #[allow(clippy::too_many_arguments)] // the full lane-group register set
    pub fn batch_log_likelihood_lanes<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        x: &[f32; crate::kernel::LANES],
        y: &[f32; crate::kernel::LANES],
        theta: &[f32; crate::kernel::LANES],
        end_x: &[f32],
        end_y: &[f32],
        out: &mut [f32; crate::kernel::LANES],
    ) {
        const LANES: usize = crate::kernel::LANES;
        let mut sin_t = [0.0f32; LANES];
        let mut cos_t = [0.0f32; LANES];
        for l in 0..LANES {
            let (s, c) = mcl_num::math::sin_cos(theta[l]);
            sin_t[l] = s;
            cos_t[l] = c;
        }
        let mut log_sum = [0.0f32; LANES];
        for (&bx, &by) in end_x.iter().zip(end_y) {
            let mut ex = [0.0f32; LANES];
            let mut ey = [0.0f32; LANES];
            for l in 0..LANES {
                ex[l] = x[l] + cos_t[l] * bx - sin_t[l] * by;
                ey[l] = y[l] + sin_t[l] * bx + cos_t[l] * by;
            }
            let mut edt = [0.0f32; LANES];
            field.distances_at_world_lanes(&ex, &ey, &mut edt);
            for l in 0..LANES {
                let d = edt[l].min(self.r_max);
                log_sum[l] +=
                    self.log_normalizer - (d * d) / (2.0 * self.sigma_obs * self.sigma_obs);
            }
        }
        *out = log_sum;
    }

    /// Likelihood (not log) of a full observation `z_t` for a particle at `pose`:
    /// the product of the per-beam likelihoods of Eq. 1.
    ///
    /// When every beam is skipped the method returns 1.0, leaving the particle's
    /// weight untouched — with no usable information the posterior equals the
    /// prior.
    pub fn observation_likelihood<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        pose: &mcl_gridmap::Pose2,
        beams: &[Beam],
    ) -> f32 {
        self.observation_log_likelihood(field, pose, beams).exp()
    }

    /// Re-weights one particle in place: `w ← w · p(z_t | x_t, m)`.
    pub fn reweight_particle<S: Scalar, D: DistanceField + ?Sized>(
        &self,
        field: &D,
        particle: &mut Particle<S>,
        beams: &[Beam],
    ) {
        let pose = particle.pose();
        let likelihood = self.observation_likelihood(field, &pose, beams);
        particle.weight = S::from_f32(particle.weight.to_f32() * likelihood);
    }

    /// Re-weights a slice of particles in place (one chunk of the cluster's
    /// data-parallel correction step).
    pub fn reweight<S: Scalar, D: DistanceField + ?Sized>(
        &self,
        field: &D,
        particles: &mut [Particle<S>],
        beams: &[Beam],
    ) {
        for p in particles {
            self.reweight_particle(field, p, beams);
        }
    }
}

/// The UWB anchor-range likelihood model — the second sensor of the fusion
/// pipeline.
///
/// For a particle position `p = (x, y)`, a fixed anchor at `a_i` and a
/// measured range `z_i`, the model scores the range residual with the same
/// Gaussian shape as Eq. 1:
///
/// ```text
/// p(z_i | x_t) = 1/√(2π σ_uwb²) · exp( − (|p − a_i| − z_i)² / (2 σ_uwb²) )
/// ```
///
/// Non-finite ranges (NaN or ±∞ — failed or denied measurements) are skipped
/// with the same neutral-when-empty convention as the beam model: an
/// observation whose anchors are all skipped contributes log-likelihood 0.0
/// (likelihood 1), leaving the particle weight untouched.
///
/// The model exists in scalar and lane-batched forms, which are
/// **bit-identical**: the hot body is one subtract pair, two multiplies, one
/// add, one square root (correctly rounded, so a vectorized form matches
/// `f32::sqrt` exactly), one subtract, and the Eq. 1 log-term — no FMA, no
/// `hypot`. The `Avx2` kernel backend runs the lane-batched form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorRangeModel {
    sigma_uwb: f32,
    log_normalizer: f32,
}

impl AnchorRangeModel {
    /// Creates the model with the UWB ranging standard deviation `σ_uwb`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_uwb` is not positive and finite; it is a static
    /// configuration value.
    pub fn new(sigma_uwb: f32) -> Self {
        assert!(
            sigma_uwb.is_finite() && sigma_uwb > 0.0,
            "sigma_uwb must be positive"
        );
        AnchorRangeModel {
            sigma_uwb,
            log_normalizer: -(core::f32::consts::TAU.sqrt() * sigma_uwb).ln(),
        }
    }

    /// The UWB ranging standard deviation.
    pub fn sigma_uwb(&self) -> f32 {
        self.sigma_uwb
    }

    /// Log-likelihood of a single anchor range for a particle at `(x, y)`.
    ///
    /// Returns `None` when the measurement is skipped — a range is scored
    /// only when it is finite (the beam path's PR 3 NaN rule, extended to
    /// the infinities a denied UWB link may report).
    pub fn range_log_likelihood(
        &self,
        x: f32,
        y: f32,
        anchor: &mcl_sensor::AnchorRange,
    ) -> Option<f32> {
        self.score(x, y, anchor.anchor_x_m, anchor.anchor_y_m, anchor.range_m)
    }

    /// The scored-or-skipped core: `None` marks a skipped (non-finite)
    /// range.
    #[inline(always)]
    fn score(&self, x: f32, y: f32, ax: f32, ay: f32, z: f32) -> Option<f32> {
        if !z.is_finite() {
            return None;
        }
        let dx = x - ax;
        let dy = y - ay;
        let dist = (dx * dx + dy * dy).sqrt();
        let r = dist - z;
        Some(self.log_normalizer - (r * r) / (2.0 * self.sigma_uwb * self.sigma_uwb))
    }

    /// Log-likelihood of the full anchor set of `batch` for a particle at
    /// `(x, y)`: the sum of the per-anchor log-terms in anchor order.
    ///
    /// Non-finite ranges are skipped; when every anchor is skipped (or the
    /// batch carries none) the method returns 0.0 (likelihood 1), leaving
    /// the particle's weight untouched — the beam model's convention.
    pub fn batch_log_likelihood(&self, x: f32, y: f32, batch: &ObservationBatch) -> f32 {
        let anchor_x = batch.anchor_x_m();
        let anchor_y = batch.anchor_y_m();
        let mut log_sum = 0.0f32;
        let mut used = 0usize;
        for (i, &z) in batch.anchor_range_m().iter().enumerate() {
            let Some(ll) = self.score(x, y, anchor_x[i], anchor_y[i], z) else {
                continue;
            };
            log_sum += ll;
            used += 1;
        }
        if used == 0 {
            return 0.0;
        }
        log_sum
    }

    /// Lane-batched twin of [`AnchorRangeModel::batch_log_likelihood`]:
    /// scores one [`LANES`](crate::kernel::LANES)-wide group of particle
    /// positions at once. Per lane the arithmetic is the exact per-particle
    /// op order of the scalar path, so every lane's score is
    /// **bit-identical** to the scalar entry point; the lane structure only
    /// turns the residual arithmetic into straight-line loops over
    /// fixed-width arrays that vectorize.
    pub fn batch_log_likelihood_lanes(
        &self,
        x: &[f32; crate::kernel::LANES],
        y: &[f32; crate::kernel::LANES],
        batch: &ObservationBatch,
        out: &mut [f32; crate::kernel::LANES],
    ) {
        const LANES: usize = crate::kernel::LANES;
        let anchor_x = batch.anchor_x_m();
        let anchor_y = batch.anchor_y_m();
        let mut log_sum = [0.0f32; LANES];
        let mut used = 0usize;
        for (i, &z) in batch.anchor_range_m().iter().enumerate() {
            // Same skipping predicate as the scalar path.
            if !z.is_finite() {
                continue;
            }
            let ax = anchor_x[i];
            let ay = anchor_y[i];
            for l in 0..LANES {
                let dx = x[l] - ax;
                let dy = y[l] - ay;
                let dist = (dx * dx + dy * dy).sqrt();
                let r = dist - z;
                log_sum[l] +=
                    self.log_normalizer - (r * r) / (2.0 * self.sigma_uwb * self.sigma_uwb);
            }
            used += 1;
        }
        if used == 0 {
            *out = [0.0; LANES];
            return;
        }
        *out = log_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::{EuclideanDistanceField, MapBuilder, OccupancyGrid, Pose2};
    use mcl_sensor::{BeamBatch, SensorConfig, SensorRig};
    use rand::SeedableRng;

    fn room() -> OccupancyGrid {
        MapBuilder::new(4.0, 4.0, 0.05).border_walls().build()
    }

    fn clean_rig() -> SensorRig {
        SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        )
    }

    fn beams_at(map: &OccupancyGrid, pose: &Pose2) -> Vec<Beam> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        clean_rig().observe(map, pose, 0.0, &mut rng)
    }

    #[test]
    fn model_rejects_bad_parameters() {
        let ok = BeamEndPointModel::new(2.0, 1.5);
        assert_eq!(ok.sigma_obs(), 2.0);
        assert_eq!(ok.r_max(), 1.5);
        assert!(std::panic::catch_unwind(|| BeamEndPointModel::new(0.0, 1.5)).is_err());
        assert!(std::panic::catch_unwind(|| BeamEndPointModel::new(2.0, -1.0)).is_err());
    }

    #[test]
    fn true_pose_scores_higher_than_a_wrong_pose() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.5, 1.5);
        // Near a corner so several beams are within r_max.
        let truth = Pose2::new(1.0, 1.0, 0.0);
        let beams = beams_at(&map, &truth);
        let l_true = model.observation_likelihood(&edt, &truth, &beams);
        let l_wrong = model.observation_likelihood(&edt, &Pose2::new(2.0, 2.4, 1.2), &beams);
        assert!(
            l_true > l_wrong,
            "true {l_true} should beat wrong {l_wrong}"
        );
    }

    #[test]
    fn beams_beyond_rmax_are_skipped() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(2.0, 1.5);
        let pose = Pose2::new(2.0, 2.0, 0.0);
        let long_beam = Beam {
            azimuth_body_rad: 0.0,
            range_m: 3.0,
            origin_body: Pose2::default(),
        };
        assert!(model.beam_log_likelihood(&edt, &pose, &long_beam).is_none());
        // An observation consisting only of skipped beams leaves weights alone.
        assert_eq!(model.observation_likelihood(&edt, &pose, &[long_beam]), 1.0);
    }

    #[test]
    fn beam_landing_on_an_obstacle_gets_the_maximum_likelihood() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(2.0, 1.5);
        let pose = Pose2::new(3.0, 2.0, 0.0); // 0.95 m from the east wall
        let on_wall = Beam {
            azimuth_body_rad: 0.0,
            range_m: 0.97,
            origin_body: Pose2::default(),
        };
        let into_space = Beam {
            azimuth_body_rad: core::f32::consts::PI, // points at open space 0.97 m away
            range_m: 0.97,
            origin_body: Pose2::default(),
        };
        let l_wall = model.beam_log_likelihood(&edt, &pose, &on_wall).unwrap();
        let l_space = model.beam_log_likelihood(&edt, &pose, &into_space).unwrap();
        assert!(l_wall > l_space);
        // The on-wall log likelihood is close to the normalizer (EDT ≈ 0).
        assert!((l_wall - (-(core::f32::consts::TAU.sqrt() * 2.0).ln())).abs() < 0.05);
    }

    #[test]
    fn likelihood_is_monotone_in_end_point_distance() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(2.0, 1.5);
        let pose = Pose2::new(3.0, 2.0, 0.0);
        let mut previous = f32::INFINITY;
        // Sweep the measured range from "lands on the wall" to "falls short".
        for range in [0.95, 0.8, 0.6, 0.4, 0.2] {
            let beam = Beam {
                azimuth_body_rad: 0.0,
                range_m: range,
                origin_body: Pose2::default(),
            };
            let ll = model.beam_log_likelihood(&edt, &pose, &beam).unwrap();
            assert!(
                ll <= previous + 1e-6,
                "likelihood should not increase as the end point moves off the wall"
            );
            previous = ll;
        }
    }

    #[test]
    fn reweight_prefers_particles_at_the_true_pose() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.5, 1.5);
        let truth = Pose2::new(1.0, 1.0, 0.0);
        let beams = beams_at(&map, &truth);
        let mut particles = vec![
            Particle::<f32>::from_pose(&truth, 1.0),
            Particle::<f32>::from_pose(&Pose2::new(2.2, 2.7, 0.6), 1.0),
            Particle::<f32>::from_pose(&Pose2::new(3.2, 1.1, 3.0), 1.0),
        ];
        model.reweight(&edt, &mut particles, &beams);
        assert!(particles[0].weight > particles[1].weight);
        assert!(particles[0].weight > particles[2].weight);
    }

    #[test]
    fn quantized_field_gives_nearly_the_same_weights() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let quantized = edt.quantize();
        let model = BeamEndPointModel::new(2.0, 1.5);
        let truth = Pose2::new(1.3, 2.1, 0.8);
        let beams = beams_at(&map, &truth);
        for pose in [truth, Pose2::new(2.0, 2.0, 0.0), Pose2::new(3.0, 1.0, 2.0)] {
            let full = model.observation_likelihood(&edt, &pose, &beams);
            let quant = model.observation_likelihood(&quantized, &pose, &beams);
            assert!(
                (full - quant).abs() / full < 0.05,
                "quantized likelihood deviates: {full} vs {quant}"
            );
        }
    }

    #[test]
    fn batch_scoring_matches_the_per_beam_path() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let truth = Pose2::new(1.3, 2.1, 0.8);
        let beams = beams_at(&map, &truth);
        let mut batch = BeamBatch::from_beams(&beams);
        batch.partition_in_range(model.r_max());
        let (xs, ys) = batch.in_range_slices(model.r_max()).unwrap();
        for pose in [truth, Pose2::new(2.0, 2.0, 0.0), Pose2::new(3.0, 1.0, 2.0)] {
            let per_beam = model.observation_log_likelihood(&edt, &pose, &beams);
            let batched = model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, xs, ys);
            // The two paths associate the beam trigonometry differently, so
            // agreement is to float tolerance, not bit-exact.
            assert!(
                (per_beam - batched).abs() <= 1e-3 * per_beam.abs().max(1.0),
                "batch path diverged: {per_beam} vs {batched}"
            );
        }
    }

    #[test]
    fn partitioned_batch_scores_bit_identically_to_the_skipping_path() {
        // Skipping a beam means leaving it out of the sum: the partitioned
        // prefix must score exactly like a batch built from the in-range
        // beams alone.
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        // Mix of in-range and skipped beams, interleaved.
        let beams: Vec<Beam> = (0..10)
            .map(|k| Beam {
                azimuth_body_rad: k as f32 * 0.6,
                range_m: if k % 3 == 0 {
                    2.0
                } else {
                    0.3 + 0.1 * k as f32
                },
                origin_body: Pose2::default(),
            })
            .collect();
        let mut partitioned = BeamBatch::from_beams(&beams);
        let prefix = partitioned.partition_in_range(model.r_max());
        assert!(prefix > 0 && prefix < beams.len());
        let (xs, ys) = partitioned.in_range_slices(model.r_max()).unwrap();
        let kept: Vec<Beam> = beams
            .iter()
            .copied()
            .filter(|b| b.range_m < model.r_max())
            .collect();
        assert_eq!(kept.len(), prefix);
        let alone = BeamBatch::from_beams(&kept);
        for pose in [
            Pose2::new(1.3, 2.1, 0.8),
            Pose2::new(2.0, 2.0, 0.0),
            Pose2::new(3.0, 1.0, 2.0),
        ] {
            let branch_free = model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, xs, ys);
            let skipping = model.batch_log_likelihood(
                &edt,
                pose.x,
                pose.y,
                pose.theta,
                alone.end_x_body(),
                alone.end_y_body(),
            );
            assert_eq!(skipping.to_bits(), branch_free.to_bits());
        }
        // All beams out of range → neutral likelihood (+0.0: likelihood 1).
        let far = Beam {
            azimuth_body_rad: 0.0,
            range_m: 2.0,
            origin_body: Pose2::default(),
        };
        let mut far_batch = BeamBatch::from_beams(&[far]);
        assert_eq!(far_batch.partition_in_range(model.r_max()), 0);
        let (xs, ys) = far_batch.in_range_slices(model.r_max()).unwrap();
        let neutral = model.batch_log_likelihood(&edt, 2.0, 2.0, 0.0, xs, ys);
        assert_eq!(neutral.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn nan_ranges_are_skipped_on_both_batch_paths() {
        // A corrupt sensor distance (NaN range) must be excluded from the
        // score on the partitioned batch path and on the per-beam path: both
        // keep `range < r_max`, which NaN fails, so neither NaN-poisons the
        // weights.
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [make(0.5, 0.0), make(f32::NAN, 0.7), make(0.8, 1.4)];
        // The per-beam path: NaN is skipped, not scored (which would return
        // Some(NaN) and poison the weight).
        let pose = Pose2::new(1.3, 2.1, 0.8);
        assert!(model.beam_log_likelihood(&edt, &pose, &beams[1]).is_none());
        let per_beam = model.observation_log_likelihood(&edt, &pose, &beams);
        assert!(per_beam.is_finite());
        // The batch path: the partition moves NaN behind the scored prefix.
        let mut partitioned = BeamBatch::from_beams(&beams);
        assert_eq!(partitioned.partition_in_range(model.r_max()), 2);
        assert_eq!(partitioned.len(), beams.len());
        let (xs, ys) = partitioned.in_range_slices(model.r_max()).unwrap();
        let prefix = model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, xs, ys);
        assert!(prefix.is_finite(), "NaN beam leaked into the batch sum");
        let finite = BeamBatch::from_beams(&[beams[0], beams[2]]);
        let expected = model.batch_log_likelihood(
            &edt,
            pose.x,
            pose.y,
            pose.theta,
            finite.end_x_body(),
            finite.end_y_body(),
        );
        assert_eq!(prefix.to_bits(), expected.to_bits());
        // Only NaN beams at all → neutral likelihood on both paths.
        let nan_only = [make(f32::NAN, 0.0)];
        assert_eq!(
            model.observation_log_likelihood(&edt, &pose, &nan_only),
            0.0
        );
        let mut all_nan = BeamBatch::from_beams(&nan_only);
        assert_eq!(all_nan.partition_in_range(model.r_max()), 0);
        let (xs, ys) = all_nan.in_range_slices(model.r_max()).unwrap();
        let neutral = model.batch_log_likelihood(&edt, 1.0, 1.0, 0.0, xs, ys);
        assert_eq!(neutral.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_beam_list_leaves_weights_unchanged() {
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(2.0, 1.5);
        let mut p = Particle::<f32>::from_pose(&Pose2::new(1.0, 1.0, 0.0), 0.7);
        model.reweight_particle(&edt, &mut p, &[]);
        assert_eq!(p.weight, 0.7);
    }

    use mcl_sensor::AnchorRange;

    fn anchors_for(truth: (f32, f32)) -> ObservationBatch {
        let anchors = [(0.2, 0.2), (3.8, 0.2), (0.2, 3.8)];
        let mut obs = ObservationBatch::new();
        for (ax, ay) in anchors {
            let range = ((truth.0 - ax).powi(2) + (truth.1 - ay).powi(2)).sqrt();
            obs.push_anchor(AnchorRange::new(ax, ay, range));
        }
        obs
    }

    #[test]
    fn anchor_model_rejects_bad_parameters() {
        let ok = AnchorRangeModel::new(0.15);
        assert_eq!(ok.sigma_uwb(), 0.15);
        assert!(std::panic::catch_unwind(|| AnchorRangeModel::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| AnchorRangeModel::new(f32::NAN)).is_err());
    }

    #[test]
    fn anchor_true_position_scores_higher_than_a_wrong_one() {
        let model = AnchorRangeModel::new(0.15);
        let truth = (1.3, 2.1);
        let obs = anchors_for(truth);
        let l_true = model.batch_log_likelihood(truth.0, truth.1, &obs);
        let l_wrong = model.batch_log_likelihood(3.0, 0.8, &obs);
        assert!(
            l_true > l_wrong,
            "true {l_true} should beat wrong {l_wrong}"
        );
        // A perfect-range position scores each anchor at the normalizer.
        let per_anchor = -(core::f32::consts::TAU.sqrt() * 0.15).ln();
        assert!((l_true - 3.0 * per_anchor).abs() < 1e-4);
    }

    #[test]
    fn non_finite_anchor_ranges_are_skipped_on_every_path() {
        let model = AnchorRangeModel::new(0.2);
        let mut obs = anchors_for((2.0, 2.0));
        obs.push_anchor(AnchorRange::new(1.0, 1.0, f32::NAN));
        obs.push_anchor(AnchorRange::new(1.0, 3.0, f32::INFINITY));
        let clean = anchors_for((2.0, 2.0));
        let scored = model.batch_log_likelihood(2.0, 2.0, &obs);
        let reference = model.batch_log_likelihood(2.0, 2.0, &clean);
        assert!(scored.is_finite(), "non-finite range leaked into the sum");
        assert_eq!(scored.to_bits(), reference.to_bits());
        assert!(model
            .range_log_likelihood(2.0, 2.0, &AnchorRange::new(1.0, 1.0, f32::NAN))
            .is_none());
        // All-skipped (and anchor-free) batches are neutral on every path.
        let all_bad = ObservationBatch::new().with_anchors(&[
            AnchorRange::new(0.0, 0.0, f32::NAN),
            AnchorRange::new(1.0, 0.0, f32::NEG_INFINITY),
        ]);
        assert_eq!(model.batch_log_likelihood(2.0, 2.0, &all_bad), 0.0);
        assert_eq!(
            model.batch_log_likelihood(2.0, 2.0, &ObservationBatch::new()),
            0.0
        );
        let mut lanes = [1.0f32; crate::kernel::LANES];
        model.batch_log_likelihood_lanes(
            &[2.0; crate::kernel::LANES],
            &[2.0; crate::kernel::LANES],
            &all_bad,
            &mut lanes,
        );
        assert_eq!(lanes, [0.0; crate::kernel::LANES]);
    }

    #[test]
    fn anchor_lane_path_matches_scalar_bit_for_bit() {
        const LANES: usize = crate::kernel::LANES;
        let model = AnchorRangeModel::new(0.17);
        let mut obs = anchors_for((1.7, 2.9));
        obs.push_anchor(AnchorRange::new(2.5, 2.5, f32::NAN));
        let mut xs = [0.0f32; LANES];
        let mut ys = [0.0f32; LANES];
        for l in 0..LANES {
            xs[l] = 0.4 + 0.41 * l as f32;
            ys[l] = 3.6 - 0.37 * l as f32;
        }
        let mut lane_out = [0.0f32; LANES];
        model.batch_log_likelihood_lanes(&xs, &ys, &obs, &mut lane_out);
        for l in 0..LANES {
            let scalar = model.batch_log_likelihood(xs[l], ys[l], &obs);
            assert_eq!(lane_out[l].to_bits(), scalar.to_bits(), "lane {l}");
        }
    }
}
