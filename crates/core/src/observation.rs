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
//! and measured ranges at or beyond `r_max` are skipped here, matching the
//! truncated field.

use crate::particle::Particle;
use mcl_gridmap::DistanceField;
use mcl_num::Scalar;
use mcl_sensor::{Beam, BeamBatch, ObservationBatch};

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
    /// skipped too, matching [`BeamBatch::partition_in_range`]'s predicate).
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
    /// `f32` components, scored against a pre-flattened [`BeamBatch`] — the
    /// batched form of Eq. 1 the correction kernel
    /// ([`crate::kernel::observation_log_likelihoods`]) evaluates.
    ///
    /// The batch stores each beam's end point in the drone *body* frame, so
    /// scoring one particle costs a single `sin_cos` of the particle yaw (the
    /// owned [`mcl_num::math::sin_cos`], which every backend replays) plus
    /// four multiply-adds and one distance-field lookup per beam. Rotating the
    /// precomputed body-frame end point is mathematically identical to
    /// [`mcl_sensor::Beam::end_point`] but associates the trigonometry
    /// differently, so the result can differ from
    /// [`BeamEndPointModel::observation_log_likelihood`] in the last ulp.
    ///
    /// Beams at or beyond `r_max` are skipped exactly like the per-beam path;
    /// when every beam is skipped the method returns 0.0 (likelihood 1).
    ///
    /// When the batch was [partitioned](BeamBatch::partition_in_range) for
    /// this model's `r_max` (the filter does so once per update), the loop
    /// runs over the in-range prefix with a **branch-free** body — no range
    /// test per particle per beam. The partition is stable, so the sum
    /// associates identically and the score is bit-identical to the skipping
    /// fallback below.
    pub fn batch_log_likelihood<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        x: f32,
        y: f32,
        theta: f32,
        batch: &BeamBatch,
    ) -> f32 {
        let (sin_t, cos_t) = mcl_num::math::sin_cos(theta);
        let end_x = batch.end_x_body();
        let end_y = batch.end_y_body();
        if let Some(prefix) = batch.in_range_prefix(self.r_max) {
            if prefix == 0 {
                return 0.0;
            }
            let mut log_sum = 0.0f32;
            for i in 0..prefix {
                let bx = end_x[i];
                let by = end_y[i];
                let ex = x + cos_t * bx - sin_t * by;
                let ey = y + sin_t * bx + cos_t * by;
                let edt = field.distance_at_world(ex, ey).min(self.r_max);
                log_sum +=
                    self.log_normalizer - (edt * edt) / (2.0 * self.sigma_obs * self.sigma_obs);
            }
            return log_sum;
        }
        let mut log_sum = 0.0f32;
        let mut used = 0usize;
        for (i, &range) in batch.range_m().iter().enumerate() {
            // Score exactly the beams the partition keeps (`range < r_max`):
            // a NaN range is skipped on both paths, not just the prefix one.
            if range.is_nan() || range >= self.r_max {
                continue;
            }
            let bx = end_x[i];
            let by = end_y[i];
            let ex = x + cos_t * bx - sin_t * by;
            let ey = y + sin_t * bx + cos_t * by;
            let edt = field.distance_at_world(ex, ey).min(self.r_max);
            log_sum += self.log_normalizer - (edt * edt) / (2.0 * self.sigma_obs * self.sigma_obs);
            used += 1;
        }
        if used == 0 {
            return 0.0;
        }
        log_sum
    }

    /// Lane-batched twin of [`BeamEndPointModel::batch_log_likelihood`]: scores
    /// one [`LANES`](crate::kernel::LANES)-wide group of particle poses at once
    /// against a pre-flattened [`BeamBatch`].
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
    ///
    /// When the batch was [partitioned](BeamBatch::partition_in_range) for
    /// this model's `r_max` the loop runs branch-free over the in-range
    /// prefix, resolved **once per lane group** via
    /// [`BeamBatch::in_range_slices`]; otherwise every beam pays the same
    /// skipping predicate as the scalar fallback (which also skips NaN
    /// ranges). When every beam is skipped, all lanes score 0.0.
    pub fn batch_log_likelihood_lanes<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        x: &[f32; crate::kernel::LANES],
        y: &[f32; crate::kernel::LANES],
        theta: &[f32; crate::kernel::LANES],
        batch: &BeamBatch,
        out: &mut [f32; crate::kernel::LANES],
    ) {
        const LANES: usize = crate::kernel::LANES;

        /// The per-beam lane body: rotate the body-frame end point into each
        /// lane's world frame, look the lane group up in the field,
        /// accumulate. Evaluation order per lane matches the scalar loop
        /// exactly. Forced inline so the rotation, the lookup's hoisted
        /// divides and the accumulation fuse into one straight-line block per
        /// beam.
        #[inline(always)]
        #[allow(clippy::too_many_arguments)] // the full lane-group register set
        fn score_beam<D: DistanceField + ?Sized>(
            model: &BeamEndPointModel,
            field: &D,
            x: &[f32; LANES],
            y: &[f32; LANES],
            sin_t: &[f32; LANES],
            cos_t: &[f32; LANES],
            bx: f32,
            by: f32,
            log_sum: &mut [f32; LANES],
        ) {
            let mut ex = [0.0f32; LANES];
            let mut ey = [0.0f32; LANES];
            for l in 0..LANES {
                ex[l] = x[l] + cos_t[l] * bx - sin_t[l] * by;
                ey[l] = y[l] + sin_t[l] * bx + cos_t[l] * by;
            }
            let mut edt = [0.0f32; LANES];
            field.distances_at_world_lanes(&ex, &ey, &mut edt);
            for l in 0..LANES {
                let d = edt[l].min(model.r_max);
                log_sum[l] +=
                    model.log_normalizer - (d * d) / (2.0 * model.sigma_obs * model.sigma_obs);
            }
        }

        let mut sin_t = [0.0f32; LANES];
        let mut cos_t = [0.0f32; LANES];
        for l in 0..LANES {
            let (s, c) = mcl_num::math::sin_cos(theta[l]);
            sin_t[l] = s;
            cos_t[l] = c;
        }
        let mut log_sum = [0.0f32; LANES];
        if let Some((end_x, end_y)) = batch.in_range_slices(self.r_max) {
            if end_x.is_empty() {
                *out = [0.0; LANES];
                return;
            }
            for (&bx, &by) in end_x.iter().zip(end_y.iter()) {
                score_beam(self, field, x, y, &sin_t, &cos_t, bx, by, &mut log_sum);
            }
            *out = log_sum;
            return;
        }
        let end_x = batch.end_x_body();
        let end_y = batch.end_y_body();
        let mut used = 0usize;
        for (i, &range) in batch.range_m().iter().enumerate() {
            // Same predicate as the scalar fallback (and the partition).
            if range.is_nan() || range >= self.r_max {
                continue;
            }
            score_beam(
                self,
                field,
                x,
                y,
                &sin_t,
                &cos_t,
                end_x[i],
                end_y[i],
                &mut log_sum,
            );
            used += 1;
        }
        if used == 0 {
            *out = [0.0; LANES];
            return;
        }
        *out = log_sum;
    }

    /// Explicit-AVX2 twin of
    /// [`BeamEndPointModel::batch_log_likelihood_lanes`] (x86-64 only): the
    /// per-beam rotation, the truncated EDT lookup (via
    /// [`DistanceField::distances_at_world_lanes_avx2`], which gathers on
    /// AVX2-capable fields) and the Eq. 1 accumulation run as 8×f32
    /// `core::arch` register ops instead of autovectorized array passes.
    ///
    /// Restricted to the same single-rounding IEEE ops as the scalar body in
    /// the same order (no FMA), so every lane's score is **bit-identical** to
    /// [`BeamEndPointModel::batch_log_likelihood`]. On a host without AVX2
    /// this method falls back to the lane-batched twin, which upholds the
    /// same contract.
    #[cfg(target_arch = "x86_64")]
    pub fn batch_log_likelihood_avx2<D: DistanceField + ?Sized>(
        &self,
        field: &D,
        x: &[f32; crate::kernel::LANES],
        y: &[f32; crate::kernel::LANES],
        theta: &[f32; crate::kernel::LANES],
        batch: &BeamBatch,
        out: &mut [f32; crate::kernel::LANES],
    ) {
        if crate::simd::available() {
            crate::simd::score_pose_group(self, field, x, y, theta, batch, out);
        } else {
            self.batch_log_likelihood_lanes(field, x, y, theta, batch, out);
        }
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
    use mcl_sensor::{SensorConfig, SensorRig};
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
        let batch = BeamBatch::from_beams(&beams);
        for pose in [truth, Pose2::new(2.0, 2.0, 0.0), Pose2::new(3.0, 1.0, 2.0)] {
            let per_beam = model.observation_log_likelihood(&edt, &pose, &beams);
            let batched = model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, &batch);
            // The two paths associate the beam trigonometry differently, so
            // agreement is to float tolerance, not bit-exact.
            assert!(
                (per_beam - batched).abs() <= 1e-3 * per_beam.abs().max(1.0),
                "batch path diverged: {per_beam} vs {batched}"
            );
        }
        // All beams beyond r_max → neutral likelihood, like the per-beam path.
        let far = Beam {
            azimuth_body_rad: 0.0,
            range_m: 2.0,
            origin_body: Pose2::default(),
        };
        let far_batch = BeamBatch::from_beams(&[far]);
        assert_eq!(
            model.batch_log_likelihood(&edt, 2.0, 2.0, 0.0, &far_batch),
            0.0
        );
    }

    #[test]
    fn partitioned_batch_scores_bit_identically_to_the_skipping_path() {
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
        let unpartitioned = BeamBatch::from_beams(&beams);
        let mut partitioned = unpartitioned.clone();
        let prefix = partitioned.partition_in_range(model.r_max());
        assert!(prefix > 0 && prefix < beams.len());
        for pose in [
            Pose2::new(1.3, 2.1, 0.8),
            Pose2::new(2.0, 2.0, 0.0),
            Pose2::new(3.0, 1.0, 2.0),
        ] {
            let skipping =
                model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, &unpartitioned);
            let branch_free =
                model.batch_log_likelihood(&edt, pose.x, pose.y, pose.theta, &partitioned);
            assert_eq!(skipping.to_bits(), branch_free.to_bits());
        }
        // A partition for a *different* r_max is ignored (falls back to the
        // per-beam test) and still scores identically.
        let mut other = unpartitioned.clone();
        other.partition_in_range(0.9);
        let fallback = model.batch_log_likelihood(&edt, 1.3, 2.1, 0.8, &other);
        // Partitioning reordered the arrays but the skipped set is whatever
        // r_max=1.5 dictates, so compare against the same reordering.
        let mut reordered = other.clone();
        reordered.partition_in_range(model.r_max());
        let expected = model.batch_log_likelihood(&edt, 1.3, 2.1, 0.8, &reordered);
        assert_eq!(fallback.to_bits(), expected.to_bits());
        // All beams out of range → neutral likelihood on the prefix path too.
        let far = Beam {
            azimuth_body_rad: 0.0,
            range_m: 2.0,
            origin_body: Pose2::default(),
        };
        let mut far_batch = BeamBatch::from_beams(&[far]);
        far_batch.partition_in_range(model.r_max());
        assert_eq!(
            model.batch_log_likelihood(&edt, 2.0, 2.0, 0.0, &far_batch),
            0.0
        );
    }

    #[test]
    fn nan_ranges_are_skipped_on_both_batch_paths() {
        // A corrupt sensor distance (NaN range) must be excluded from the
        // score whether or not the batch was partitioned — the prefix keeps
        // `range < r_max` and the fallback must apply the same predicate, or
        // the two paths diverge (and the fallback NaN-poisons the weights).
        let map = room();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let model = BeamEndPointModel::new(0.3, 1.5);
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [make(0.5, 0.0), make(f32::NAN, 0.7), make(0.8, 1.4)];
        // The per-beam path applies the same predicate: NaN is skipped, not
        // scored (which would return Some(NaN) and poison the weight).
        let pose = Pose2::new(1.3, 2.1, 0.8);
        assert!(model.beam_log_likelihood(&edt, &pose, &beams[1]).is_none());
        let per_beam = model.observation_log_likelihood(&edt, &pose, &beams);
        assert!(per_beam.is_finite());
        let unpartitioned = BeamBatch::from_beams(&beams);
        let mut partitioned = unpartitioned.clone();
        assert_eq!(partitioned.partition_in_range(model.r_max()), 2);
        let fallback = model.batch_log_likelihood(&edt, 1.3, 2.1, 0.8, &unpartitioned);
        let prefix = model.batch_log_likelihood(&edt, 1.3, 2.1, 0.8, &partitioned);
        assert!(
            fallback.is_finite(),
            "NaN beam leaked into the fallback sum"
        );
        assert_eq!(fallback.to_bits(), prefix.to_bits());
        // Only NaN beams at all → neutral likelihood on both paths.
        let all_nan = BeamBatch::from_beams(&[make(f32::NAN, 0.0)]);
        assert_eq!(
            model.batch_log_likelihood(&edt, 1.0, 1.0, 0.0, &all_nan),
            0.0
        );
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
