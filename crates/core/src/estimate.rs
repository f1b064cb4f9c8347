//! Pose computation: the weighted average over all particles.
//!
//! The paper adds a fourth step to the classic MCL loop: after resampling, the
//! published pose estimate is the weighted average of all particles. Positions
//! average linearly; the yaw must use a weighted *circular* mean. The estimate
//! also carries dispersion figures (position / yaw standard deviation and the
//! effective sample size), which the evaluation uses to detect convergence and
//! which a planner would use to decide whether the estimate is trustworthy.

use crate::particle::{Particle, ParticleBuffer};
use mcl_gridmap::Pose2;
use mcl_num::{angular_difference, weighted_circular_mean, Scalar};

/// The filter's pose output plus quality figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseEstimate {
    /// Weighted mean pose.
    pub pose: Pose2,
    /// Weighted standard deviation of the particle positions around the mean,
    /// metres (a 2D scalar spread: √(σ_x² + σ_y²)).
    pub position_std_m: f32,
    /// Weighted standard deviation of the yaw around the circular mean, radians.
    pub yaw_std_rad: f32,
    /// Effective sample size of the weights at the time of the estimate.
    pub neff: f32,
}

impl PoseEstimate {
    /// Computes the weighted-average estimate from a particle slice.
    ///
    /// Weights are used as-is (the filter normalizes them before calling this).
    /// If every weight is zero the unweighted mean is returned — this only
    /// happens transiently after a weight collapse, which the filter already
    /// recovers from by resetting to uniform weights.
    pub fn from_particles<S: Scalar>(particles: &[Particle<S>]) -> Self {
        assert!(
            !particles.is_empty(),
            "cannot estimate a pose from an empty particle set"
        );
        let mut sum_w = 0.0f64;
        let mut sum_x = 0.0f64;
        let mut sum_y = 0.0f64;
        let mut sum_w_sq = 0.0f64;
        for p in particles {
            let w = f64::from(p.weight.to_f32().max(0.0));
            sum_w += w;
            sum_w_sq += w * w;
            sum_x += w * f64::from(p.x.to_f32());
            sum_y += w * f64::from(p.y.to_f32());
        }
        let uniform = sum_w <= f64::from(f32::MIN_POSITIVE);
        if uniform {
            let n = particles.len() as f64;
            sum_w = n;
            sum_w_sq = n;
            sum_x = particles.iter().map(|p| f64::from(p.x.to_f32())).sum();
            sum_y = particles.iter().map(|p| f64::from(p.y.to_f32())).sum();
        }

        let mean_x = (sum_x / sum_w) as f32;
        let mean_y = (sum_y / sum_w) as f32;
        let mean_theta = weighted_circular_mean(particles.iter().map(|p| {
            let w = if uniform {
                1.0
            } else {
                p.weight.to_f32().max(0.0)
            };
            (p.theta.to_f32(), w)
        }))
        .unwrap_or_else(|| particles[0].theta.to_f32());

        // Weighted dispersion around the mean.
        let mut var_pos = 0.0f64;
        let mut var_yaw = 0.0f64;
        for p in particles {
            let w = if uniform {
                1.0
            } else {
                f64::from(p.weight.to_f32().max(0.0))
            };
            let dx = f64::from(p.x.to_f32() - mean_x);
            let dy = f64::from(p.y.to_f32() - mean_y);
            let dt = f64::from(angular_difference(p.theta.to_f32(), mean_theta));
            var_pos += w * (dx * dx + dy * dy);
            var_yaw += w * dt * dt;
        }
        var_pos /= sum_w;
        var_yaw /= sum_w;

        let neff = if sum_w_sq <= 0.0 {
            0.0
        } else {
            (sum_w * sum_w / sum_w_sq) as f32
        };

        PoseEstimate {
            pose: Pose2::new(mean_x, mean_y, mean_theta),
            position_std_m: var_pos.sqrt() as f32,
            yaw_std_rad: var_yaw.sqrt() as f32,
            neff,
        }
    }

    /// Computes the estimate from a structure-of-arrays [`ParticleBuffer`] via
    /// the pose-computation kernel's fixed-block reduction
    /// ([`crate::kernel::pose_estimate`], single-worker layout).
    ///
    /// The block-wise `f64` reduction associates the sums differently from the
    /// sequential stream of [`PoseEstimate::from_particles`], so the two can
    /// differ in the last float ulp — but `from_buffer` is bit-identical for
    /// every [`crate::parallel::ClusterLayout`], which is what the filter
    /// guarantees.
    ///
    /// # Panics
    ///
    /// Panics when the buffer is empty.
    pub fn from_buffer<S: Scalar>(particles: &ParticleBuffer<S>) -> Self {
        crate::kernel::pose_estimate(particles, &crate::parallel::ClusterLayout::SINGLE)
    }

    /// Returns `true` when this estimate is within `dist_m` metres and `yaw_rad`
    /// radians of `truth` — the convergence criterion of the paper's evaluation
    /// (0.2 m / 36°).
    pub fn is_close_to(&self, truth: &Pose2, dist_m: f32, yaw_rad: f32) -> bool {
        self.pose.translation_distance(truth) <= dist_m
            && self.pose.rotation_distance(truth) <= yaw_rad
    }
}

impl core::fmt::Display for PoseEstimate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ±{:.2} m ±{:.1}° (neff {:.0})",
            self.pose,
            self.position_std_m,
            self.yaw_std_rad.to_degrees(),
            self.neff
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::{FRAC_PI_2, PI, TAU};

    fn particle(x: f32, y: f32, theta: f32, w: f32) -> Particle<f32> {
        Particle {
            x,
            y,
            theta,
            weight: w,
        }
    }

    #[test]
    fn single_particle_estimate_is_that_particle() {
        let e = PoseEstimate::from_particles(&[particle(1.0, 2.0, 0.5, 1.0)]);
        assert_eq!(e.pose.x, 1.0);
        assert_eq!(e.pose.y, 2.0);
        assert!((e.pose.theta - 0.5).abs() < 1e-6);
        assert_eq!(e.position_std_m, 0.0);
        assert_eq!(e.yaw_std_rad, 0.0);
        assert!((e.neff - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_mean_pulls_towards_heavy_particles() {
        let e = PoseEstimate::from_particles(&[
            particle(0.0, 0.0, 0.0, 0.25),
            particle(1.0, 0.0, 0.0, 0.75),
        ]);
        assert!((e.pose.x - 0.75).abs() < 1e-6);
        assert!(e.position_std_m > 0.0);
        // Neff of a 0.25/0.75 split is 1/(0.0625+0.5625) = 1.6.
        assert!((e.neff - 1.6).abs() < 1e-3);
    }

    #[test]
    fn yaw_averages_circularly_across_the_wrap() {
        let e = PoseEstimate::from_particles(&[
            particle(0.0, 0.0, 0.1, 0.5),
            particle(0.0, 0.0, TAU - 0.1, 0.5),
        ]);
        // The naive arithmetic mean would be π; the circular mean is ~0.
        assert!(e.pose.theta < 0.05 || e.pose.theta > TAU - 0.05);
        assert!((e.yaw_std_rad - 0.1).abs() < 1e-3);
    }

    #[test]
    fn zero_weights_fall_back_to_the_unweighted_mean() {
        let e = PoseEstimate::from_particles(&[
            particle(0.0, 0.0, 0.0, 0.0),
            particle(2.0, 2.0, 0.0, 0.0),
        ]);
        assert!((e.pose.x - 1.0).abs() < 1e-6);
        assert!((e.pose.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dispersion_matches_a_known_distribution() {
        // Four equally weighted particles on a 2 m square: every particle is at
        // distance √2 from the centre → position std = √2.
        let e = PoseEstimate::from_particles(&[
            particle(0.0, 0.0, 0.0, 1.0),
            particle(2.0, 0.0, 0.0, 1.0),
            particle(0.0, 2.0, 0.0, 1.0),
            particle(2.0, 2.0, 0.0, 1.0),
        ]);
        assert!((e.pose.x - 1.0).abs() < 1e-6);
        assert!((e.position_std_m - core::f32::consts::SQRT_2).abs() < 1e-5);
        assert!((e.neff - 4.0).abs() < 1e-5);
    }

    #[test]
    fn convergence_check_uses_both_thresholds() {
        let e = PoseEstimate::from_particles(&[particle(1.0, 1.0, 0.0, 1.0)]);
        let near = Pose2::new(1.1, 1.0, 0.1);
        let far_pos = Pose2::new(1.5, 1.0, 0.0);
        let far_yaw = Pose2::new(1.0, 1.0, PI);
        let gate_dist = 0.2;
        let gate_yaw = 36f32.to_radians();
        assert!(e.is_close_to(&near, gate_dist, gate_yaw));
        assert!(!e.is_close_to(&far_pos, gate_dist, gate_yaw));
        assert!(!e.is_close_to(&far_yaw, gate_dist, gate_yaw));
    }

    #[test]
    fn display_is_human_readable() {
        let e = PoseEstimate::from_particles(&[particle(1.0, 2.0, FRAC_PI_2, 1.0)]);
        let s = e.to_string();
        assert!(s.contains("m"));
        assert!(s.contains("neff"));
    }

    #[test]
    fn buffer_estimate_matches_the_aos_estimate() {
        let particles: Vec<Particle<f32>> = (0..500)
            .map(|i| {
                particle(
                    (i % 20) as f32 * 0.1,
                    (i % 11) as f32 * 0.1,
                    (i % 7) as f32 * 0.5,
                    (1 + i % 3) as f32 / 500.0,
                )
            })
            .collect();
        let buffer: crate::particle::ParticleBuffer<f32> = particles.iter().copied().collect();
        let aos = PoseEstimate::from_particles(&particles);
        let soa = PoseEstimate::from_buffer(&buffer);
        assert!((aos.pose.x - soa.pose.x).abs() < 1e-5);
        assert!((aos.pose.y - soa.pose.y).abs() < 1e-5);
        assert!((aos.position_std_m - soa.position_std_m).abs() < 1e-5);
        assert!((aos.yaw_std_rad - soa.yaw_std_rad).abs() < 1e-5);
        assert!((aos.neff - soa.neff).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "empty particle set")]
    fn empty_particle_set_panics() {
        let empty: Vec<Particle<f32>> = vec![];
        let _ = PoseEstimate::from_particles(&empty);
    }
}
