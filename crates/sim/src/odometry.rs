//! Flow-deck odometry model.
//!
//! The Crazyflie estimates its motion from the Flow-deck v2 (downward optical
//! flow + 1D ToF height) fused by the stock extended Kalman filter. That
//! estimate drifts: optical flow has a small scale error (texture and height
//! dependent), per-step noise, and the yaw — which comes from gyro integration —
//! drifts slowly. The whole point of the paper's MCL is to correct exactly this
//! drift, so the simulated odometry must exhibit it.
//!
//! [`OdometryModel::corrupt`] turns the true body-frame increment of a simulation
//! step into what the Flow-deck would have reported: scaled, noisy and with a
//! slowly drifting yaw.

use mcl_core::MotionDelta;
use rand::Rng;

/// Noise and drift parameters of the odometry model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdometryConfig {
    /// Standard deviation of the per-sequence translation scale error
    /// (1.0 = perfect scale). Optical flow typically holds a few percent.
    pub scale_error_std: f32,
    /// Additive translation noise per metre travelled (standard deviation of the
    /// noise on a 1 m leg), metres.
    pub noise_per_m: f32,
    /// Additive translation noise floor per step, metres.
    pub noise_floor_m: f32,
    /// Additive yaw noise per step, radians.
    pub yaw_noise_rad: f32,
    /// Constant yaw drift rate, radians per second (gyro bias).
    pub yaw_drift_rad_per_s: f32,
}

impl Default for OdometryConfig {
    fn default() -> Self {
        OdometryConfig {
            scale_error_std: 0.03,
            noise_per_m: 0.08,
            noise_floor_m: 0.002,
            yaw_noise_rad: 0.004,
            yaw_drift_rad_per_s: 0.015,
        }
    }
}

impl OdometryConfig {
    /// A perfect odometry (useful for isolating other error sources in tests).
    pub fn perfect() -> Self {
        OdometryConfig {
            scale_error_std: 0.0,
            noise_per_m: 0.0,
            noise_floor_m: 0.0,
            yaw_noise_rad: 0.0,
            yaw_drift_rad_per_s: 0.0,
        }
    }
}

/// The per-sequence odometry corruption model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdometryModel {
    config: OdometryConfig,
    scale: f32,
    yaw_drift_per_step: f32,
}

impl OdometryModel {
    /// Creates a model for one sequence: the scale error and the sign of the yaw
    /// drift are drawn once per sequence (they are biases, not per-step noise).
    pub fn new<R: Rng + ?Sized>(config: OdometryConfig, dt_s: f32, rng: &mut R) -> Self {
        let scale = 1.0
            + if config.scale_error_std > 0.0 {
                gaussian(rng, 0.0, config.scale_error_std)
            } else {
                0.0
            };
        let drift_sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        OdometryModel {
            config,
            scale,
            yaw_drift_per_step: drift_sign * config.yaw_drift_rad_per_s * dt_s,
        }
    }

    /// The per-sequence scale factor actually drawn.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The configuration.
    pub fn config(&self) -> &OdometryConfig {
        &self.config
    }

    /// Corrupts the true body-frame increment of one step.
    pub fn corrupt<R: Rng + ?Sized>(&self, truth: &MotionDelta, rng: &mut R) -> MotionDelta {
        let travelled = truth.translation();
        let sigma_xy = self.config.noise_floor_m + self.config.noise_per_m * travelled;
        MotionDelta {
            dx: truth.dx * self.scale + gaussian(rng, 0.0, sigma_xy),
            dy: truth.dy * self.scale + gaussian(rng, 0.0, sigma_xy),
            dtheta: truth.dtheta
                + self.yaw_drift_per_step
                + gaussian(rng, 0.0, self.config.yaw_noise_rad),
        }
    }
}

/// Box–Muller Gaussian sample (`std == 0` returns `mean`).
fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f32, std: f32) -> f32 {
    mcl_sensor::model::gaussian(rng, mean, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::Pose2;
    use mcl_num::RunningStats;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn perfect_odometry_reports_the_truth() {
        let model = OdometryModel::new(OdometryConfig::perfect(), 1.0 / 15.0, &mut rng(1));
        assert_eq!(model.scale(), 1.0);
        let truth = MotionDelta::new(0.03, 0.01, 0.02);
        let reported = model.corrupt(&truth, &mut rng(2));
        assert_eq!(reported, truth);
    }

    #[test]
    fn scale_error_is_constant_within_a_sequence() {
        let model = OdometryModel::new(OdometryConfig::default(), 1.0 / 15.0, &mut rng(3));
        let s = model.scale();
        assert!((s - 1.0).abs() < 0.15, "scale {s} is implausible");
        // Two different steps see the same scale (it is a bias, not noise).
        let a = model.corrupt(&MotionDelta::new(1.0, 0.0, 0.0), &mut rng(0));
        let b = model.corrupt(&MotionDelta::new(1.0, 0.0, 0.0), &mut rng(0));
        assert_eq!(a, b);
    }

    #[test]
    fn noise_magnitude_scales_with_distance_travelled() {
        let cfg = OdometryConfig {
            scale_error_std: 0.0,
            yaw_drift_rad_per_s: 0.0,
            ..OdometryConfig::default()
        };
        let model = OdometryModel::new(cfg, 1.0 / 15.0, &mut rng(4));
        let mut short = RunningStats::new();
        let mut long = RunningStats::new();
        let mut r = rng(5);
        for _ in 0..3000 {
            short.push(f64::from(
                model.corrupt(&MotionDelta::new(0.01, 0.0, 0.0), &mut r).dx - 0.01,
            ));
            long.push(f64::from(
                model.corrupt(&MotionDelta::new(0.5, 0.0, 0.0), &mut r).dx - 0.5,
            ));
        }
        assert!(long.stddev() > short.stddev() * 3.0);
        assert!(short.mean().abs() < 0.002);
    }

    #[test]
    fn yaw_drift_accumulates_over_a_sequence() {
        let cfg = OdometryConfig {
            scale_error_std: 0.0,
            noise_per_m: 0.0,
            noise_floor_m: 0.0,
            yaw_noise_rad: 0.0,
            yaw_drift_rad_per_s: 0.02,
        };
        let dt = 1.0 / 15.0;
        let model = OdometryModel::new(cfg, dt, &mut rng(6));
        let mut integrated = Pose2::default();
        let truth_step = MotionDelta::new(0.02, 0.0, 0.0);
        let mut r = rng(7);
        for _ in 0..900 {
            let d = model.corrupt(&truth_step, &mut r);
            integrated = integrated.compose(&Pose2::new(d.dx, d.dy, d.dtheta));
        }
        // 60 s at 0.02 rad/s → 1.2 rad of accumulated yaw error (sign depends on
        // the per-sequence draw).
        let yaw_error = mcl_num::angular_difference(integrated.theta, 0.0).abs();
        assert!(
            (yaw_error - 1.2).abs() < 0.05,
            "accumulated drift {yaw_error} rad"
        );
    }

    #[test]
    fn dead_reckoning_with_default_noise_drifts_noticeably() {
        // Integrating the corrupted odometry over a 60 s flight must accumulate a
        // position error that is large compared to the paper's 0.15 m MCL
        // accuracy — otherwise the localization problem would be trivial.
        let dt = 1.0 / 15.0;
        let model = OdometryModel::new(OdometryConfig::default(), dt, &mut rng(8));
        let mut truth = Pose2::default();
        let mut integrated = Pose2::default();
        let mut r = rng(9);
        for i in 0..900 {
            let step = MotionDelta::new(0.03, 0.0, if i % 90 == 0 { 0.3 } else { 0.0 });
            let noisy = model.corrupt(&step, &mut r);
            truth = truth.compose(&Pose2::new(step.dx, step.dy, step.dtheta));
            integrated = integrated.compose(&Pose2::new(noisy.dx, noisy.dy, noisy.dtheta));
        }
        let error = truth.translation_distance(&integrated);
        assert!(error > 0.3, "dead reckoning drifted only {error} m");
    }

    #[test]
    fn model_draw_is_deterministic_in_the_rng() {
        let a = OdometryModel::new(OdometryConfig::default(), 1.0 / 15.0, &mut rng(10));
        let b = OdometryModel::new(OdometryConfig::default(), 1.0 / 15.0, &mut rng(10));
        assert_eq!(a, b);
    }
}
