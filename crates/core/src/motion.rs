//! Odometry motion model (the prediction step).
//!
//! Odometry on the Crazyflie comes from the Flow-deck's optical-flow sensor fused
//! by the stock extended Kalman filter; the GAP9 receives pose increments. The
//! prediction step samples every particle from the proposal distribution
//! `p(x_t | x_{t−1}, u_t)` by composing the particle's pose with the body-frame
//! odometry increment perturbed by zero-mean Gaussian noise with the configured
//! standard deviations `σ_odom = (σ_x, σ_y, σ_θ)`.

use crate::particle::Particle;
use crate::rng::CounterRng;
use mcl_gridmap::Pose2;
use mcl_num::math::sin_cos;
use mcl_num::{normalize_angle, Scalar};
use serde::{Deserialize, Serialize};

/// A body-frame odometry increment `u_t`: how far the drone moved and rotated
/// since the previous motion update, expressed in its own (previous) body frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MotionDelta {
    /// Forward displacement, metres.
    pub dx: f32,
    /// Leftward displacement, metres.
    pub dy: f32,
    /// Yaw change, radians.
    pub dtheta: f32,
}

impl MotionDelta {
    /// Creates an increment.
    pub fn new(dx: f32, dy: f32, dtheta: f32) -> Self {
        MotionDelta { dx, dy, dtheta }
    }

    /// The increment that maps `previous` onto `current` (both world-frame poses),
    /// expressed in `previous`'s body frame — what a perfect odometry would report.
    pub fn between(previous: &Pose2, current: &Pose2) -> Self {
        let rel = previous.relative_to(current);
        MotionDelta {
            dx: rel.x,
            dy: rel.y,
            dtheta: mcl_num::angular_difference(current.theta, previous.theta),
        }
    }

    /// Translation magnitude of the increment, metres.
    pub fn translation(&self) -> f32 {
        (self.dx * self.dx + self.dy * self.dy).sqrt()
    }

    /// Rotation magnitude of the increment, radians.
    pub fn rotation(&self) -> f32 {
        self.dtheta.abs()
    }

    /// Accumulates another increment on top of this one (both body-frame).
    ///
    /// Used by the asynchronous update gating: odometry arrives faster than the
    /// observation gate opens, so increments are composed until they are applied.
    ///
    /// The composition uses the owned [`sin_cos`], so the accumulated
    /// increment is the same bits on every host.
    pub fn accumulate(&self, next: &MotionDelta) -> Self {
        // Compose the two relative transforms.
        let (s, c) = sin_cos(self.dtheta);
        MotionDelta {
            dx: self.dx + c * next.dx - s * next.dy,
            dy: self.dy + s * next.dx + c * next.dy,
            dtheta: mcl_num::angular_difference(self.dtheta + next.dtheta, 0.0),
        }
    }

    /// Returns `true` when every component is finite (neither NaN nor ±∞).
    pub fn is_finite(&self) -> bool {
        self.dx.is_finite() && self.dy.is_finite() && self.dtheta.is_finite()
    }

    /// Returns `true` when both translation and rotation are negligible.
    pub fn is_zero(&self) -> bool {
        self.translation() < 1e-9 && self.rotation() < 1e-9
    }
}

/// The sampling motion model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionModel {
    sigma: [f32; 3],
}

impl MotionModel {
    /// Creates a motion model with the noise standard deviations
    /// `(σ_x, σ_y, σ_θ)`.
    pub fn new(sigma_odom: [f32; 3]) -> Self {
        MotionModel { sigma: sigma_odom }
    }

    /// The configured noise standard deviations.
    pub fn sigma(&self) -> [f32; 3] {
        self.sigma
    }

    /// Samples the new pose of one particle given the odometry increment.
    ///
    /// The per-particle noise stream is identified by `(seed, update, index)` so
    /// that the result is identical no matter which core processes the particle.
    /// Four uniforms feed two Box–Muller pairs: the first pair perturbs the
    /// forward and lateral step, the cosine half of the second the yaw. This
    /// is the reference op sequence every kernel backend replays (the AVX2
    /// body lane by lane):
    ///
    /// ```text
    /// (n_x, n_y) = box_muller(u0, u1),  (n_θ, _) = box_muller(u2, u3)
    /// dx = δx + σx·n_x,  dy = δy + σy·n_y,  dθ = δθ + σθ·n_θ   (σ ≤ 0: no noise)
    /// (s, c) = sin_cos(θ)
    /// x' = (x + c·dx) − s·dy,  y' = (y + s·dx) + c·dy,  θ' = normalize_angle(θ + dθ)
    /// ```
    pub fn sample<S: Scalar>(
        &self,
        particle: &Particle<S>,
        delta: &MotionDelta,
        seed: u64,
        update_index: u64,
        particle_index: u64,
    ) -> Particle<S> {
        let mut rng = CounterRng::for_particle(seed, update_index, particle_index);
        let (n_x, n_y) = rng.standard_normal_pair();
        let (n_theta, _) = rng.standard_normal_pair();
        let dx = perturb(delta.dx, self.sigma[0], n_x);
        let dy = perturb(delta.dy, self.sigma[1], n_y);
        let dtheta = perturb(delta.dtheta, self.sigma[2], n_theta);
        let (x, y, theta) = (
            particle.x.to_f32(),
            particle.y.to_f32(),
            particle.theta.to_f32(),
        );
        let (s, c) = sin_cos(theta);
        Particle {
            x: S::from_f32(x + c * dx - s * dy),
            y: S::from_f32(y + s * dx + c * dy),
            theta: S::from_f32(normalize_angle(theta + dtheta)),
            weight: particle.weight,
        }
    }
}

/// `mean + std · n`, or exactly `mean` when `std ≤ 0` (a noise-free axis
/// stays bit-exact, signed zeros included).
#[inline]
fn perturb(mean: f32, std: f32, n: f32) -> f32 {
    if std <= 0.0 {
        mean
    } else {
        mean + std * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::FRAC_PI_2;
    use mcl_num::RunningStats;

    #[test]
    fn delta_between_poses_is_body_frame() {
        // Drone at (1,1) facing +Y moves to (1,2) and turns slightly: it moved
        // forward (its +X axis is world +Y) by 1 m.
        let a = Pose2::new(1.0, 1.0, FRAC_PI_2);
        let b = Pose2::new(1.0, 2.0, FRAC_PI_2 + 0.1);
        let d = MotionDelta::between(&a, &b);
        assert!((d.dx - 1.0).abs() < 1e-5);
        assert!(d.dy.abs() < 1e-5);
        assert!((d.dtheta - 0.1).abs() < 1e-5);
        assert!((d.translation() - 1.0).abs() < 1e-5);
        assert!((d.rotation() - 0.1).abs() < 1e-5);
    }

    #[test]
    fn accumulate_composes_increments() {
        // Move forward 1 m, turn 90° left, move forward 1 m again: net effect is
        // (1, 1) displacement and a 90° rotation in the original frame.
        let leg = MotionDelta::new(1.0, 0.0, FRAC_PI_2);
        let total = leg.accumulate(&MotionDelta::new(1.0, 0.0, 0.0));
        assert!((total.dx - 1.0).abs() < 1e-5);
        assert!((total.dy - 1.0).abs() < 1e-5);
        assert!((total.dtheta - FRAC_PI_2).abs() < 1e-5);
    }

    #[test]
    fn accumulate_matches_direct_delta() {
        let start = Pose2::new(0.3, 0.8, 0.4);
        let mid = Pose2::new(0.5, 1.0, 0.9);
        let end = Pose2::new(0.2, 1.4, 2.0);
        let direct = MotionDelta::between(&start, &end);
        let accumulated =
            MotionDelta::between(&start, &mid).accumulate(&MotionDelta::between(&mid, &end));
        assert!((direct.dx - accumulated.dx).abs() < 1e-5);
        assert!((direct.dy - accumulated.dy).abs() < 1e-5);
        assert!((direct.dtheta - accumulated.dtheta).abs() < 1e-5);
    }

    #[test]
    fn zero_delta_detection() {
        assert!(MotionDelta::default().is_zero());
        assert!(!MotionDelta::new(0.01, 0.0, 0.0).is_zero());
        assert!(!MotionDelta::new(0.0, 0.0, 0.01).is_zero());
    }

    #[test]
    fn noise_free_model_applies_the_exact_increment() {
        let model = MotionModel::new([0.0, 0.0, 0.0]);
        let p = Particle::<f32>::from_pose(&Pose2::new(1.0, 1.0, FRAC_PI_2), 1.0);
        let moved = model.sample(&p, &MotionDelta::new(0.5, 0.0, 0.0), 0, 0, 0);
        // Facing +Y, a forward step of 0.5 m increases y.
        assert!((moved.x - 1.0).abs() < 1e-5);
        assert!((moved.y - 1.5).abs() < 1e-5);
        assert_eq!(moved.weight, 1.0);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let model = MotionModel::new([0.1, 0.05, 0.02]);
        let p = Particle::<f32>::from_pose(&Pose2::new(0.0, 0.0, 0.0), 1.0);
        let delta = MotionDelta::new(0.2, 0.0, 0.0);
        let mut xs = RunningStats::new();
        let mut ys = RunningStats::new();
        for i in 0..8000u64 {
            let s = model.sample(&p, &delta, 3, 1, i);
            xs.push(f64::from(s.x));
            ys.push(f64::from(s.y));
        }
        assert!((xs.mean() - 0.2).abs() < 0.005, "x mean {}", xs.mean());
        assert!((xs.stddev() - 0.1).abs() < 0.01);
        assert!(ys.mean().abs() < 0.005);
        assert!((ys.stddev() - 0.05).abs() < 0.01);
    }

    #[test]
    fn sampling_is_reproducible_per_particle_and_update() {
        let model = MotionModel::new([0.1, 0.1, 0.1]);
        let p = Particle::<f32>::from_pose(&Pose2::new(0.0, 0.0, 0.0), 1.0);
        let d = MotionDelta::new(0.1, 0.0, 0.0);
        let a = model.sample(&p, &d, 7, 3, 11);
        let b = model.sample(&p, &d, 7, 3, 11);
        assert_eq!(a, b);
        let c = model.sample(&p, &d, 7, 4, 11);
        assert_ne!(a, c);
    }

    #[test]
    fn non_finite_components_are_detected() {
        assert!(MotionDelta::new(0.1, -0.2, 3.0).is_finite());
        assert!(!MotionDelta::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!MotionDelta::new(0.0, f32::INFINITY, 0.0).is_finite());
        assert!(!MotionDelta::new(0.0, 0.0, f32::NEG_INFINITY).is_finite());
    }
}
