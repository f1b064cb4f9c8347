//! The STM32-side state estimator.
//!
//! The Crazyflie firmware estimates its pose by integrating the Flow-deck
//! odometry in its EKF; that estimate drifts, which is precisely why the paper
//! adds MCL. [`StateEstimator`] reproduces the part of that loop the
//! localization pipeline interacts with: it integrates body-frame increments
//! into a world-frame pose, and — when the MCL publishes a new estimate — blends
//! the correction in, so the pose consumed by a planner is both smooth (odometry
//! rate) and globally consistent (MCL rate).

use mcl_core::{MotionDelta, PoseEstimate};
use mcl_gridmap::Pose2;
use mcl_num::angular_difference;

/// Configuration of the correction blending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEstimatorConfig {
    /// Blend factor applied to each MCL correction (1.0 = jump straight to the
    /// MCL pose, 0.0 = ignore MCL entirely).
    pub correction_gain: f32,
    /// Corrections are only applied when the MCL estimate is confident enough:
    /// its position spread must be below this threshold, metres.
    pub max_position_std_m: f32,
}

impl Default for StateEstimatorConfig {
    fn default() -> Self {
        StateEstimatorConfig {
            correction_gain: 0.8,
            max_position_std_m: 0.5,
        }
    }
}

/// Odometry integrator with MCL correction blending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEstimator {
    config: StateEstimatorConfig,
    pose: Pose2,
    corrections_applied: u64,
    corrections_rejected: u64,
}

impl StateEstimator {
    /// Creates an estimator starting from `initial_pose`.
    pub fn new(config: StateEstimatorConfig, initial_pose: Pose2) -> Self {
        StateEstimator {
            config,
            pose: initial_pose,
            corrections_applied: 0,
            corrections_rejected: 0,
        }
    }

    /// The current fused pose.
    pub fn pose(&self) -> Pose2 {
        self.pose
    }

    /// Number of MCL corrections blended in.
    pub fn corrections_applied(&self) -> u64 {
        self.corrections_applied
    }

    /// Number of MCL corrections rejected for being too uncertain.
    pub fn corrections_rejected(&self) -> u64 {
        self.corrections_rejected
    }

    /// Integrates one body-frame odometry increment.
    pub fn integrate(&mut self, delta: &MotionDelta) {
        self.pose = self
            .pose
            .compose(&Pose2::new(delta.dx, delta.dy, delta.dtheta));
    }

    /// Blends an MCL estimate into the integrated pose. Returns `true` when the
    /// correction was applied, `false` when it was rejected as too uncertain.
    pub fn correct(&mut self, estimate: &PoseEstimate) -> bool {
        if estimate.position_std_m > self.config.max_position_std_m {
            self.corrections_rejected += 1;
            return false;
        }
        let g = self.config.correction_gain;
        let dyaw = angular_difference(estimate.pose.theta, self.pose.theta);
        self.pose = Pose2::new(
            self.pose.x + g * (estimate.pose.x - self.pose.x),
            self.pose.y + g * (estimate.pose.y - self.pose.y),
            self.pose.theta + g * dyaw,
        );
        self.corrections_applied += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_core::Particle;

    fn estimate(x: f32, y: f32, theta: f32, spread: f32) -> PoseEstimate {
        // Build an estimate with a controlled spread out of two particles.
        let half = spread / 2.0f32.sqrt();
        PoseEstimate::from_particles(&[
            Particle::<f32> {
                x: x - half,
                y,
                theta,
                weight: 0.5,
            },
            Particle::<f32> {
                x: x + half,
                y,
                theta,
                weight: 0.5,
            },
        ])
    }

    #[test]
    fn integration_composes_body_frame_increments() {
        let mut est = StateEstimator::new(
            StateEstimatorConfig::default(),
            Pose2::new(1.0, 1.0, core::f32::consts::FRAC_PI_2),
        );
        est.integrate(&MotionDelta::new(0.5, 0.0, 0.0));
        let p = est.pose();
        assert!((p.x - 1.0).abs() < 1e-5);
        assert!((p.y - 1.5).abs() < 1e-5);
    }

    #[test]
    fn confident_corrections_pull_the_pose_towards_the_mcl_estimate() {
        let mut est = StateEstimator::new(StateEstimatorConfig::default(), Pose2::default());
        est.integrate(&MotionDelta::new(1.0, 0.0, 0.0));
        // MCL says the drone is actually at (2, 0) with a tight spread.
        let applied = est.correct(&estimate(2.0, 0.0, 0.0, 0.01));
        assert!(applied);
        assert_eq!(est.corrections_applied(), 1);
        // With gain 0.8 the fused x moves 80 % of the way from 1.0 to 2.0.
        assert!((est.pose().x - 1.8).abs() < 1e-3);
    }

    #[test]
    fn uncertain_corrections_are_rejected() {
        let mut est = StateEstimator::new(StateEstimatorConfig::default(), Pose2::default());
        let applied = est.correct(&estimate(3.0, 0.0, 0.0, 2.0));
        assert!(!applied);
        assert_eq!(est.corrections_rejected(), 1);
        assert_eq!(est.pose(), Pose2::default());
    }

    #[test]
    fn yaw_corrections_take_the_short_way_around() {
        let mut est = StateEstimator::new(
            StateEstimatorConfig {
                correction_gain: 1.0,
                ..StateEstimatorConfig::default()
            },
            Pose2::new(0.0, 0.0, 0.1),
        );
        est.correct(&estimate(0.0, 0.0, core::f32::consts::TAU - 0.1, 0.01));
        // The corrected heading should be ~ -0.1 (i.e. 2π−0.1), not π.
        let theta = est.pose().theta;
        assert!(theta > core::f32::consts::PI, "theta {theta}");
    }
}
