//! Planar geometry: points, poses and frame transforms.
//!
//! The nano-UAV flies at a fixed height, so the whole pipeline works in 2D. A
//! [`Pose2`] is the drone (or particle) state `(x, y, θ)`; a [`Point2`] is a
//! position such as a beam end point. Poses compose like rigid-body transforms:
//! `parent.compose(&child)` expresses `child` (given in the `parent` frame) in the
//! world frame, which is exactly what both the motion model (odometry increments
//! are body-frame) and the sensor model (zone directions are body-frame) need.

use mcl_num::{angular_difference, normalize_angle};

/// A point in the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate in metres.
    pub x: f32,
    /// Y coordinate in metres.
    pub y: f32,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub fn new(x: f32, y: f32) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point2) -> f32 {
        (*self - *other).norm()
    }

    /// Euclidean norm of the position vector.
    pub fn norm(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

impl core::ops::Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl core::ops::Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl core::ops::Mul<f32> for Point2 {
    type Output = Point2;
    fn mul(self, rhs: f32) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl core::fmt::Display for Point2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// A planar pose `(x, y, θ)` with the yaw angle normalized to `[0, 2π)`.
///
/// # Example
///
/// ```
/// use mcl_gridmap::{Point2, Pose2};
/// use core::f32::consts::FRAC_PI_2;
///
/// // A drone at (1, 0) facing +Y sees a point 2 m ahead at (1, 2).
/// let pose = Pose2::new(1.0, 0.0, FRAC_PI_2);
/// let p = pose.transform_point(Point2::new(2.0, 0.0));
/// assert!((p.x - 1.0).abs() < 1e-6);
/// assert!((p.y - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose2 {
    /// X coordinate in metres.
    pub x: f32,
    /// Y coordinate in metres.
    pub y: f32,
    /// Yaw angle in radians, in `[0, 2π)`.
    pub theta: f32,
}

impl Pose2 {
    /// Creates a pose, normalizing the yaw angle into `[0, 2π)`.
    pub fn new(x: f32, y: f32, theta: f32) -> Self {
        Pose2 {
            x,
            y,
            theta: normalize_angle(theta),
        }
    }

    /// The position part of the pose.
    pub fn position(&self) -> Point2 {
        Point2::new(self.x, self.y)
    }

    /// Composes this pose with a pose expressed in this pose's frame, returning
    /// the result in the world frame (`T_world_child = T_world_self · T_self_child`).
    pub fn compose(&self, local: &Pose2) -> Pose2 {
        let (s, c) = self.theta.sin_cos();
        Pose2::new(
            self.x + c * local.x - s * local.y,
            self.y + s * local.x + c * local.y,
            self.theta + local.theta,
        )
    }

    /// Expresses `other` (a world-frame pose) in this pose's frame
    /// (`T_self_other = T_world_self⁻¹ · T_world_other`).
    pub fn relative_to(&self, other: &Pose2) -> Pose2 {
        let dx = other.x - self.x;
        let dy = other.y - self.y;
        let (s, c) = self.theta.sin_cos();
        Pose2::new(
            c * dx + s * dy,
            -s * dx + c * dy,
            angular_difference(other.theta, self.theta),
        )
    }

    /// Transforms a point given in this pose's body frame into the world frame.
    pub fn transform_point(&self, local: Point2) -> Point2 {
        let (s, c) = self.theta.sin_cos();
        Point2::new(
            self.x + c * local.x - s * local.y,
            self.y + s * local.x + c * local.y,
        )
    }

    /// Euclidean distance between the positions of two poses.
    pub fn translation_distance(&self, other: &Pose2) -> f32 {
        self.position().distance(&other.position())
    }

    /// Magnitude of the shortest rotation between the two headings, in radians.
    pub fn rotation_distance(&self, other: &Pose2) -> f32 {
        angular_difference(self.theta, other.theta).abs()
    }

    /// The inverse transform: composing a pose with its inverse yields identity.
    pub fn inverse(&self) -> Pose2 {
        let (s, c) = self.theta.sin_cos();
        Pose2::new(
            -(c * self.x + s * self.y),
            -(-s * self.x + c * self.y),
            -self.theta,
        )
    }
}

impl core::fmt::Display for Pose2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "({:.3} m, {:.3} m, {:.1}°)",
            self.x,
            self.y,
            self.theta.to_degrees()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn point_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(b - a, Point2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert!((a.distance(&b) - (4.0f32 + 9.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn pose_normalizes_angle_on_construction() {
        let p = Pose2::new(0.0, 0.0, -FRAC_PI_2);
        assert!((p.theta - 1.5 * PI).abs() < 1e-6);
        let q = Pose2::new(0.0, 0.0, 2.0 * PI + 0.5);
        assert!((q.theta - 0.5).abs() < 1e-5);
    }

    #[test]
    fn compose_with_identity_is_identity() {
        let p = Pose2::new(1.0, 2.0, 0.7);
        let id = Pose2::default();
        let r = p.compose(&id);
        assert!((r.x - p.x).abs() < 1e-6);
        assert!((r.y - p.y).abs() < 1e-6);
        assert!((r.theta - p.theta).abs() < 1e-6);
    }

    #[test]
    fn compose_then_relative_roundtrips() {
        let parent = Pose2::new(1.0, -2.0, 1.1);
        let local = Pose2::new(0.4, 0.2, -0.3);
        let world = parent.compose(&local);
        let back = parent.relative_to(&world);
        assert!((back.x - local.x).abs() < 1e-5);
        assert!((back.y - local.y).abs() < 1e-5);
        assert!(angular_difference(back.theta, local.theta).abs() < 1e-5);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Pose2::new(2.0, 3.0, 0.9);
        let r = p.compose(&p.inverse());
        assert!(r.x.abs() < 1e-5);
        assert!(r.y.abs() < 1e-5);
        assert!(angular_difference(r.theta, 0.0).abs() < 1e-5);
    }

    #[test]
    fn transform_point_rotates_and_translates() {
        let pose = Pose2::new(0.0, 1.0, PI);
        let p = pose.transform_point(Point2::new(1.0, 0.0));
        assert!((p.x + 1.0).abs() < 1e-6);
        assert!((p.y - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distances_between_poses() {
        let a = Pose2::new(0.0, 0.0, 0.1);
        let b = Pose2::new(3.0, 4.0, 2.0 * PI - 0.1);
        assert!((a.translation_distance(&b) - 5.0).abs() < 1e-6);
        assert!((a.rotation_distance(&b) - 0.2).abs() < 1e-6);
    }
}
