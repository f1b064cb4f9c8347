//! Waypoint trajectories through the free space of a maze.
//!
//! The paper's sequences are manual flights through the physical maze at the
//! gentle speeds a Crazyflie flies indoors. The generator reproduces that: it
//! picks random waypoints inside a designated region of the map (with clearance
//! from the walls), checks line-of-sight between consecutive waypoints with the
//! sensor ray caster, and flies the path with bounded linear speed and yaw rate,
//! yaw always turning towards the direction of travel. The result is sampled at
//! the ToF frame rate (15 Hz), which is also the rate the paper's pipeline runs
//! its updates at.

use mcl_gridmap::{OccupancyGrid, Point2, Pose2};
use mcl_num::angular_difference;
use mcl_sensor::raycast::{raycast, RaycastHit};
use rand::Rng;

/// Configuration of the trajectory generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Duration of the flight in seconds (the paper's sequences are ~60 s).
    pub duration_s: f32,
    /// Sample rate in hertz (15 Hz, the ToF frame rate).
    pub rate_hz: f32,
    /// Maximum linear speed in metres per second.
    pub max_speed_mps: f32,
    /// Maximum yaw rate in radians per second.
    pub max_yaw_rate_rps: f32,
    /// Minimum clearance between a waypoint and the nearest wall, metres.
    pub waypoint_clearance_m: f32,
    /// Region `(x0, y0, x1, y1)` waypoints are restricted to; `None` uses the
    /// whole map (the paper restricts flights to the 16 m² physical maze).
    pub region: Option<(f32, f32, f32, f32)>,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            duration_s: 60.0,
            rate_hz: 15.0,
            max_speed_mps: 0.5,
            max_yaw_rate_rps: 1.2,
            waypoint_clearance_m: 0.25,
            region: None,
        }
    }
}

impl TrajectoryConfig {
    /// Number of samples the trajectory will contain.
    pub fn sample_count(&self) -> usize {
        (self.duration_s * self.rate_hz).ceil() as usize
    }

    /// The sampling period in seconds.
    pub fn dt(&self) -> f32 {
        1.0 / self.rate_hz
    }
}

/// A time-stamped sequence of ground-truth poses.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    dt: f32,
    poses: Vec<Pose2>,
}

impl Trajectory {
    /// Creates a trajectory from its samples and the sampling period.
    ///
    /// # Panics
    ///
    /// Panics when `poses` is empty or `dt` is not positive.
    pub fn new(poses: Vec<Pose2>, dt: f32) -> Self {
        assert!(!poses.is_empty(), "a trajectory needs at least one pose");
        assert!(dt > 0.0, "the sampling period must be positive");
        Trajectory { dt, poses }
    }

    /// The sampling period in seconds.
    pub fn dt(&self) -> f32 {
        self.dt
    }

    /// The poses in order.
    pub fn poses(&self) -> &[Pose2] {
        &self.poses
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.poses.len()
    }

    /// True when the trajectory has no samples (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Total duration in seconds.
    pub fn duration_s(&self) -> f32 {
        self.dt * (self.poses.len().saturating_sub(1)) as f32
    }

    /// Total distance travelled, metres.
    pub fn path_length_m(&self) -> f32 {
        self.poses
            .windows(2)
            .map(|w| w[0].translation_distance(&w[1]))
            .sum()
    }

    /// The timestamp of sample `i`, seconds.
    pub fn timestamp(&self, i: usize) -> f64 {
        f64::from(self.dt) * i as f64
    }
}

/// Generates waypoint trajectories inside a map.
#[derive(Debug, Clone)]
pub struct TrajectoryGenerator {
    config: TrajectoryConfig,
}

impl TrajectoryGenerator {
    /// Creates a generator.
    pub fn new(config: TrajectoryConfig) -> Self {
        TrajectoryGenerator { config }
    }

    /// The generator configuration.
    pub fn config(&self) -> &TrajectoryConfig {
        &self.config
    }

    /// Generates a trajectory through the free space of `map`.
    ///
    /// # Panics
    ///
    /// Panics when the map (restricted to the configured region) contains no
    /// candidate waypoint with the required clearance.
    pub fn generate<R: Rng + ?Sized>(&self, map: &OccupancyGrid, rng: &mut R) -> Trajectory {
        // One candidate scan serves both the start draw and the flight: the
        // clearance scan is the expensive part of generation.
        let candidates = self.checked_candidates(map);
        let start = self.random_start_from(&candidates, rng);
        self.generate_with_candidates(map, &candidates, start, self.config.sample_count(), rng)
    }

    /// Draws a random start pose: a clearance-respecting waypoint candidate
    /// with a uniform heading — exactly the draw [`TrajectoryGenerator::generate`]
    /// opens with. Exposed so the scenario suite can draw kidnap teleport
    /// targets from the same distribution.
    ///
    /// # Panics
    ///
    /// Panics when the map (restricted to the configured region) contains no
    /// candidate waypoint with the required clearance.
    pub fn random_start<R: Rng + ?Sized>(&self, map: &OccupancyGrid, rng: &mut R) -> Pose2 {
        self.random_start_from(&self.checked_candidates(map), rng)
    }

    fn random_start_from<R: Rng + ?Sized>(&self, candidates: &[Point2], rng: &mut R) -> Pose2 {
        let start = candidates[rng.gen_range(0..candidates.len())];
        Pose2::new(start.x, start.y, rng.gen_range(0.0..core::f32::consts::TAU))
    }

    /// Generates a `samples`-long trajectory starting at the given pose (used
    /// by the scenario suite to stitch kidnapped-robot flights from segments).
    /// `generate` is equivalent to `generate_from` at a [`TrajectoryGenerator::random_start`]
    /// with the configured sample count.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero or no waypoint candidate exists.
    pub fn generate_from<R: Rng + ?Sized>(
        &self,
        map: &OccupancyGrid,
        start: Pose2,
        samples: usize,
        rng: &mut R,
    ) -> Trajectory {
        let candidates = self.checked_candidates(map);
        self.generate_with_candidates(map, &candidates, start, samples, rng)
    }

    fn checked_candidates(&self, map: &OccupancyGrid) -> Vec<Point2> {
        let candidates = self.waypoint_candidates(map);
        assert!(
            !candidates.is_empty(),
            "no free cells with the required clearance inside the waypoint region"
        );
        candidates
    }

    fn generate_with_candidates<R: Rng + ?Sized>(
        &self,
        map: &OccupancyGrid,
        candidates: &[Point2],
        start: Pose2,
        samples: usize,
        rng: &mut R,
    ) -> Trajectory {
        assert!(samples > 0, "a trajectory needs at least one sample");
        let dt = self.config.dt();
        let max_step = self.config.max_speed_mps * dt;
        let max_turn = self.config.max_yaw_rate_rps * dt;

        let mut pose = start;
        let mut target = self.pick_target(map, &pose, candidates, rng);
        let mut poses = Vec::with_capacity(samples);
        poses.push(pose);

        for _ in 1..samples {
            // Re-target when the current waypoint is reached.
            if pose.position().distance(&target) < 0.15 {
                target = self.pick_target(map, &pose, candidates, rng);
            }
            let to_target = target - pose.position();
            let desired_heading = to_target.y.atan2(to_target.x);
            let heading_error = angular_difference(desired_heading, pose.theta);
            let turn = heading_error.clamp(-max_turn, max_turn);
            // Only move forward when roughly facing the target, like a real
            // yaw-then-translate indoor flight.
            let forward = if heading_error.abs() < 0.6 {
                max_step.min(to_target.norm())
            } else {
                0.0
            };
            let next = pose.compose(&Pose2::new(forward, 0.0, turn));
            // Never fly into a wall: if the step would leave free space, hold
            // position and keep turning (the next target pick will resolve it).
            pose = if map.is_free_world(next.x, next.y) {
                next
            } else {
                target = self.pick_target(map, &pose, candidates, rng);
                Pose2::new(pose.x, pose.y, next.theta)
            };
            poses.push(pose);
        }
        Trajectory::new(poses, dt)
    }

    /// All waypoint candidates: free cells with the configured clearance inside
    /// the configured region.
    fn waypoint_candidates(&self, map: &OccupancyGrid) -> Vec<Point2> {
        let clearance_cells = (self.config.waypoint_clearance_m / map.resolution()).ceil() as i64;
        let region = self
            .config
            .region
            .unwrap_or((0.0, 0.0, map.width_m(), map.height_m()));
        map.indices()
            .filter_map(|idx| {
                let centre = map.cell_to_world(idx);
                if centre.x < region.0
                    || centre.y < region.1
                    || centre.x > region.2
                    || centre.y > region.3
                {
                    return None;
                }
                for dr in -clearance_cells..=clearance_cells {
                    for dc in -clearance_cells..=clearance_cells {
                        let col = idx.col as i64 + dc;
                        let row = idx.row as i64 + dr;
                        if col < 0 || row < 0 {
                            return None;
                        }
                        let n = mcl_gridmap::CellIndex::new(col as usize, row as usize);
                        if !map.contains(n) || map.state(n) != mcl_gridmap::CellState::Free {
                            return None;
                        }
                    }
                }
                Some(centre)
            })
            .collect()
    }

    /// Picks a random candidate with line of sight from the current pose.
    fn pick_target<R: Rng + ?Sized>(
        &self,
        map: &OccupancyGrid,
        pose: &Pose2,
        candidates: &[Point2],
        rng: &mut R,
    ) -> Point2 {
        for _ in 0..64 {
            let candidate = candidates[rng.gen_range(0..candidates.len())];
            let to = candidate - pose.position();
            let distance = to.norm();
            if distance < 0.3 {
                continue;
            }
            let angle = to.y.atan2(to.x);
            let clear = match raycast(map, pose.position(), angle, distance) {
                RaycastHit::Miss => true,
                RaycastHit::Obstacle { distance_m, .. } => distance_m > distance,
            };
            if clear {
                return candidate;
            }
        }
        // Nothing visible (boxed into a corner): stay near the current position.
        pose.position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::{DroneMaze, MapBuilder};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn config_sample_count_and_dt() {
        let cfg = TrajectoryConfig::default();
        assert_eq!(cfg.sample_count(), 900);
        assert!((cfg.dt() - 1.0 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn trajectory_accessors() {
        let poses = vec![
            Pose2::new(0.0, 0.0, 0.0),
            Pose2::new(1.0, 0.0, 0.0),
            Pose2::new(1.0, 1.0, 0.0),
        ];
        let t = Trajectory::new(poses, 0.5);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.duration_s(), 1.0);
        assert!((t.path_length_m() - 2.0).abs() < 1e-6);
        assert_eq!(t.timestamp(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one pose")]
    fn empty_trajectory_is_rejected() {
        let _ = Trajectory::new(vec![], 0.1);
    }

    #[test]
    fn generated_trajectory_stays_in_free_space() {
        let maze = DroneMaze::paper_layout(3);
        let map = maze.map();
        let cfg = TrajectoryConfig {
            duration_s: 20.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let t = TrajectoryGenerator::new(cfg).generate(map, &mut rng(1));
        assert_eq!(t.len(), 300);
        for p in t.poses() {
            assert!(
                map.is_free_world(p.x, p.y),
                "trajectory leaves free space at {p}"
            );
        }
        // The drone actually moves.
        assert!(
            t.path_length_m() > 1.0,
            "path too short: {}",
            t.path_length_m()
        );
    }

    #[test]
    fn trajectory_respects_speed_and_yaw_limits() {
        let maze = DroneMaze::paper_layout(4);
        let cfg = TrajectoryConfig {
            duration_s: 15.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let t = TrajectoryGenerator::new(cfg).generate(maze.map(), &mut rng(2));
        let max_step = cfg.max_speed_mps * cfg.dt() + 1e-5;
        let max_turn = cfg.max_yaw_rate_rps * cfg.dt() + 1e-5;
        for w in t.poses().windows(2) {
            assert!(w[0].translation_distance(&w[1]) <= max_step);
            assert!(w[0].rotation_distance(&w[1]) <= max_turn);
        }
    }

    #[test]
    fn waypoints_respect_the_region_restriction() {
        let maze = DroneMaze::paper_layout(5);
        let cfg = TrajectoryConfig {
            duration_s: 30.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let t = TrajectoryGenerator::new(cfg).generate(maze.map(), &mut rng(3));
        let (x0, y0, x1, y1) = maze.physical_region();
        for p in t.poses() {
            assert!(p.x >= x0 - 0.2 && p.x <= x1 + 0.2, "x {p}");
            assert!(p.y >= y0 - 0.2 && p.y <= y1 + 0.2, "y {p}");
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_rng_seed() {
        let maze = DroneMaze::paper_layout(6);
        let cfg = TrajectoryConfig {
            duration_s: 10.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let a = TrajectoryGenerator::new(cfg).generate(maze.map(), &mut rng(9));
        let b = TrajectoryGenerator::new(cfg).generate(maze.map(), &mut rng(9));
        let c = TrajectoryGenerator::new(cfg).generate(maze.map(), &mut rng(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_is_random_start_plus_generate_from() {
        // The refactor for the scenario suite must not change the RNG draw
        // order of the original entry point.
        let maze = DroneMaze::paper_layout(7);
        let cfg = TrajectoryConfig {
            duration_s: 8.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let generator = TrajectoryGenerator::new(cfg);
        let direct = generator.generate(maze.map(), &mut rng(5));
        let mut r = rng(5);
        let start = generator.random_start(maze.map(), &mut r);
        let stitched = generator.generate_from(maze.map(), start, cfg.sample_count(), &mut r);
        assert_eq!(direct, stitched);
    }

    #[test]
    fn generate_from_starts_at_the_given_pose_and_length() {
        let maze = DroneMaze::paper_layout(8);
        let cfg = TrajectoryConfig {
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        };
        let generator = TrajectoryGenerator::new(cfg);
        let start = Pose2::new(1.0, 1.0, 0.3);
        let t = generator.generate_from(maze.map(), start, 45, &mut rng(4));
        assert_eq!(t.len(), 45);
        assert_eq!(t.poses()[0], start);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_sample_segment_is_rejected() {
        let maze = DroneMaze::paper_layout(9);
        let generator = TrajectoryGenerator::new(TrajectoryConfig::default());
        let _ = generator.generate_from(maze.map(), Pose2::default(), 0, &mut rng(1));
    }

    #[test]
    #[should_panic(expected = "no free cells")]
    fn fully_blocked_map_is_rejected() {
        let blocked = MapBuilder::new(1.0, 1.0, 0.05)
            .filled_rect((0.0, 0.0), (1.0, 1.0))
            .build();
        let _ =
            TrajectoryGenerator::new(TrajectoryConfig::default()).generate(&blocked, &mut rng(0));
    }
}
