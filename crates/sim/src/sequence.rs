//! Recorded flight sequences: the synthetic counterpart of the paper's dataset.
//!
//! A [`Sequence`] holds, for every 15 Hz step of a flight: the ground-truth pose
//! (the Vicon measurement in the paper), the odometry increment reported by the
//! Flow-deck model, and the ToF frames of the front and rear sensors. The filter
//! under evaluation only ever sees the odometry and the ToF frames; the ground
//! truth is reserved for the metrics, exactly as in the paper's off-line
//! evaluation of its recorded sequences.

use crate::metrics::StressTimeline;
use crate::odometry::{OdometryConfig, OdometryModel};
use crate::trajectory::{Trajectory, TrajectoryConfig, TrajectoryGenerator};
use mcl_core::MotionDelta;
use mcl_gridmap::{OccupancyGrid, Pose2};
use mcl_sensor::{Beam, SensorConfig, SensorRig, ToFFrame};
use rand::{Rng, SeedableRng};

/// One 15 Hz step of a recorded sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceStep {
    /// Time since the start of the sequence, seconds.
    pub timestamp_s: f64,
    /// Ground-truth pose (only the metrics may look at this).
    pub ground_truth: Pose2,
    /// Body-frame odometry increment since the previous step, as reported by the
    /// (drifting) Flow-deck model.
    pub odometry: MotionDelta,
    /// The ToF frames captured at this step (one per mounted sensor).
    pub frames: Vec<ToFFrame>,
}

/// Configuration of the sequence generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceConfig {
    /// Trajectory parameters (duration, speed, waypoint region, …).
    pub trajectory: TrajectoryConfig,
    /// Odometry noise and drift parameters.
    pub odometry: OdometryConfig,
    /// Sensor parameters shared by the mounted sensors.
    pub sensor: SensorConfig,
    /// Number of mounted sensors: 2 = front and rear (paper default), 1 = front.
    pub sensor_count: usize,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        SequenceConfig {
            trajectory: TrajectoryConfig::default(),
            odometry: OdometryConfig::default(),
            sensor: SensorConfig::default(),
            sensor_count: 2,
        }
    }
}

/// A complete recorded flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Identifier (sequence index within a scenario).
    pub id: usize,
    /// The seed the sequence was generated from.
    pub seed: u64,
    /// The configuration used to generate it.
    pub config: SequenceConfig,
    /// The per-step records.
    pub steps: Vec<SequenceStep>,
    /// Stress events injected into this sequence (kidnaps, dropout windows).
    /// Empty for nominal recordings; the metrics tracker reads it to score
    /// recovery time and dropout-window ATE.
    pub stress: StressTimeline,
}

impl Sequence {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the sequence has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Duration of the sequence in seconds.
    pub fn duration_s(&self) -> f64 {
        self.steps.last().map(|s| s.timestamp_s).unwrap_or(0.0)
    }

    /// The ground-truth trajectory (for plotting / metrics).
    pub fn ground_truth(&self) -> Vec<Pose2> {
        self.steps.iter().map(|s| s.ground_truth).collect()
    }

    /// Flattens the frames of step `i` into the beam list the filter consumes.
    pub fn beams(&self, i: usize) -> Vec<Beam> {
        SensorRig::frames_to_beams(&self.steps[i].frames)
    }
}

/// Generates sequences against a ground-truth map.
#[derive(Debug, Clone)]
pub struct SequenceGenerator {
    config: SequenceConfig,
}

impl SequenceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics when `sensor_count` is not 1 or 2 — the deck carries at most two
    /// sensors.
    pub fn new(config: SequenceConfig) -> Self {
        assert!(
            config.sensor_count == 1 || config.sensor_count == 2,
            "the multizone ToF deck carries one or two sensors"
        );
        SequenceGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SequenceConfig {
        &self.config
    }

    /// Generates one sequence with the given id and seed. Generation is fully
    /// deterministic in `(config, id, seed)`.
    pub fn generate(&self, map: &OccupancyGrid, id: usize, seed: u64) -> Sequence {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37));
        let trajectory = TrajectoryGenerator::new(self.config.trajectory).generate(map, &mut rng);
        self.record(map, &trajectory, id, seed, &mut rng)
    }

    /// Records a sequence along an externally supplied trajectory (used by tests
    /// and by the kidnapped-robot scenarios, which need a specific path).
    pub fn record<R: Rng + ?Sized>(
        &self,
        map: &OccupancyGrid,
        trajectory: &Trajectory,
        id: usize,
        seed: u64,
        rng: &mut R,
    ) -> Sequence {
        self.record_with_kidnaps(map, trajectory, &[], id, seed, rng)
    }

    /// [`SequenceGenerator::record`] for a kidnapped-robot flight: at every
    /// step index in `kidnap_steps` the trajectory teleports (the caller
    /// stitches the ground-truth path accordingly), and the recorded odometry
    /// reports **no motion** for that step — the Flow deck of a carried drone
    /// sees the floor leave its field of view, and the paper's firmware
    /// discards such frames. The kidnap instants are published in the
    /// sequence's [`StressTimeline`] so the metrics can score recovery time.
    ///
    /// Steps listed in `kidnap_steps` that are zero or out of range are
    /// ignored (step 0 never carries motion anyway).
    pub fn record_with_kidnaps<R: Rng + ?Sized>(
        &self,
        map: &OccupancyGrid,
        trajectory: &Trajectory,
        kidnap_steps: &[usize],
        id: usize,
        seed: u64,
        rng: &mut R,
    ) -> Sequence {
        let rig = if self.config.sensor_count == 2 {
            SensorRig::front_and_rear(self.config.sensor)
        } else {
            SensorRig::front_only(self.config.sensor)
        };
        let odometry = OdometryModel::new(self.config.odometry, trajectory.dt(), rng);

        let poses = trajectory.poses();
        let mut steps = Vec::with_capacity(poses.len());
        for (i, pose) in poses.iter().enumerate() {
            let timestamp = trajectory.timestamp(i);
            let reported = if i == 0 || kidnap_steps.contains(&i) {
                MotionDelta::default()
            } else {
                let true_delta = MotionDelta::between(&poses[i - 1], pose);
                odometry.corrupt(&true_delta, rng)
            };
            let frames = rig.capture_at(map, pose, timestamp, rng);
            steps.push(SequenceStep {
                timestamp_s: timestamp,
                ground_truth: *pose,
                odometry: reported,
                frames,
            });
        }
        let stress = StressTimeline {
            kidnap_times_s: kidnap_steps
                .iter()
                .filter(|&&s| s > 0 && s < poses.len())
                .map(|&s| trajectory.timestamp(s))
                .collect(),
            ..StressTimeline::default()
        };
        Sequence {
            id,
            seed,
            config: self.config,
            steps,
            stress,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::DroneMaze;

    fn short_config(region: (f32, f32, f32, f32)) -> SequenceConfig {
        SequenceConfig {
            trajectory: TrajectoryConfig {
                duration_s: 10.0,
                region: Some(region),
                ..TrajectoryConfig::default()
            },
            ..SequenceConfig::default()
        }
    }

    #[test]
    fn generated_sequence_has_one_record_per_sample() {
        let maze = DroneMaze::paper_layout(1);
        let config = short_config(maze.physical_region());
        let sequence = SequenceGenerator::new(config).generate(maze.map(), 0, 11);
        assert_eq!(sequence.len(), 150);
        assert!(!sequence.is_empty());
        assert!((sequence.duration_s() - 149.0 / 15.0).abs() < 1e-6);
        assert_eq!(sequence.ground_truth().len(), 150);
        for step in &sequence.steps {
            assert_eq!(step.frames.len(), 2);
        }
        // The first step carries no motion.
        assert!(sequence.steps[0].odometry.is_zero());
    }

    #[test]
    fn single_sensor_sequences_have_one_frame_per_step() {
        let maze = DroneMaze::paper_layout(2);
        let mut config = short_config(maze.physical_region());
        config.sensor_count = 1;
        let sequence = SequenceGenerator::new(config).generate(maze.map(), 3, 5);
        assert_eq!(sequence.steps[10].frames.len(), 1);
        // Fewer sensors → fewer beams per step.
        assert!(sequence.beams(10).len() <= 8);
    }

    #[test]
    fn generation_is_deterministic_in_id_and_seed() {
        let maze = DroneMaze::paper_layout(3);
        let config = short_config(maze.physical_region());
        let generator = SequenceGenerator::new(config);
        let a = generator.generate(maze.map(), 0, 7);
        let b = generator.generate(maze.map(), 0, 7);
        let c = generator.generate(maze.map(), 1, 7);
        let d = generator.generate(maze.map(), 0, 8);
        assert_eq!(a, b);
        assert_ne!(a.steps, c.steps);
        assert_ne!(a.steps, d.steps);
    }

    #[test]
    fn odometry_integration_drifts_from_ground_truth() {
        let maze = DroneMaze::paper_layout(4);
        let mut config = short_config(maze.physical_region());
        config.trajectory.duration_s = 40.0;
        let sequence = SequenceGenerator::new(config).generate(maze.map(), 0, 21);
        // Integrate the reported odometry from the true start pose.
        let mut integrated = sequence.steps[0].ground_truth;
        for step in &sequence.steps[1..] {
            integrated = integrated.compose(&Pose2::new(
                step.odometry.dx,
                step.odometry.dy,
                step.odometry.dtheta,
            ));
        }
        let truth = sequence.steps.last().unwrap().ground_truth;
        let drift = integrated.translation_distance(&truth);
        assert!(
            drift > 0.05,
            "odometry should drift over a 40 s flight (drift {drift} m)"
        );
    }

    #[test]
    fn beams_are_consistent_with_the_frames() {
        let maze = DroneMaze::paper_layout(5);
        let config = short_config(maze.physical_region());
        let sequence = SequenceGenerator::new(config).generate(maze.map(), 0, 2);
        let beams = sequence.beams(20);
        let valid_zones: usize = sequence.steps[20]
            .frames
            .iter()
            .map(|f| f.valid_zone_count())
            .sum();
        // One beam per zone column with at least one valid zone: never more than
        // 8 per sensor and never more than the number of valid zones.
        assert!(beams.len() <= 16);
        assert!(beams.len() <= valid_zones);
    }

    #[test]
    fn kidnap_steps_mask_the_reported_odometry() {
        use crate::trajectory::{Trajectory, TrajectoryGenerator};
        use rand::SeedableRng;

        let maze = DroneMaze::paper_layout(6);
        let config = short_config(maze.physical_region());
        let generator = SequenceGenerator::new(config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);

        // Stitch a trajectory that teleports at step 40.
        let tg = TrajectoryGenerator::new(config.trajectory);
        let head = tg.generate_from(maze.map(), Pose2::new(1.0, 1.0, 0.0), 40, &mut rng);
        let tail = tg.generate_from(maze.map(), Pose2::new(3.0, 3.0, 2.0), 60, &mut rng);
        let mut poses = head.poses().to_vec();
        poses.extend_from_slice(tail.poses());
        let stitched = Trajectory::new(poses, head.dt());

        let sequence = generator.record_with_kidnaps(maze.map(), &stitched, &[40], 0, 31, &mut rng);
        assert_eq!(sequence.len(), 100);
        // The ground truth jumps at the kidnap step…
        let jump = sequence.steps[39]
            .ground_truth
            .translation_distance(&sequence.steps[40].ground_truth);
        assert!(jump > 1.0, "kidnap jump only {jump} m");
        // …but the recorded odometry claims the drone did not move.
        assert!(sequence.steps[40].odometry.is_zero());
        // The kidnap instant lands in the stress timeline (40 / 15 Hz).
        assert_eq!(sequence.stress.kidnap_times_s.len(), 1);
        assert!((sequence.stress.kidnap_times_s[0] - 40.0 / 15.0).abs() < 1e-5);
        // Nominal recordings carry an empty timeline.
        let nominal = generator.generate(maze.map(), 0, 31);
        assert!(nominal.stress.is_empty());
    }

    #[test]
    #[should_panic(expected = "one or two sensors")]
    fn invalid_sensor_count_is_rejected() {
        let config = SequenceConfig {
            sensor_count: 3,
            ..SequenceConfig::default()
        };
        let _ = SequenceGenerator::new(config);
    }
}
