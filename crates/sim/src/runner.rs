//! Driving a filter over a recorded sequence.
//!
//! [`run_sequence`] replays a [`Sequence`] through an
//! initialized filter exactly like the on-board pipeline would see it: the
//! odometry increment of every 15 Hz step is fed to
//! [`MonteCarloLocalization::predict`], the ToF frames are flattened into a
//! [`BeamBatch`] (once per step), wrapped into an [`ObservationBatch`] —
//! together with synthesized UWB anchor ranges when the runner's
//! [`SensingMode`] asks for them — and offered to
//! [`MonteCarloLocalization::update_observations`] (which applies its own
//! `d_xy` / `d_θ` gating), and the published estimate is scored against the
//! ground truth by a [`TrajectoryErrorTracker`].
//!
//! UWB ranges are synthesized at replay time from the step's ground truth and
//! the runner's [`UwbRig`]: recorded sequences stay pure ToF recordings, and
//! the same sequence can be replayed ToF-only, UWB-only or fused. The
//! synthesis RNG is keyed on `(rig seed, sequence seed)`, so replays are
//! deterministic and independent of the filter's worker count or backend.

use crate::metrics::{ConvergenceCriterion, SequenceResult, TrajectoryErrorTracker};
use crate::sequence::Sequence;
use mcl_core::{MonteCarloLocalization, MotionDelta};
use mcl_gridmap::DistanceField;
use mcl_num::Scalar;
use mcl_sensor::{model::gaussian, AnchorRange, Beam, BeamBatch, ObservationBatch, SensorRig};
use rand::SeedableRng;

/// Which sensor modalities the runner feeds the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensingMode {
    /// ToF beams only — the paper's configuration and the default; byte-for-
    /// byte the pre-fusion replay.
    #[default]
    TofOnly,
    /// UWB anchor ranges only — infrastructure localization with no
    /// on-board perception. Ranges carry no heading information, so the
    /// convergence criterion's yaw gate makes this mode structurally weak on
    /// its own.
    UwbOnly,
    /// ToF beams and UWB anchor ranges fused in one [`ObservationBatch`].
    Fused,
}

impl SensingMode {
    /// True when the mode feeds ToF beams to the filter.
    pub fn uses_tof(self) -> bool {
        self != SensingMode::UwbOnly
    }

    /// True when the mode feeds UWB anchor ranges to the filter.
    pub fn uses_uwb(self) -> bool {
        self != SensingMode::TofOnly
    }
}

/// Maximum number of UWB anchors a [`UwbRig`] can carry (fixed capacity keeps
/// [`RunnerConfig`] `Copy`).
pub const MAX_UWB_ANCHORS: usize = 8;

/// The UWB infrastructure a replay ranges against: anchor positions, the
/// synthesized measurement noise, and an optional NLOS denial window during
/// which every anchor reports a non-finite range (a fully UWB-denied stretch
/// of the flight — the measurements exist on the wire but carry no
/// information, exercising the filter's non-finite skip rule end to end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UwbRig {
    /// Anchor positions `(x, y)` in the map frame; only the first
    /// [`UwbRig::anchor_count`] entries are live.
    anchors: [[f32; 2]; MAX_UWB_ANCHORS],
    count: usize,
    /// Standard deviation of the synthesized range noise, metres (defaults to
    /// the UWB trilateration baseline's 0.15 m).
    pub range_noise_std_m: f32,
    /// Seed of the range-noise stream (combined with the sequence seed).
    pub seed: u64,
    /// Start of the NLOS denial window as a fraction of the sequence length.
    pub denied_from: f32,
    /// End (exclusive) of the NLOS denial window as a fraction of the
    /// sequence length. A window with `denied_to <= denied_from` (the
    /// default) never denies anything.
    pub denied_to: f32,
}

impl Default for UwbRig {
    fn default() -> Self {
        UwbRig {
            anchors: [[0.0; 2]; MAX_UWB_ANCHORS],
            count: 0,
            range_noise_std_m: 0.15,
            seed: 0x0b5e,
            denied_from: 0.0,
            denied_to: 0.0,
        }
    }
}

impl UwbRig {
    /// A rig ranging against `positions` (at most [`MAX_UWB_ANCHORS`]; the
    /// surplus is ignored) with the default noise model.
    pub fn from_positions(positions: &[(f32, f32)]) -> Self {
        let mut rig = UwbRig::default();
        for &(x, y) in positions.iter().take(MAX_UWB_ANCHORS) {
            rig.anchors[rig.count] = [x, y];
            rig.count += 1;
        }
        rig
    }

    /// Returns a copy with the NLOS denial window set (fractions of the
    /// sequence length).
    pub fn with_denied_window(mut self, from: f32, to: f32) -> Self {
        self.denied_from = from;
        self.denied_to = to;
        self
    }

    /// The live anchor positions.
    pub fn anchor_positions(&self) -> &[[f32; 2]] {
        &self.anchors[..self.count]
    }

    /// Number of live anchors.
    pub fn anchor_count(&self) -> usize {
        self.count
    }

    /// True when the rig has no anchors (UWB sensing is then inert even in
    /// [`SensingMode::UwbOnly`]).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when `fraction` of the sequence falls inside the denial window.
    pub fn denied_at(&self, fraction: f32) -> bool {
        self.denied_from < self.denied_to
            && fraction >= self.denied_from
            && fraction < self.denied_to
    }
}

/// Options of the sequence runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// How many of the recorded sensors the filter may use (1 reproduces the
    /// paper's `fp32 1tof` ablation on the same recordings, 2 uses both).
    pub sensor_count: usize,
    /// The convergence / success criterion.
    pub criterion: ConvergenceCriterion,
    /// Which sensor modalities the replay feeds the filter.
    pub sensing: SensingMode,
    /// The UWB infrastructure, consulted only when
    /// [`RunnerConfig::sensing`]`.uses_uwb()`.
    pub uwb: UwbRig,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            sensor_count: 2,
            criterion: ConvergenceCriterion::default(),
            sensing: SensingMode::default(),
            uwb: UwbRig::default(),
        }
    }
}

impl RunnerConfig {
    /// A runner restricted to the forward sensor only.
    pub fn single_sensor() -> Self {
        RunnerConfig {
            sensor_count: 1,
            ..RunnerConfig::default()
        }
    }

    /// Returns a copy replaying under `sensing` against `rig`.
    pub fn with_uwb(mut self, sensing: SensingMode, rig: UwbRig) -> Self {
        self.sensing = sensing;
        self.uwb = rig;
        self
    }
}

/// One step of scenario traffic in wire form: the odometry increment and the
/// already-flattened beams a remote drone would push to a fleet server.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficStep {
    /// Body-frame odometry increment since the previous step.
    pub delta: MotionDelta,
    /// The step's beams, reduced exactly like [`run_sequence`] reduces them
    /// (`sensor_count` frame limit, then [`SensorRig::frames_to_beams`]).
    pub beams: Vec<Beam>,
}

/// Flattens `sequence` into per-step wire traffic.
///
/// A filter fed these steps — `predict(delta)` then an update over
/// `ObservationBatch::from_beams(&beams)` — computes
/// bit-identical results to [`run_sequence`] over the same sequence, because
/// [`mcl_sensor::BeamBatch::from_frames`] is defined as exactly that
/// flattening. This is the traffic source for the fleet load generator and
/// the fleet determinism harness.
pub fn sequence_traffic(sequence: &Sequence, runner: &RunnerConfig) -> Vec<TrafficStep> {
    sequence
        .steps
        .iter()
        .map(|step| {
            let frame_limit = runner.sensor_count.min(step.frames.len());
            TrafficStep {
                delta: step.odometry,
                beams: SensorRig::frames_to_beams(&step.frames[..frame_limit]),
            }
        })
        .collect()
}

/// Replays `sequence` through `filter` and returns the paper's metrics.
///
/// The filter must already be initialized (uniform over the map for global
/// localization, Gaussian for pose tracking).
///
/// # Panics
///
/// Panics if the filter has not been initialized.
pub fn run_sequence<S: Scalar, D: DistanceField>(
    filter: &mut MonteCarloLocalization<S, D>,
    sequence: &Sequence,
    runner: &RunnerConfig,
) -> SequenceResult {
    assert!(
        filter.particles().is_initialized(),
        "initialize the filter before replaying a sequence"
    );
    // The sequence's stress timeline (kidnaps, dropout windows) drives the
    // recovery-time and dropout-ATE metrics; nominal sequences carry an empty
    // timeline and score exactly the paper's three metrics.
    let mut tracker =
        TrajectoryErrorTracker::with_timeline(runner.criterion, sequence.stress.clone());
    let use_uwb = runner.sensing.uses_uwb() && !runner.uwb.is_empty();
    // One noise stream per replay, keyed on the rig and the sequence — the
    // draws happen outside the filter, so the synthesized ranges (and with
    // them the whole replay) are bit-identical for every worker count and
    // kernel backend.
    let mut uwb_rng = rand::rngs::StdRng::seed_from_u64(
        runner.uwb.seed ^ sequence.seed.rotate_left(17) ^ 0x05B5_EED0,
    );
    let samples = sequence.steps.len().max(1);
    for (index, step) in sequence.steps.iter().enumerate() {
        filter.predict(step.odometry);
        let mut observations = if runner.sensing.uses_tof() {
            let frame_limit = runner.sensor_count.min(step.frames.len());
            ObservationBatch::from_beam_batch(BeamBatch::from_frames(&step.frames[..frame_limit]))
        } else {
            ObservationBatch::new()
        };
        if use_uwb {
            // Denied (NLOS) stretches still deliver a measurement per anchor,
            // just a useless one — the non-finite skip rule in the kernel
            // (and the UWB baseline's solver) is what keeps them harmless.
            let denied = runner.uwb.denied_at(index as f32 / samples as f32);
            for &[ax, ay] in runner.uwb.anchor_positions() {
                let range = if denied {
                    f32::NAN
                } else {
                    let dx = step.ground_truth.x - ax;
                    let dy = step.ground_truth.y - ay;
                    let true_range = (dx * dx + dy * dy).sqrt();
                    true_range + gaussian(&mut uwb_rng, 0.0, runner.uwb.range_noise_std_m)
                };
                observations.push_anchor(AnchorRange::new(ax, ay, range));
            }
        }
        let outcome = filter
            .update_observations(&observations)
            .expect("filter was initialized, update cannot fail");
        // An applied update already carries the pose estimate; recomputing it
        // would run the pose-reduction kernel a second time per step.
        let estimate = match outcome.estimate() {
            Some(estimate) => *estimate,
            None => filter.estimate(),
        };
        tracker.record(step.timestamp_s, &estimate, &step.ground_truth);
    }
    let mut result = tracker.finish();
    // The population the filter actually ran: for fixed-size filters this is
    // exactly the configured count, under adaptive control it is the average
    // the KLD adaptation settled on. Counters accumulate over the filter's
    // lifetime, so reusing one filter across replays averages across them.
    let counters = filter.counters();
    result.mean_particles = if counters.updates_applied > 0 {
        counters.resampled_particles as f32 / counters.updates_applied as f32
    } else {
        filter.particles().len() as f32
    };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{SequenceConfig, SequenceGenerator};
    use crate::trajectory::TrajectoryConfig;
    use mcl_core::MclConfig;
    use mcl_gridmap::{uwb_anchor_positions, DroneMaze, EuclideanDistanceField};

    fn scenario() -> (DroneMaze, Sequence) {
        let maze = DroneMaze::paper_layout(17);
        let config = SequenceConfig {
            trajectory: TrajectoryConfig {
                duration_s: 25.0,
                region: Some(maze.physical_region()),
                ..TrajectoryConfig::default()
            },
            ..SequenceConfig::default()
        };
        let sequence = SequenceGenerator::new(config).generate(maze.map(), 0, 3);
        (maze, sequence)
    }

    #[test]
    fn tracking_run_converges_and_reports_low_ate() {
        let (maze, sequence) = scenario();
        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut filter = MonteCarloLocalization::<f32, _>::new(
            MclConfig::default().with_particles(1024).with_seed(1),
            edt,
        )
        .unwrap();
        // Pose tracking: start around the true initial pose.
        filter
            .initialize_gaussian(&sequence.steps[0].ground_truth, 0.2, 0.2, 4)
            .unwrap();
        let result = run_sequence(&mut filter, &sequence, &RunnerConfig::default());
        assert_eq!(result.steps, sequence.len());
        assert!(result.converged, "tracking run must converge: {result:?}");
        assert!(
            result.success,
            "tracking run must stay converged: {result:?}"
        );
        assert!(
            result.ate_m.unwrap() < 0.35,
            "ATE too high: {:?}",
            result.ate_m
        );
        // It converged quickly (started at the right pose).
        assert!(result.convergence_time_s.unwrap() < 5.0);
    }

    #[test]
    fn single_sensor_runner_uses_only_the_front_frames() {
        let (maze, sequence) = scenario();
        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut filter = MonteCarloLocalization::<f32, _>::new(
            MclConfig::default().with_particles(512).with_seed(2),
            edt,
        )
        .unwrap();
        filter
            .initialize_gaussian(&sequence.steps[0].ground_truth, 0.2, 0.2, 5)
            .unwrap();
        let result = run_sequence(&mut filter, &sequence, &RunnerConfig::single_sensor());
        // The run completes and scores every step; accuracy assertions live in
        // the experiment harness where statistics over seeds are available.
        assert_eq!(result.steps, sequence.len());
    }

    #[test]
    fn traffic_replay_is_bit_identical_to_run_sequence() {
        let (maze, sequence) = scenario();
        let config = MclConfig::default().with_particles(256).with_seed(9);
        let runner = RunnerConfig::single_sensor();

        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut reference = MonteCarloLocalization::<f32, _>::new(config, edt).unwrap();
        reference.initialize_uniform(maze.map(), 11).unwrap();
        let mut expected = Vec::new();
        for step in &sequence.steps {
            reference.predict(step.odometry);
            let frame_limit = runner.sensor_count.min(step.frames.len());
            let batch = BeamBatch::from_frames(&step.frames[..frame_limit]);
            let outcome = reference
                .update_observations(&ObservationBatch::from_beam_batch(batch))
                .unwrap();
            expected.push(match outcome.estimate() {
                Some(estimate) => *estimate,
                None => reference.estimate(),
            });
        }

        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut replica = MonteCarloLocalization::<f32, _>::new(config, edt).unwrap();
        replica.initialize_uniform(maze.map(), 11).unwrap();
        let traffic = sequence_traffic(&sequence, &runner);
        assert_eq!(traffic.len(), sequence.len());
        for (step, expect) in traffic.iter().zip(&expected) {
            replica.predict(step.delta);
            let outcome = replica
                .update_observations(&ObservationBatch::from_beams(&step.beams))
                .unwrap();
            let estimate = match outcome.estimate() {
                Some(estimate) => *estimate,
                None => replica.estimate(),
            };
            assert_eq!(estimate.pose.x.to_bits(), expect.pose.x.to_bits());
            assert_eq!(estimate.pose.y.to_bits(), expect.pose.y.to_bits());
            assert_eq!(estimate.pose.theta.to_bits(), expect.pose.theta.to_bits());
            assert_eq!(estimate.neff.to_bits(), expect.neff.to_bits());
        }
    }

    #[test]
    fn uwb_rig_capacity_denial_window_and_mode_predicates() {
        let rig = UwbRig::from_positions(&[(0.0, 0.0); 12]);
        assert_eq!(rig.anchor_count(), MAX_UWB_ANCHORS);
        assert!(UwbRig::default().is_empty());
        let rig = UwbRig::from_positions(&[(1.0, 2.0)]).with_denied_window(0.25, 0.5);
        assert_eq!(rig.anchor_positions(), &[[1.0, 2.0]]);
        assert!(!rig.denied_at(0.24) && rig.denied_at(0.25));
        assert!(rig.denied_at(0.49) && !rig.denied_at(0.5));
        assert!(!UwbRig::default().denied_at(0.0), "empty window denies");
        assert!(SensingMode::TofOnly.uses_tof() && !SensingMode::TofOnly.uses_uwb());
        assert!(!SensingMode::UwbOnly.uses_tof() && SensingMode::UwbOnly.uses_uwb());
        assert!(SensingMode::Fused.uses_tof() && SensingMode::Fused.uses_uwb());
        assert_eq!(SensingMode::default(), SensingMode::TofOnly);
    }

    #[test]
    fn fused_replay_is_deterministic_and_scores_every_step() {
        let (maze, sequence) = scenario();
        let rig = UwbRig::from_positions(&uwb_anchor_positions(
            maze.map().width_m(),
            maze.map().height_m(),
            4,
        ));
        let runner = RunnerConfig::default().with_uwb(SensingMode::Fused, rig);
        let run = |seed: u64| {
            let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
            let mut filter = MonteCarloLocalization::<f32, _>::new(
                MclConfig::default().with_particles(256).with_seed(seed),
                edt,
            )
            .unwrap();
            filter.initialize_uniform(maze.map(), 11).unwrap();
            run_sequence(&mut filter, &sequence, &runner)
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b, "fused replay is not deterministic");
        assert_eq!(a.steps, sequence.len());
    }

    #[test]
    fn uwb_only_replay_runs_without_any_tof_frames() {
        let (maze, sequence) = scenario();
        let rig = UwbRig::from_positions(&uwb_anchor_positions(
            maze.map().width_m(),
            maze.map().height_m(),
            4,
        ));
        let runner = RunnerConfig::default().with_uwb(SensingMode::UwbOnly, rig);
        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut filter = MonteCarloLocalization::<f32, _>::new(
            MclConfig::default().with_particles(512).with_seed(5),
            edt,
        )
        .unwrap();
        filter.initialize_uniform(maze.map(), 6).unwrap();
        let result = run_sequence(&mut filter, &sequence, &runner);
        assert_eq!(result.steps, sequence.len());
        assert!(filter.counters().updates_applied > 0);
    }

    #[test]
    #[should_panic(expected = "initialize the filter")]
    fn uninitialized_filter_is_rejected() {
        let (maze, sequence) = scenario();
        let edt = EuclideanDistanceField::compute(maze.map(), 1.5);
        let mut filter =
            MonteCarloLocalization::<f32, _>::new(MclConfig::default().with_particles(64), edt)
                .unwrap();
        let _ = run_sequence(&mut filter, &sequence, &RunnerConfig::default());
    }
}
