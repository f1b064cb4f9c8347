//! The scenario suite: a registry of procedurally generated worlds and
//! failure-mode sequences beyond the paper's single office-maze evaluation.
//!
//! The paper's §V evaluates one arena under nominal flight conditions. Global
//! localization quality, however, is dominated by environment geometry and
//! sensor-failure modes, so this module spans both axes:
//!
//! * **Worlds** — every [`WorldKind`] archetype (the paper maze plus the
//!   [`mcl_gridmap::worldgen`] office / symmetric-corridor / open-hall /
//!   warehouse generators), each seed-deterministic.
//! * **Stress events** — sequence-level failure modes injected during
//!   recording: kidnapped-robot teleports ([`StressEvent::Kidnap`]), per-zone
//!   sensor dropout windows ([`StressEvent::SensorDropout`]) and range-noise
//!   bursts ([`StressEvent::NoiseBurst`]). The injected timeline travels with
//!   the [`Sequence`] so the metrics can score recovery time
//!   after a kidnap and the ATE inside dropout windows.
//!
//! * **Sensing modes** — every spec also names which modalities the filter
//!   consumes ([`SensingMode`]): ToF only, UWB anchor ranges only, or the
//!   fused pipeline. The registry carries two fusion triplets
//!   (`corridor-blind-*`, `hall-dust-*`) in which a mid-flight dust cloud
//!   blinds both ToF sensors and a later NLOS window denies every UWB anchor
//!   — each single-sensor leg flies blind through "its" window and fails,
//!   while the fused leg always has one live modality and succeeds.
//!
//! A [`ScenarioSpec`] names one (world × stress × sensing) combination and
//! builds a regular [`PaperScenario`] from it, so the whole existing
//! evaluation machinery — `evaluate`, `run_batch`, the figure binaries —
//! works on every suite scenario unchanged. [`ScenarioSuite::standard`] registers the named
//! scenarios (the paper world, three-plus generated worlds and the stress
//! variants); [`run_suite`] sweeps the full
//! (scenario × pipeline × particles × backend × seed) grid through
//! [`run_batch`] in one call, deterministically in job order.
//!
//! ```
//! use mcl_core::precision::PipelineConfig;
//! use mcl_core::KernelBackend;
//! use mcl_sim::suite::{run_suite, ScenarioSuite, SuiteScenario};
//!
//! let suite = ScenarioSuite::quick();
//! assert!(suite.len() >= 6);
//! // Build one scenario from the registry and sweep a tiny grid over it.
//! let spec = suite.get("paper-kidnap").unwrap().clone();
//! let scenario = spec.build(1);
//! let scenarios = [SuiteScenario { spec, scenario }];
//! let outcomes = run_suite(
//!     &scenarios,
//!     &[PipelineConfig::FP32],
//!     &[64],
//!     &[KernelBackend::Lanes],
//!     &[1],
//!     2,
//! );
//! assert_eq!(outcomes.len(), 1);
//! assert_eq!(outcomes[0].outcome.result.kidnaps, 1);
//! ```

use crate::batch::{run_batch, BatchJob, BatchOutcome};
use crate::odometry::OdometryConfig;
use crate::runner::{SensingMode, UwbRig};
use crate::scenario::PaperScenario;
use crate::sequence::{Sequence, SequenceConfig, SequenceGenerator};
use crate::trajectory::{Trajectory, TrajectoryConfig, TrajectoryGenerator};
use mcl_core::precision::PipelineConfig;
use mcl_core::KernelBackend;
use mcl_gridmap::{uwb_anchor_positions, DroneMaze, WorldKind};
use mcl_sensor::{model::gaussian, TargetStatus};
use rand::SeedableRng;

/// One sequence-level failure mode. Positions are *fractions* of the sequence
/// length in `[0, 1]`, so the same spec scales from quick test sequences to
/// full paper-length flights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StressEvent {
    /// Teleport the drone to a fresh waypoint at the given fraction of the
    /// sequence (the kidnapped-robot problem): the ground truth jumps, the
    /// recorded odometry reports no motion for that step.
    Kidnap {
        /// Kidnap instant as a fraction of the sequence length.
        at: f32,
    },
    /// Raise the error flag on **every** zone of one mounted sensor for the
    /// whole window — a fully occluded or stalled sensor.
    SensorDropout {
        /// Index of the mounted sensor (0 = front, 1 = rear).
        sensor: usize,
        /// Window start as a fraction of the sequence length.
        from: f32,
        /// Window end (inclusive) as a fraction of the sequence length.
        to: f32,
    },
    /// Add extra Gaussian range noise to every valid zone during the window —
    /// multipath / sunlight interference bursts.
    NoiseBurst {
        /// Window start as a fraction of the sequence length.
        from: f32,
        /// Window end (inclusive) as a fraction of the sequence length.
        to: f32,
        /// Standard deviation of the *additional* noise, metres.
        extra_std_m: f32,
    },
}

/// A named scenario: a world archetype, sequence settings and stress events.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry name (stable; used by CI artifacts and the CLI).
    pub name: &'static str,
    /// The world to generate.
    pub world: WorldKind,
    /// Number of flight sequences to record.
    pub num_sequences: usize,
    /// Duration of each sequence, seconds.
    pub duration_s: f32,
    /// Stress events injected into every sequence.
    pub stress: Vec<StressEvent>,
    /// Odometry quality of the recorded sequences. The fusion triplets degrade
    /// it (strong gyro bias) so that flying blind through a stress window
    /// accumulates a success-breaking drift, while any live modality tracks
    /// the bias easily through the filter's process noise.
    pub odometry: OdometryConfig,
    /// Which sensing modalities the filter consumes during replay.
    pub sensing: SensingMode,
    /// Number of UWB anchors installed in the world (0–8, placed by
    /// [`uwb_anchor_positions`]). `MCL_UWB_ANCHORS` overrides this at build
    /// time for UWB-equipped specs.
    pub uwb_anchors: usize,
    /// Optional NLOS denial window `(from, to)` as fractions of the sequence:
    /// every anchor reports NaN inside it (all measurements dropped).
    pub uwb_denied: Option<(f32, f32)>,
}

/// Parses an `MCL_UWB_ANCHORS` override: a usable count or `None` to keep the
/// spec's own value.
fn parse_anchor_override(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok()
}

impl ScenarioSpec {
    /// Builds the scenario for `seed`: generates the world, records the
    /// (stressed) sequences and computes the three distance-field precisions.
    /// Fully deterministic in `(self, seed)` — two builds are bit-identical.
    pub fn build(&self, seed: u64) -> PaperScenario {
        let maze = self.world.generate(seed);
        let sequence_config = SequenceConfig {
            trajectory: TrajectoryConfig {
                duration_s: self.duration_s,
                region: Some(maze.physical_region()),
                ..TrajectoryConfig::default()
            },
            odometry: self.odometry,
            ..SequenceConfig::default()
        };
        let (width_m, height_m) = (maze.map().width_m(), maze.map().height_m());
        let generator = SequenceGenerator::new(sequence_config);
        let sequences = (0..self.num_sequences)
            .map(|id| {
                self.build_sequence(&maze, &generator, id, seed.wrapping_add(id as u64 * 101))
            })
            .collect();
        let anchors = if self.sensing.uses_uwb() {
            parse_anchor_override(std::env::var("MCL_UWB_ANCHORS").ok().as_deref())
                .unwrap_or(self.uwb_anchors)
        } else {
            self.uwb_anchors
        };
        let mut rig = UwbRig::from_positions(&uwb_anchor_positions(width_m, height_m, anchors));
        if let Some((from, to)) = self.uwb_denied {
            rig = rig.with_denied_window(from, to);
        }
        PaperScenario::from_parts(maze, sequences, sequence_config).with_sensing(self.sensing, rig)
    }

    /// The kidnap step indices for a sequence of `samples` steps: sorted,
    /// deduplicated, clamped inside `[1, samples - 1]`. A sequence too short
    /// to hold a teleport (fewer than two steps) gets none.
    fn kidnap_steps(&self, samples: usize) -> Vec<usize> {
        if samples < 2 {
            return Vec::new();
        }
        let mut steps: Vec<usize> = self
            .stress
            .iter()
            .filter_map(|event| match event {
                StressEvent::Kidnap { at } => {
                    Some(((at * samples as f32) as usize).clamp(1, samples - 1))
                }
                _ => None,
            })
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    fn build_sequence(
        &self,
        maze: &DroneMaze,
        generator: &SequenceGenerator,
        id: usize,
        seq_seed: u64,
    ) -> Sequence {
        let samples = generator.config().trajectory.sample_count();
        let kidnap_steps = self.kidnap_steps(samples);
        let mut sequence = if kidnap_steps.is_empty() {
            generator.generate(maze.map(), id, seq_seed)
        } else {
            // Mirror `SequenceGenerator::generate`'s RNG keying, then stitch
            // the trajectory from segments: each kidnap restarts the flight at
            // a fresh waypoint drawn from the same start distribution.
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(seq_seed ^ (id as u64).wrapping_mul(0x9E37));
            let trajectories = TrajectoryGenerator::new(generator.config().trajectory);
            let mut poses = Vec::with_capacity(samples);
            let mut begin = 0;
            let mut start = trajectories.random_start(maze.map(), &mut rng);
            for &step in &kidnap_steps {
                let segment = trajectories.generate_from(maze.map(), start, step - begin, &mut rng);
                poses.extend_from_slice(segment.poses());
                begin = step;
                start = trajectories.random_start(maze.map(), &mut rng);
            }
            let tail = trajectories.generate_from(maze.map(), start, samples - begin, &mut rng);
            poses.extend_from_slice(tail.poses());
            let stitched = Trajectory::new(poses, generator.config().trajectory.dt());
            generator.record_with_kidnaps(
                maze.map(),
                &stitched,
                &kidnap_steps,
                id,
                seq_seed,
                &mut rng,
            )
        };
        self.apply_frame_stress(&mut sequence);
        sequence
    }

    /// Applies the frame-level stress events (dropout, noise bursts) to a
    /// recorded sequence and publishes the dropout windows in its timeline.
    fn apply_frame_stress(&self, sequence: &mut Sequence) {
        let samples = sequence.len();
        if samples == 0 {
            return;
        }
        let sensor_config = sequence.config.sensor;
        for (event_index, event) in self.stress.iter().enumerate() {
            match *event {
                StressEvent::Kidnap { .. } => {} // handled during recording
                StressEvent::SensorDropout { sensor, from, to } => {
                    if sensor >= sequence.config.sensor_count {
                        // No such sensor mounted: nothing was dropped, so the
                        // window must not enter the timeline either — it would
                        // make dropout_ate_m score fully healthy sensing.
                        continue;
                    }
                    let (a, b) = window_steps(from, to, samples);
                    for step in &mut sequence.steps[a..=b] {
                        if let Some(frame) = step.frames.get_mut(sensor) {
                            frame.invalidate_all(TargetStatus::Interference);
                        }
                    }
                    sequence
                        .stress
                        .dropout_windows_s
                        .push((sequence.steps[a].timestamp_s, sequence.steps[b].timestamp_s));
                }
                StressEvent::NoiseBurst {
                    from,
                    to,
                    extra_std_m,
                } => {
                    let (a, b) = window_steps(from, to, samples);
                    // One RNG per burst, keyed on the sequence seed and the
                    // event's registry position — deterministic, and
                    // independent of the recording RNG.
                    let mut rng = rand::rngs::StdRng::seed_from_u64(
                        sequence.seed ^ 0xB045_7000 ^ (event_index as u64).wrapping_mul(0x9E37),
                    );
                    for step in &mut sequence.steps[a..=b] {
                        for frame in &mut step.frames {
                            for zone in &mut frame.zones {
                                if !zone.status.is_valid() {
                                    continue;
                                }
                                let noisy = gaussian(&mut rng, zone.distance_m, extra_std_m)
                                    .max(sensor_config.min_range_m);
                                if noisy >= sensor_config.max_range_m {
                                    // The same saturation rule as the sensor
                                    // model: a reading pushed past the range
                                    // limit raises the error flag.
                                    zone.distance_m = sensor_config.max_range_m;
                                    zone.status = TargetStatus::OutOfRange;
                                } else {
                                    zone.distance_m = noisy;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Converts a fractional window to inclusive step bounds inside the sequence.
fn window_steps(from: f32, to: f32, samples: usize) -> (usize, usize) {
    let last = samples - 1;
    let a = ((from * samples as f32) as usize).min(last);
    let b = ((to * samples as f32) as usize).clamp(a, last);
    (a, b)
}

/// The scenario registry.
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    specs: Vec<ScenarioSpec>,
}

impl ScenarioSuite {
    /// The full suite: every world archetype under nominal conditions plus the
    /// stress variants, at study-scale sequence settings (2 × 45 s).
    pub fn standard() -> Self {
        Self::with_settings(2, 45.0)
    }

    /// The same scenarios scaled down (1 × 10 s sequences) for unit tests and
    /// the CI quick sweep.
    pub fn quick() -> Self {
        Self::with_settings(1, 10.0)
    }

    /// The registry with custom per-scenario sequence settings.
    pub fn with_settings(num_sequences: usize, duration_s: f32) -> Self {
        let spec = |name, world, stress| ScenarioSpec {
            name,
            world,
            num_sequences,
            duration_s,
            stress,
            odometry: OdometryConfig::default(),
            sensing: SensingMode::TofOnly,
            uwb_anchors: 0,
            uwb_denied: None,
        };
        // One fusion leg: the same world, dust cloud (both ToF sensors blinded
        // over `dust`) and UWB NLOS denial window, differing only in which
        // modalities the filter consumes. The dust and denial windows are
        // disjoint, so the fused leg always has at least one live modality
        // while each single-sensor leg flies blind through "its" window.
        let fusion = |name, world, sensing, dust: (f32, f32), denied| ScenarioSpec {
            name,
            world,
            num_sequences,
            duration_s,
            stress: vec![
                StressEvent::SensorDropout {
                    sensor: 0,
                    from: dust.0,
                    to: dust.1,
                },
                StressEvent::SensorDropout {
                    sensor: 1,
                    from: dust.0,
                    to: dust.1,
                },
            ],
            // A strong gyro bias (still well inside the filter's 0.1 rad/step
            // yaw process noise): any live modality corrects it, but a blind
            // window integrates it into >1 m of cross-track drift.
            odometry: OdometryConfig {
                yaw_drift_rad_per_s: 0.12,
                scale_error_std: 0.06,
                ..OdometryConfig::default()
            },
            sensing,
            uwb_anchors: 4,
            uwb_denied: Some(denied),
        };
        // Corridor: dust mid-flight, NLOS denial to the end of the flight.
        let corridor =
            |name, sensing| fusion(name, WorldKind::Corridor, sensing, (0.3, 0.6), (0.65, 1.0));
        // Warehouse: the aliased aisles defeat ToF-only global localization
        // outright; dust mid-flight (UWB holds), NLOS denial to the end (ToF
        // tracks through the racks, all within beam range in 0.8 m aisles).
        let warehouse_nlos =
            |name, sensing| fusion(name, WorldKind::Warehouse, sensing, (0.2, 0.5), (0.6, 1.0));
        ScenarioSuite {
            specs: vec![
                spec("paper", WorldKind::PaperMaze, vec![]),
                spec("office", WorldKind::Office, vec![]),
                spec("corridor-symmetric", WorldKind::Corridor, vec![]),
                spec("open-hall", WorldKind::OpenHall, vec![]),
                spec("warehouse", WorldKind::Warehouse, vec![]),
                spec(
                    "paper-kidnap",
                    WorldKind::PaperMaze,
                    vec![StressEvent::Kidnap { at: 0.5 }],
                ),
                spec(
                    "paper-dropout",
                    WorldKind::PaperMaze,
                    vec![
                        StressEvent::SensorDropout {
                            sensor: 0,
                            from: 0.3,
                            to: 0.5,
                        },
                        StressEvent::SensorDropout {
                            sensor: 1,
                            from: 0.6,
                            to: 0.8,
                        },
                    ],
                ),
                spec(
                    "paper-noise-burst",
                    WorldKind::PaperMaze,
                    vec![StressEvent::NoiseBurst {
                        from: 0.4,
                        to: 0.7,
                        extra_std_m: 0.15,
                    }],
                ),
                corridor("corridor-blind-tof", SensingMode::TofOnly),
                corridor("corridor-blind-uwb", SensingMode::UwbOnly),
                corridor("corridor-blind-fused", SensingMode::Fused),
                warehouse_nlos("warehouse-nlos-tof", SensingMode::TofOnly),
                warehouse_nlos("warehouse-nlos-uwb", SensingMode::UwbOnly),
                warehouse_nlos("warehouse-nlos-fused", SensingMode::Fused),
            ],
        }
    }

    /// The registered scenario specs, in registry order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// The registered scenario names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the registry is empty (never, for the built-in suites).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Builds every scenario for `seed` (worlds, sequences, distance fields).
    pub fn build_all(&self, seed: u64) -> Vec<SuiteScenario> {
        self.specs
            .iter()
            .map(|spec| SuiteScenario {
                spec: spec.clone(),
                scenario: spec.build(seed),
            })
            .collect()
    }
}

/// One built scenario: the spec it came from and the ready-to-run evaluation
/// environment.
#[derive(Debug, Clone)]
pub struct SuiteScenario {
    /// The spec the scenario was built from.
    pub spec: ScenarioSpec,
    /// The built environment (world, sequences, distance fields).
    pub scenario: PaperScenario,
}

/// One run's outcome, tagged with the scenario it belongs to.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Name of the scenario the run belongs to.
    pub scenario: &'static str,
    /// The job and its metrics.
    pub outcome: BatchOutcome,
}

/// Sweeps the full (scenario × pipeline × particles × backend × seed) grid in
/// one call: for every scenario, a [`BatchJob::grid`] is built over all its
/// sequences, replicated per kernel backend and dispatched through
/// [`run_batch`] on `threads` workers. Outcomes are returned grouped by
/// scenario, in job order within each — deterministic and bit-identical for
/// every `threads` value (and, because the kernel backends are bit-identical,
/// between `Scalar` and `Lanes` jobs of the same grid point).
pub fn run_suite(
    scenarios: &[SuiteScenario],
    pipelines: &[PipelineConfig],
    particle_counts: &[usize],
    backends: &[KernelBackend],
    seeds: &[u64],
    threads: usize,
) -> Vec<SuiteOutcome> {
    run_suite_with_mode(
        scenarios,
        pipelines,
        particle_counts,
        backends,
        seeds,
        threads,
        false,
    )
}

/// [`run_suite`] with the adaptive population switch exposed: every job of
/// the grid runs with [`BatchJob::with_adaptive`]`(adaptive)`, so a `true`
/// sweep evaluates the KLD-adaptive filter over exactly the same grid the
/// fixed sweep covers — same worlds, same sequences, same seeds — and the
/// two are directly comparable row by row. `adaptive == false` is identical
/// to [`run_suite`].
#[allow(clippy::too_many_arguments)]
pub fn run_suite_with_mode(
    scenarios: &[SuiteScenario],
    pipelines: &[PipelineConfig],
    particle_counts: &[usize],
    backends: &[KernelBackend],
    seeds: &[u64],
    threads: usize,
    adaptive: bool,
) -> Vec<SuiteOutcome> {
    let mut outcomes = Vec::new();
    for suite_scenario in scenarios {
        let sequence_indices: Vec<usize> = (0..suite_scenario.scenario.sequences().len()).collect();
        let base = BatchJob::grid(&sequence_indices, pipelines, particle_counts, seeds);
        let jobs: Vec<BatchJob> = backends
            .iter()
            .flat_map(|&backend| {
                base.iter()
                    .map(move |job| job.with_kernel_backend(backend).with_adaptive(adaptive))
            })
            .collect();
        for outcome in run_batch(&suite_scenario.scenario, &jobs, threads) {
            outcomes.push(SuiteOutcome {
                scenario: suite_scenario.spec.name,
                outcome,
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(name: &str) -> ScenarioSpec {
        ScenarioSuite::quick().get(name).unwrap().clone()
    }

    #[test]
    fn registry_has_the_required_breadth() {
        let suite = ScenarioSuite::standard();
        assert!(suite.len() >= 6, "suite too small: {:?}", suite.names());
        // Unique names.
        let mut names = suite.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
        // At least three non-paper worlds.
        let generated = suite
            .specs()
            .iter()
            .filter(|s| s.world != WorldKind::PaperMaze)
            .count();
        assert!(generated >= 3);
        // At least two stress variants.
        let stressed = suite
            .specs()
            .iter()
            .filter(|s| !s.stress.is_empty())
            .count();
        assert!(stressed >= 2);
        // Quick mirrors the registry exactly.
        assert_eq!(suite.names(), ScenarioSuite::quick().names());
        assert!(suite.get("no-such-scenario").is_none());
        assert!(!suite.is_empty());
    }

    #[test]
    fn builds_are_bit_identical_per_seed() {
        for name in [
            "office",
            "paper-kidnap",
            "paper-dropout",
            "paper-noise-burst",
        ] {
            let spec = quick_spec(name);
            let a = spec.build(7);
            let b = spec.build(7);
            assert_eq!(a.maze().map(), b.maze().map(), "{name} world diverged");
            assert_eq!(a.sequences(), b.sequences(), "{name} sequences diverged");
            let c = spec.build(8);
            assert_ne!(
                a.sequences(),
                c.sequences(),
                "{name} ignores the scenario seed"
            );
        }
    }

    #[test]
    fn kidnap_scenario_teleports_without_reporting_motion() {
        let spec = quick_spec("paper-kidnap");
        let scenario = spec.build(3);
        let sequence = &scenario.sequences()[0];
        assert_eq!(sequence.stress.kidnap_times_s.len(), 1);
        let samples = sequence.len();
        let kidnap_step = (0.5 * samples as f32) as usize;
        assert!(sequence.steps[kidnap_step].odometry.is_zero());
        assert!(
            (sequence.stress.kidnap_times_s[0] - sequence.steps[kidnap_step].timestamp_s).abs()
                < 1e-9
        );
        // Every step still has the nominal frame count (stress is not truncation).
        assert_eq!(sequence.len(), spec.duration_s as usize * 15);
    }

    #[test]
    fn dropout_scenario_silences_the_right_sensor_in_the_right_window() {
        let spec = quick_spec("paper-dropout");
        let scenario = spec.build(4);
        let sequence = &scenario.sequences()[0];
        let samples = sequence.len();
        assert_eq!(sequence.stress.dropout_windows_s.len(), 2);
        // Front sensor dead inside [0.3, 0.5] of the sequence.
        let (a, b) = super::window_steps(0.3, 0.5, samples);
        for step in &sequence.steps[a..=b] {
            assert_eq!(step.frames[0].valid_zone_count(), 0);
        }
        // Outside every window, the front sensor sees again (statistically
        // certain: only per-zone 2% interference remains).
        let healthy = sequence.steps[..a]
            .iter()
            .map(|s| s.frames[0].valid_zone_count())
            .sum::<usize>();
        assert!(healthy > 0);
        // The rear sensor is untouched in the front sensor's window.
        let rear_valid = sequence.steps[a..=b]
            .iter()
            .map(|s| s.frames[1].valid_zone_count())
            .sum::<usize>();
        assert!(rear_valid > 0);
    }

    #[test]
    fn noise_burst_perturbs_only_the_window() {
        let nominal = quick_spec("paper").build(5);
        let bursty = quick_spec("paper-noise-burst").build(5);
        let a_steps = &nominal.sequences()[0].steps;
        let b_steps = &bursty.sequences()[0].steps;
        assert_eq!(a_steps.len(), b_steps.len());
        let (w0, w1) = super::window_steps(0.4, 0.7, a_steps.len());
        let mut changed = 0;
        for (i, (a, b)) in a_steps.iter().zip(b_steps.iter()).enumerate() {
            assert_eq!(a.ground_truth, b.ground_truth);
            assert_eq!(a.odometry, b.odometry);
            if i < w0 || i > w1 {
                assert_eq!(a.frames, b.frames, "step {i} outside the burst changed");
            } else if a.frames != b.frames {
                changed += 1;
            }
        }
        assert!(changed > 0, "the burst window left every frame untouched");
    }

    #[test]
    fn dropout_on_an_unmounted_sensor_is_ignored() {
        // The deck has two sensors; a window on sensor 5 drops nothing, so it
        // must not enter the timeline either (dropout_ate_m would otherwise
        // score fully healthy sensing).
        let mut spec = quick_spec("paper-dropout");
        spec.stress = vec![StressEvent::SensorDropout {
            sensor: 5,
            from: 0.2,
            to: 0.4,
        }];
        let scenario = spec.build(6);
        let sequence = &scenario.sequences()[0];
        assert!(sequence.stress.dropout_windows_s.is_empty());
        let nominal = quick_spec("paper").build(6);
        assert_eq!(nominal.sequences()[0].steps, sequence.steps);
    }

    #[test]
    fn kidnaps_are_skipped_on_degenerate_sequences() {
        // A sequence too short to hold a teleport builds nominally instead of
        // panicking inside the step clamp.
        let mut spec = quick_spec("paper-kidnap");
        spec.duration_s = 0.05; // one 15 Hz sample
        let scenario = spec.build(2);
        let sequence = &scenario.sequences()[0];
        assert_eq!(sequence.len(), 1);
        assert!(sequence.stress.kidnap_times_s.is_empty());
    }

    #[test]
    fn fusion_triplets_share_the_environment_and_differ_only_in_sensing() {
        for (tof, uwb, fused) in [
            (
                "corridor-blind-tof",
                "corridor-blind-uwb",
                "corridor-blind-fused",
            ),
            (
                "warehouse-nlos-tof",
                "warehouse-nlos-uwb",
                "warehouse-nlos-fused",
            ),
        ] {
            let legs = [quick_spec(tof), quick_spec(uwb), quick_spec(fused)];
            assert_eq!(legs[0].sensing, SensingMode::TofOnly);
            assert_eq!(legs[1].sensing, SensingMode::UwbOnly);
            assert_eq!(legs[2].sensing, SensingMode::Fused);
            let built: Vec<_> = legs.iter().map(|spec| spec.build(3)).collect();
            // All three legs fly through the bit-identical recorded world —
            // only the modalities the filter consumes differ.
            assert_eq!(built[0].sequences(), built[1].sequences(), "{tof}/{uwb}");
            assert_eq!(built[0].sequences(), built[2].sequences(), "{tof}/{fused}");
            for scenario in &built {
                assert_eq!(scenario.uwb_rig().anchor_count(), 4);
                assert!(!scenario.uwb_rig().is_empty());
            }
            // The dust cloud silences both mounted sensors, and the denial
            // window is disjoint from it — the fused leg always has one live
            // modality.
            let dust_windows = &built[0].sequences()[0].stress.dropout_windows_s;
            assert_eq!(dust_windows.len(), 2);
            let (denied_from, denied_to) = legs[0].uwb_denied.unwrap();
            for event in &legs[0].stress {
                if let StressEvent::SensorDropout { from, to, .. } = *event {
                    assert!(
                        denied_to <= from || denied_from >= to,
                        "dust [{from}, {to}] overlaps denial [{denied_from}, {denied_to}]"
                    );
                }
            }
        }
    }

    #[test]
    fn anchor_override_parses_counts_and_rejects_junk() {
        assert_eq!(super::parse_anchor_override(None), None);
        assert_eq!(super::parse_anchor_override(Some("")), None);
        assert_eq!(super::parse_anchor_override(Some("eight")), None);
        assert_eq!(super::parse_anchor_override(Some("-2")), None);
        assert_eq!(super::parse_anchor_override(Some("6")), Some(6));
        assert_eq!(super::parse_anchor_override(Some(" 3 ")), Some(3));
    }

    #[test]
    fn window_steps_clamp_to_the_sequence() {
        assert_eq!(super::window_steps(0.0, 1.0, 100), (0, 99));
        assert_eq!(super::window_steps(0.25, 0.5, 100), (25, 50));
        assert_eq!(super::window_steps(0.9, 0.2, 100), (90, 90));
    }

    #[test]
    fn adaptive_mode_sweeps_the_same_grid_with_adaptive_jobs() {
        let suite = ScenarioSuite::quick();
        let spec = suite.get("paper-kidnap").unwrap().clone();
        let scenarios = [SuiteScenario {
            scenario: spec.build(2),
            spec,
        }];
        let pipelines = [PipelineConfig::FP32];
        let backends = [KernelBackend::Lanes];
        let fixed = run_suite(&scenarios, &pipelines, &[128], &backends, &[1], 2);
        let adaptive =
            run_suite_with_mode(&scenarios, &pipelines, &[128], &backends, &[1], 2, true);
        assert_eq!(fixed.len(), adaptive.len());
        for (f, a) in fixed.iter().zip(adaptive.iter()) {
            assert!(!f.outcome.job.adaptive);
            assert!(a.outcome.job.adaptive);
            assert_eq!(f.outcome.job.with_adaptive(true), a.outcome.job);
        }
    }

    #[test]
    fn run_suite_sweeps_every_axis() {
        let suite = ScenarioSuite::quick();
        let scenarios: Vec<SuiteScenario> = suite
            .specs()
            .iter()
            .take(2)
            .map(|spec| SuiteScenario {
                spec: spec.clone(),
                scenario: spec.build(1),
            })
            .collect();
        let outcomes = run_suite(
            &scenarios,
            &[PipelineConfig::FP32, PipelineConfig::FP16_QM],
            &[64],
            &[KernelBackend::Scalar, KernelBackend::Lanes],
            &[1, 2],
            2,
        );
        // 2 scenarios × 2 pipelines × 1 count × 2 backends × 2 seeds.
        assert_eq!(outcomes.len(), 16);
        assert_eq!(outcomes[0].scenario, scenarios[0].spec.name);
        assert_eq!(outcomes[15].scenario, scenarios[1].spec.name);
        // Scalar and lanes jobs of the same grid point return identical metrics.
        for chunk in outcomes.chunks(8) {
            let (scalar, lanes) = chunk.split_at(4);
            for (s, l) in scalar.iter().zip(lanes.iter()) {
                assert_eq!(
                    s.outcome.job.with_kernel_backend(KernelBackend::Lanes),
                    l.outcome.job
                );
                assert_eq!(s.outcome.result, l.outcome.result);
            }
        }
    }
}
