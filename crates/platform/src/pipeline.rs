//! The asynchronous on-board pipeline: acquire → transfer → localize → publish.
//!
//! [`OnboardPipeline`] wires the pieces of Fig. 2 together around a recorded (or
//! simulated) flight: every 15 Hz step it integrates the odometry into the
//! STM32-side state estimator, moves the ToF frames across the modelled I²C and
//! SPI links, offers the observation to the gated MCL, blends any new estimate
//! back into the state estimator, charges the GAP9 cost model for the compute
//! time, checks the real-time deadline and appends a log record.

use crate::link::{I2cLink, SpiLink};
use crate::logging::{FlightLog, LogRecord};
use crate::state::{StateEstimator, StateEstimatorConfig};
use mcl_core::{MclConfig, MclError, MonteCarloLocalization, UpdateOutcome};
use mcl_gap9::{CostModel, MemoryPlanner, OperatingPoint, PowerModel, SystemPowerBudget};
use mcl_gridmap::QuantizedDistanceField;
use mcl_sensor::SensorRig;
use mcl_sim::{
    ConvergenceCriterion, PaperScenario, Sequence, SequenceResult, TrajectoryErrorTracker,
};

/// Configuration of the on-board pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of particles (4096 is the paper's headline working point).
    pub particles: usize,
    /// Number of GAP9 worker cores used (8).
    pub workers: usize,
    /// Number of ToF sensors used (2 = front and rear).
    pub sensor_count: usize,
    /// Random seed of the filter.
    pub seed: u64,
    /// State-estimator correction blending.
    pub correction: StateEstimatorConfig,
    /// GAP9 operating point used for the latency/power accounting.
    pub operating_point: OperatingPoint,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            particles: 4096,
            workers: 8,
            sensor_count: 2,
            seed: 1,
            correction: StateEstimatorConfig::default(),
            operating_point: OperatingPoint::MAX_400MHZ,
        }
    }
}

/// Summary of one simulated flight through the pipeline.
#[derive(Debug, Clone)]
pub struct FlightReport {
    /// Number of 15 Hz steps processed.
    pub steps: usize,
    /// Number of MCL updates actually applied (gate passed).
    pub updates_applied: usize,
    /// Number of steps whose modelled latency exceeded the 66.7 ms budget.
    pub missed_deadlines: usize,
    /// Mean modelled on-board latency per step with an applied update, seconds.
    pub mean_update_latency_s: f64,
    /// Average GAP9 power at the configured operating point, milliwatts.
    pub gap9_power_mw: f64,
    /// Sensing + processing share of the drone's power budget, percent.
    pub power_share_percent: f64,
    /// Localization quality metrics of the flight.
    pub result: SequenceResult,
    /// The full per-step log.
    pub log: FlightLog,
}

/// The on-board pipeline bound to one scenario (map + distance field).
#[derive(Debug)]
pub struct OnboardPipeline {
    config: PipelineConfig,
    filter: MonteCarloLocalization<f32, QuantizedDistanceField>,
    i2c: I2cLink,
    spi: SpiLink,
    cost: CostModel,
    power: PowerModel,
    particles_in_l2: bool,
}

impl OnboardPipeline {
    /// Builds the pipeline for a scenario, using the quantized distance field
    /// (the paper's recommended memory configuration) and a uniform global
    /// initialization.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`MclError`] when the configuration is invalid or
    /// the map has no free space.
    pub fn new(config: PipelineConfig, scenario: &PaperScenario) -> Result<Self, MclError> {
        let mcl_config = MclConfig::default()
            .with_particles(config.particles)
            .with_workers(config.workers)
            .with_seed(config.seed);
        let mut filter = MonteCarloLocalization::new(mcl_config, scenario.edt_quantized().clone())?;
        filter.initialize_uniform(scenario.map(), config.seed)?;
        let planner = MemoryPlanner::new(
            mcl_gap9::Gap9Spec::default(),
            mcl_core::precision::MemoryFootprint::optimized(),
        );
        let placement = planner.place(config.particles, scenario.map().cell_count());
        Ok(OnboardPipeline {
            config,
            filter,
            i2c: I2cLink::default(),
            spi: SpiLink::default(),
            cost: CostModel::default(),
            power: PowerModel::default(),
            particles_in_l2: placement.particles_in_l2(),
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Whether the particle buffers were placed in L2.
    pub fn particles_in_l2(&self) -> bool {
        self.particles_in_l2
    }

    /// Replays a sequence through the pipeline and reports flight statistics.
    pub fn fly(&mut self, sequence: &Sequence) -> FlightReport {
        let mut state = StateEstimator::new(
            self.config.correction,
            sequence
                .steps
                .first()
                .map(|s| s.ground_truth)
                .unwrap_or_default(),
        );
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let log = FlightLog::new();
        let mut updates_applied = 0usize;
        let mut missed_deadlines = 0usize;
        let mut latency_sum = 0.0f64;

        let budget = mcl_gap9::Gap9Spec::REAL_TIME_BUDGET_S;
        let frequency = self.config.operating_point.frequency_hz();
        let mode = mcl_sensor::SensorConfig::default().mode;

        for step in &sequence.steps {
            state.integrate(&step.odometry);
            self.filter.predict(step.odometry);

            let frame_limit = self.config.sensor_count.min(step.frames.len());
            let beams = SensorRig::frames_to_beams(&step.frames[..frame_limit]);

            // Data movement happens every step, compute only when the gate opens.
            let mut latency = self.i2c.rig_transfer_s(mode, frame_limit)
                + self.spi.update_transfer_s(mode, frame_limit);
            let observations = mcl_sensor::ObservationBatch::from_beams(&beams);
            let outcome = self
                .filter
                .update_observations(&observations)
                .expect("pipeline initialized the filter");
            let mcl_pose = match outcome {
                UpdateOutcome::Applied(estimate) => {
                    let breakdown = self.cost.update_breakdown(
                        self.config.particles,
                        beams.len().max(1),
                        self.config.workers,
                        self.particles_in_l2,
                    );
                    latency += breakdown.total_time_s(frequency);
                    updates_applied += 1;
                    latency_sum += latency;
                    state.correct(&estimate);
                    Some(estimate.pose)
                }
                UpdateOutcome::Skipped => None,
            };

            let deadline_met = latency <= budget;
            if !deadline_met {
                missed_deadlines += 1;
            }
            tracker.record(
                step.timestamp_s,
                &self.filter.estimate(),
                &step.ground_truth,
            );
            log.push(LogRecord {
                timestamp_s: step.timestamp_s,
                fused_pose: state.pose(),
                mcl_pose,
                latency_s: latency,
                deadline_met,
            });
        }

        let gap9_power_mw = self.power.average_power_mw(self.config.operating_point);
        let mut budget_model = SystemPowerBudget::paper(gap9_power_mw);
        budget_model.sensor_count = self.config.sensor_count;
        FlightReport {
            steps: sequence.len(),
            updates_applied,
            missed_deadlines,
            mean_update_latency_s: if updates_applied > 0 {
                latency_sum / updates_applied as f64
            } else {
                0.0
            },
            gap9_power_mw,
            power_share_percent: budget_model.sensing_and_processing_percent(),
            result: tracker.finish(),
            log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_flies_a_quick_scenario_in_real_time() {
        let scenario = PaperScenario::quick(5);
        let mut pipeline = OnboardPipeline::new(
            PipelineConfig {
                particles: 1024,
                seed: 3,
                ..PipelineConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(!pipeline.particles_in_l2());
        let report = pipeline.fly(&scenario.sequences()[0]);
        assert_eq!(report.steps, scenario.sequences()[0].len());
        assert!(report.updates_applied > 0);
        assert_eq!(report.missed_deadlines, 0, "1024 particles must meet 15 Hz");
        assert!(report.mean_update_latency_s > 0.0);
        assert!(report.mean_update_latency_s < mcl_gap9::Gap9Spec::REAL_TIME_BUDGET_S);
        assert_eq!(report.log.len(), report.steps);
        assert!((report.power_share_percent - 7.0).abs() < 1.5);
    }

    #[test]
    fn large_particle_counts_are_placed_in_l2_and_still_meet_the_deadline() {
        let scenario = PaperScenario::quick(6);
        let mut pipeline = OnboardPipeline::new(
            PipelineConfig {
                particles: 16_384,
                seed: 4,
                ..PipelineConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(pipeline.particles_in_l2());
        let report = pipeline.fly(&scenario.sequences()[0]);
        assert_eq!(
            report.missed_deadlines, 0,
            "16384 particles at 400 MHz meet 15 Hz"
        );
    }

    #[test]
    fn underclocked_large_configuration_misses_deadlines() {
        // 16384 particles at 12 MHz cannot finish within 67 ms — the pipeline
        // must report the missed deadlines rather than hide them.
        let scenario = PaperScenario::quick(7);
        let mut pipeline = OnboardPipeline::new(
            PipelineConfig {
                particles: 16_384,
                operating_point: OperatingPoint::MIN_12MHZ,
                seed: 5,
                ..PipelineConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let report = pipeline.fly(&scenario.sequences()[0]);
        assert!(report.missed_deadlines > 0);
        assert!(report.gap9_power_mw < 20.0);
    }

    #[test]
    fn single_sensor_pipeline_uses_less_power() {
        let scenario = PaperScenario::quick(8);
        let mut two = OnboardPipeline::new(
            PipelineConfig {
                particles: 512,
                ..PipelineConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let mut one = OnboardPipeline::new(
            PipelineConfig {
                particles: 512,
                sensor_count: 1,
                ..PipelineConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let report_two = two.fly(&scenario.sequences()[0]);
        let report_one = one.fly(&scenario.sequences()[0]);
        assert!(report_one.power_share_percent < report_two.power_share_percent);
    }
}
