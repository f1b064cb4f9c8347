//! The paper's end-to-end evaluation scenario.
//!
//! [`PaperScenario`] bundles everything §IV of the paper needs: the 31.2 m²
//! drone-maze map at 0.05 m resolution, its distance transforms in the three
//! storage precisions, a set of recorded flight sequences, and a dispatcher that
//! evaluates any of the four pipeline configurations (`fp32`, `fp32 1tof`,
//! `fp32qm`, `fp16qm`) at any particle count on any sequence. The experiment
//! binaries in `mcl-bench` sweep over particle counts, sequences and seeds with
//! this type; the unit tests and examples use the scaled-down
//! [`PaperScenario::quick`] variant.

use crate::metrics::SequenceResult;
use crate::runner::{run_sequence, RunnerConfig, SensingMode, UwbRig};
use crate::sequence::{Sequence, SequenceConfig, SequenceGenerator};
use crate::trajectory::TrajectoryConfig;
use mcl_core::precision::{MapPrecision, ParticlePrecision, PipelineConfig};
use mcl_core::{AdaptiveConfig, KernelBackend, MclConfig, MonteCarloLocalization};
use mcl_gridmap::{
    DistanceField, DroneMaze, EuclideanDistanceField, F16DistanceField, OccupancyGrid,
    QuantizedDistanceField,
};
use mcl_num::{Scalar, F16};

/// The full evaluation environment: maze, distance fields and sequences.
#[derive(Debug, Clone)]
pub struct PaperScenario {
    maze: DroneMaze,
    edt_fp32: EuclideanDistanceField,
    edt_f16: F16DistanceField,
    edt_quantized: QuantizedDistanceField,
    sequences: Vec<Sequence>,
    sequence_config: SequenceConfig,
    r_max: f32,
    sensing: SensingMode,
    uwb: UwbRig,
}

impl PaperScenario {
    /// The paper's evaluation setup: six ~60 s sequences in the 31.2 m² maze.
    ///
    /// Generating six full sequences casts a few hundred thousand rays; expect a
    /// couple of seconds in release builds. Use [`PaperScenario::quick`] for
    /// tests.
    pub fn paper(seed: u64) -> Self {
        Self::with_settings(seed, 6, 60.0)
    }

    /// A scaled-down scenario (one ~12 s sequence) for unit tests and examples.
    pub fn quick(seed: u64) -> Self {
        Self::with_settings(seed, 1, 12.0)
    }

    /// A scenario with a custom number of sequences and duration.
    pub fn with_settings(seed: u64, num_sequences: usize, duration_s: f32) -> Self {
        let maze = DroneMaze::paper_layout(seed);
        let sequence_config = SequenceConfig {
            trajectory: TrajectoryConfig {
                duration_s,
                region: Some(maze.physical_region()),
                ..TrajectoryConfig::default()
            },
            ..SequenceConfig::default()
        };
        let generator = SequenceGenerator::new(sequence_config);
        let sequences = (0..num_sequences)
            .map(|id| generator.generate(maze.map(), id, seed.wrapping_add(id as u64 * 101)))
            .collect();
        Self::from_parts(maze, sequences, sequence_config)
    }

    /// Assembles a scenario from an already-generated world and its (possibly
    /// stress-injected) sequences — the entry point used by
    /// [`crate::suite::ScenarioSpec::build`]. The three distance-field
    /// precisions are computed here with the paper's 1.5 m truncation, so every
    /// suite world is evaluated through exactly the pipeline the paper maze is.
    pub fn from_parts(
        maze: DroneMaze,
        sequences: Vec<Sequence>,
        sequence_config: SequenceConfig,
    ) -> Self {
        let r_max = 1.5;
        let edt_fp32 = EuclideanDistanceField::compute(maze.map(), r_max);
        let edt_f16 = edt_fp32.to_f16();
        let edt_quantized = edt_fp32.quantize();
        PaperScenario {
            maze,
            edt_fp32,
            edt_f16,
            edt_quantized,
            sequences,
            sequence_config,
            r_max,
            sensing: SensingMode::TofOnly,
            uwb: UwbRig::default(),
        }
    }

    /// Returns the scenario evaluated under `sensing` against `rig` — the
    /// UWB infrastructure is part of the environment, so every evaluation of
    /// the scenario (serial, batched, suite) ranges against the same anchors.
    /// The default ([`SensingMode::TofOnly`], no anchors) is byte-identical
    /// to the pre-fusion evaluation.
    pub fn with_sensing(mut self, sensing: SensingMode, rig: UwbRig) -> Self {
        self.sensing = sensing;
        self.uwb = rig;
        self
    }

    /// The sensor modalities evaluations of this scenario feed the filter.
    pub fn sensing(&self) -> SensingMode {
        self.sensing
    }

    /// The UWB infrastructure of the scenario (empty unless configured via
    /// [`PaperScenario::with_sensing`]).
    pub fn uwb_rig(&self) -> &UwbRig {
        &self.uwb
    }

    /// The maze environment.
    pub fn maze(&self) -> &DroneMaze {
        &self.maze
    }

    /// The occupancy grid map.
    pub fn map(&self) -> &OccupancyGrid {
        self.maze.map()
    }

    /// The full-precision distance transform.
    pub fn edt_fp32(&self) -> &EuclideanDistanceField {
        &self.edt_fp32
    }

    /// The quantized distance transform.
    pub fn edt_quantized(&self) -> &QuantizedDistanceField {
        &self.edt_quantized
    }

    /// The binary16 distance transform.
    pub fn edt_f16(&self) -> &F16DistanceField {
        &self.edt_f16
    }

    /// The recorded sequences.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// The sequence generation settings (useful for documentation output).
    pub fn sequence_config(&self) -> &SequenceConfig {
        &self.sequence_config
    }

    /// The EDT truncation distance.
    pub fn r_max(&self) -> f32 {
        self.r_max
    }

    /// Builds the [`MclConfig`] used by the evaluations.
    pub fn mcl_config(&self, particles: usize, seed: u64) -> MclConfig {
        MclConfig::default()
            .with_particles(particles)
            .with_seed(seed)
    }

    /// The adaptive population configuration an adaptive evaluation of
    /// `particles` uses: KLD population control over
    /// `[max(particles/8, 64), 2·particles]`, starting from `particles`
    /// itself. An evaluation at the paper's 2048-particle quick-sweep count
    /// therefore sweeps `[256, 4096]` — it can shrink to an eighth once
    /// converged and grow past the fixed baseline while the belief is still
    /// multi-modal.
    pub fn adaptive_config(particles: usize) -> AdaptiveConfig {
        let min = (particles / 8).max(64).min(particles.max(1));
        AdaptiveConfig::enabled().with_population_range(min, particles.saturating_mul(2).max(min))
    }

    /// Evaluates one pipeline configuration on one sequence with global
    /// (uniform) initialization — the paper's main experiment. Runs under the
    /// `MCL_KERNEL_BACKEND` override when set, otherwise under the backend
    /// [`KernelBackend::detect`] picks for this host (the rule
    /// `MclConfig::default` follows too); see
    /// [`PaperScenario::evaluate_with_backend`] for an explicit choice.
    pub fn evaluate(
        &self,
        sequence: &Sequence,
        pipeline: PipelineConfig,
        particles: usize,
        seed: u64,
    ) -> SequenceResult {
        self.evaluate_with_backend(
            sequence,
            pipeline,
            particles,
            seed,
            KernelBackend::from_env().unwrap_or_else(KernelBackend::detect),
        )
    }

    /// [`PaperScenario::evaluate`] with an explicit [`KernelBackend`] — the
    /// entry point `mcl_sim::run_batch` jobs select their backend through.
    /// The backends are bit-identical, so for fixed-precision arithmetic the
    /// returned metrics do not depend on the choice (pinned by a unit test in
    /// `crate::batch`); the knob exists for performance studies and the
    /// equivalence harness.
    pub fn evaluate_with_backend(
        &self,
        sequence: &Sequence,
        pipeline: PipelineConfig,
        particles: usize,
        seed: u64,
        backend: KernelBackend,
    ) -> SequenceResult {
        self.evaluate_with_options(sequence, pipeline, particles, seed, backend, false)
    }

    /// [`PaperScenario::evaluate_with_backend`] with the adaptive population
    /// switch exposed: when `adaptive` is true the filter runs under
    /// [`PaperScenario::adaptive_config`]`(particles)` — KLD-sampling picks
    /// the population every update and the Augmented-MCL monitor injects
    /// recovery particles after likelihood collapses. The result's
    /// `mean_particles` then reports the population the run actually
    /// averaged. `adaptive == false` is byte-identical to
    /// [`PaperScenario::evaluate_with_backend`].
    pub fn evaluate_with_options(
        &self,
        sequence: &Sequence,
        pipeline: PipelineConfig,
        particles: usize,
        seed: u64,
        backend: KernelBackend,
        adaptive: bool,
    ) -> SequenceResult {
        let runner = RunnerConfig {
            sensor_count: pipeline.sensor_count,
            sensing: self.sensing,
            uwb: self.uwb,
            ..RunnerConfig::default()
        };
        let mut config = self
            .mcl_config(particles, seed)
            .with_kernel_backend(backend);
        if adaptive {
            config = config.with_adaptive(Self::adaptive_config(particles));
        }
        match (pipeline.particle_precision, pipeline.map_precision) {
            (ParticlePrecision::Fp32, MapPrecision::Fp32) => {
                self.run::<f32, _>(config, self.edt_fp32.clone(), sequence, &runner, seed)
            }
            (ParticlePrecision::Fp32, MapPrecision::Fp16) => {
                self.run::<f32, _>(config, self.edt_f16.clone(), sequence, &runner, seed)
            }
            (ParticlePrecision::Fp32, MapPrecision::Quantized) => {
                self.run::<f32, _>(config, self.edt_quantized.clone(), sequence, &runner, seed)
            }
            (ParticlePrecision::Fp16, MapPrecision::Fp32) => {
                self.run::<F16, _>(config, self.edt_fp32.clone(), sequence, &runner, seed)
            }
            (ParticlePrecision::Fp16, MapPrecision::Fp16) => {
                self.run::<F16, _>(config, self.edt_f16.clone(), sequence, &runner, seed)
            }
            (ParticlePrecision::Fp16, MapPrecision::Quantized) => {
                self.run::<F16, _>(config, self.edt_quantized.clone(), sequence, &runner, seed)
            }
        }
    }

    fn run<S: Scalar, D: DistanceField>(
        &self,
        config: MclConfig,
        field: D,
        sequence: &Sequence,
        runner: &RunnerConfig,
        seed: u64,
    ) -> SequenceResult {
        let mut filter = MonteCarloLocalization::<S, D>::new(config, field)
            .expect("scenario configurations are valid");
        filter
            .initialize_uniform(self.map(), seed)
            .expect("the drone maze has free space");
        run_sequence(&mut filter, sequence, runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_has_the_paper_map_and_one_sequence() {
        let scenario = PaperScenario::quick(2);
        assert!((scenario.map().area_m2() - 31.2).abs() < 0.3);
        assert_eq!(scenario.sequences().len(), 1);
        assert_eq!(scenario.sequences()[0].len(), 180);
        assert_eq!(scenario.r_max(), 1.5);
        assert_eq!(scenario.edt_fp32().width(), scenario.map().width());
        assert_eq!(scenario.mcl_config(64, 3).num_particles, 64);
    }

    #[test]
    fn all_four_paper_configurations_run_on_a_quick_scenario() {
        let scenario = PaperScenario::quick(4);
        let sequence = &scenario.sequences()[0];
        for pipeline in PipelineConfig::paper_configs() {
            let result = scenario.evaluate(sequence, pipeline, 256, 1);
            assert_eq!(
                result.steps,
                sequence.len(),
                "configuration {} did not score every step",
                pipeline.name
            );
        }
    }

    #[test]
    fn more_particles_do_not_hurt_convergence() {
        // Global localization is stochastic on a single short sequence, so this
        // checks across a couple of seeds that a healthy particle count converges
        // at least once — mirroring the trend of the paper's Fig. 7 without
        // demanding per-run determinism.
        let scenario = PaperScenario::with_settings(8, 1, 45.0);
        let sequence = &scenario.sequences()[0];
        let converged_any = (1..=3).any(|seed| {
            scenario
                .evaluate(sequence, PipelineConfig::FP32, 4096, seed)
                .converged
        });
        assert!(
            converged_any,
            "no 4096-particle run converged on a 45 s sequence"
        );
    }
}
