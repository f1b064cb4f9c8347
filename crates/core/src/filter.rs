//! The Monte Carlo localization filter tying all four steps together.
//!
//! [`MonteCarloLocalization`] owns the particle set, the motion and observation
//! models, the distance field and the parallel layout, and exposes the
//! asynchronous interface the firmware pipeline drives:
//!
//! * [`MonteCarloLocalization::predict`] is called whenever new odometry arrives
//!   and merely accumulates the body-frame increment.
//! * [`MonteCarloLocalization::update_observations`] is called whenever a
//!   sensor observation arrives — an [`ObservationBatch`] carrying ToF beams,
//!   UWB anchor ranges, or both; it applies the full
//!   prediction–correction–resampling–pose sequence **only** when the
//!   accumulated motion exceeds the `d_xy` / `d_θ` gate, otherwise the
//!   observation is skipped (the paper's strategy for not wasting compute
//!   while hovering).
//!
//! An applied update runs seven named stages in order: predict, score,
//! temper, reweight, normalize + decide, resample + inject, publish. They
//! are the paper's four steps (prediction, correction, resampling, pose
//! computation); with adaptive population control enabled, the policy of
//! [`crate::adaptive`] is consulted at temper, decide, inject and publish.
//!
//! The stages dispatch the [`crate::kernel`] functions over the
//! [`ClusterLayout`] workers: each worker runs the same kernel on its contiguous
//! slice of the structure-of-arrays [`ParticleSet`], executing on the
//! persistent shared [`crate::pool::WorkerPool`] (resident threads, no spawn
//! per update — and a filter updating inside an already-parallel job, such as
//! an `mcl_sim::run_batch` worker, automatically runs its kernels inline
//! instead of oversubscribing the host). The beams of the observation arrive
//! flattened into a [`BeamBatch`]; the score stage copies it into a
//! filter-owned scratch and partitions that **once per update** for the
//! configured `r_max`, so the correction kernels score only the in-range
//! prefix with a branch-free body. When the batch carries anchor
//! ranges, the anchor-range kernel *adds* its per-sensor log-likelihoods
//! into the same per-particle accumulator the beam kernel fills, so the
//! correct step stays one reweight pass regardless of how many
//! sensor modalities contributed. The per-update scratch buffers
//! (log-likelihoods, f32 weights, the beam copy) and the resampling plan
//! reuse their allocations across updates, the plan itself is computed in
//! stack blocks ([`PartialSumResampler::plan_resize_into`]), and the pose
//! reduction ([`kernel::pose_estimate_prefix_with`]) sums serially in stack
//! blocks. So once the buffers are warm, a single-worker update makes no
//! heap allocation (`tests/resample_plan_alloc.rs` counts them). A
//! multi-worker dispatch still builds its per-dispatch slot vector.
//!
//! A beam-only observation is an [`ObservationBatch`] without an anchor
//! block ([`ObservationBatch::from_beams`] /
//! [`ObservationBatch::from_beam_batch`]); the anchor kernel is gated on
//! [`ObservationBatch::has_anchors`], so such an update executes the exact
//! beam-only instruction sequence the golden trace test pins.

use crate::adaptive::AdaptiveState;
use crate::config::{MclConfig, MclError};
use crate::estimate::PoseEstimate;
use crate::kernel;
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::{AnchorRangeModel, BeamEndPointModel};
use crate::parallel::ClusterLayout;
use crate::particle::{self, ParticleSet};
use crate::resampling::{PartialSumResampler, ResamplePlan};
use crate::rng::CounterRng;
use mcl_gridmap::{DistanceField, OccupancyGrid, Pose2};
use mcl_num::Scalar;
use mcl_sensor::{BeamBatch, ObservationBatch};

/// Result of offering an observation to the filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateOutcome {
    /// The observation was processed; the new pose estimate is attached.
    Applied(PoseEstimate),
    /// The observation was skipped because the drone has not moved past the
    /// `d_xy` / `d_θ` gate since the previous update.
    Skipped,
}

impl UpdateOutcome {
    /// The estimate if the update was applied.
    pub fn estimate(&self) -> Option<&PoseEstimate> {
        match self {
            UpdateOutcome::Applied(e) => Some(e),
            UpdateOutcome::Skipped => None,
        }
    }

    /// Returns `true` when the observation was processed.
    pub fn is_applied(&self) -> bool {
        matches!(self, UpdateOutcome::Applied(_))
    }
}

/// Counters describing how the filter has been exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterCounters {
    /// Number of observation updates actually applied.
    pub updates_applied: u64,
    /// Number of observations skipped by the motion gate.
    pub updates_skipped: u64,
    /// Number of odometry increments accumulated.
    pub predictions: u64,
    /// Cumulative population over all applied updates (post-resampling), so
    /// `resampled_particles / updates_applied` is the average population the
    /// adaptive filter actually ran — the figure of merit the KLD adaptation
    /// optimizes.
    pub resampled_particles: u64,
    /// Number of recovery particles injected by the Augmented-MCL monitor.
    pub particles_injected: u64,
    /// Number of applied updates whose resampling step was skipped by the
    /// ESS gate (weights were still healthy, likelihoods multiplied in
    /// place instead).
    pub resamples_skipped: u64,
    /// Number of applied updates whose log-likelihoods were annealed by the
    /// ESS-targeted tempering guard (the raw observation alone would have
    /// collapsed the effective sample size below the configured floor).
    pub updates_tempered: u64,
}

/// The Monte Carlo localization filter, generic over particle storage precision
/// `S` (`f32` / binary16) and distance-field storage `D`.
#[derive(Debug, Clone)]
pub struct MonteCarloLocalization<S: Scalar, D: DistanceField> {
    config: MclConfig,
    motion: MotionModel,
    observation: BeamEndPointModel,
    anchor_model: AnchorRangeModel,
    resampler: PartialSumResampler,
    cluster: ClusterLayout,
    particles: ParticleSet<S>,
    field: D,
    pending: MotionDelta,
    update_counter: u64,
    counters: FilterCounters,
    /// Per-update scratch: one log-likelihood per particle (correction step).
    log_likelihoods: Vec<f32>,
    /// Per-update scratch: weights widened to `f32` for the tempering solve,
    /// then the normalized weights widened once for both the ESS gate and
    /// the resampling plan (unused at fp32 storage, where the weight array
    /// feeds them directly).
    weights_f32: Vec<f32>,
    /// Per-update scratch: the resampling plan, allocations reused.
    plan: ResamplePlan,
    /// Per-update scratch: a copy of the observation's beams, partitioned for
    /// `config.r_max`, allocations reused.
    beams: BeamBatch,
    /// Adaptive population state and policy (KLD bins, likelihood monitor,
    /// recovery latch and free space); `None` when `config.adaptive.enabled`
    /// is false, keeping the fixed-size path byte-identical to the seed
    /// behaviour.
    adaptive: Option<AdaptiveState>,
}

impl<S: Scalar, D: DistanceField> MonteCarloLocalization<S, D> {
    /// Creates a filter from a configuration and a precomputed distance field.
    ///
    /// # Errors
    ///
    /// Returns [`MclError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: MclConfig, field: D) -> Result<Self, MclError> {
        config.validate()?;
        Ok(MonteCarloLocalization {
            motion: MotionModel::new(config.sigma_odom),
            observation: BeamEndPointModel::new(config.sigma_obs, config.r_max),
            anchor_model: AnchorRangeModel::new(config.sigma_uwb),
            resampler: PartialSumResampler::new(config.workers),
            cluster: ClusterLayout::new(config.workers),
            particles: ParticleSet::with_capacity(config.num_particles)?,
            field,
            pending: MotionDelta::default(),
            update_counter: 0,
            counters: FilterCounters::default(),
            log_likelihoods: Vec::with_capacity(config.num_particles),
            weights_f32: Vec::with_capacity(config.num_particles),
            plan: ResamplePlan {
                indices: Vec::with_capacity(config.num_particles),
                worker_output_ranges: Vec::with_capacity(config.workers),
            },
            beams: BeamBatch::default(),
            adaptive: config
                .adaptive
                .enabled
                .then(|| AdaptiveState::new(config.adaptive)),
            config,
        })
    }

    /// The filter configuration.
    pub fn config(&self) -> &MclConfig {
        &self.config
    }

    /// The distance field the observation model reads.
    pub fn distance_field(&self) -> &D {
        &self.field
    }

    /// The particle set (empty before initialization).
    pub fn particles(&self) -> &ParticleSet<S> {
        &self.particles
    }

    /// Usage counters.
    pub fn counters(&self) -> FilterCounters {
        self.counters
    }

    /// Spreads the particles uniformly over the free space of `map` — global
    /// localization with no prior, as in the paper's kidnapped start (Fig. 1).
    ///
    /// # Errors
    ///
    /// Returns [`MclError::NoFreeSpace`] when the map has no free cell.
    pub fn initialize_uniform(&mut self, map: &OccupancyGrid, seed: u64) -> Result<(), MclError> {
        self.particles
            .initialize_uniform(self.config.num_particles, map, seed)?;
        if let Some(state) = self.adaptive.as_mut() {
            state.capture_free_space(map);
        }
        Ok(())
    }

    /// Concentrates the particles around a known starting pose (pose tracking).
    ///
    /// # Errors
    ///
    /// Returns [`MclError::InvalidConfig`] when the configured particle count is
    /// zero (already rejected at construction, listed for completeness).
    pub fn initialize_gaussian(
        &mut self,
        pose: &Pose2,
        std_xy: f32,
        std_theta: f32,
        seed: u64,
    ) -> Result<(), MclError> {
        self.particles
            .initialize_gaussian(self.config.num_particles, pose, std_xy, std_theta, seed)
    }

    /// Accumulates an odometry increment (body frame). Cheap; call at odometry
    /// rate.
    ///
    /// An increment with a NaN or infinite component is discarded: it is not
    /// accumulated and not counted in [`FilterCounters::predictions`].
    /// Accumulating it would poison the pending motion, and through the next
    /// motion step every particle, for the rest of the flight.
    pub fn predict(&mut self, delta: MotionDelta) {
        if !delta.is_finite() {
            return;
        }
        self.pending = self.pending.accumulate(&delta);
        self.counters.predictions += 1;
    }

    /// The motion accumulated since the last applied update.
    pub fn pending_motion(&self) -> MotionDelta {
        self.pending
    }

    /// Returns `true` when the accumulated motion has passed the update gate.
    pub fn gate_open(&self) -> bool {
        self.pending.translation() >= self.config.d_xy
            || self.pending.rotation() >= self.config.d_theta
    }

    /// Offers a sensor-agnostic observation to the filter — ToF beams, UWB
    /// anchor ranges, or both in one [`ObservationBatch`]. Applies the full
    /// MCL iteration when the motion gate is open, otherwise skips it.
    ///
    /// Per-sensor log-likelihood kernels sum into the particle weights: the
    /// beam kernel fills the per-particle accumulator, then (only when the
    /// batch [carries anchors](ObservationBatch::has_anchors)) the
    /// anchor-range kernel adds its scores on top. A beam-only batch runs
    /// no anchor dispatch at all; non-finite anchor ranges are skipped,
    /// never propagated.
    ///
    /// Only beams measuring strictly below `r_max` are scored (a NaN range is
    /// not). The filter partitions a copy of the beam block for its `r_max`
    /// itself, so callers pass the beams as built; the partition is stable,
    /// so a batch the caller already
    /// [partitioned](BeamBatch::partition_in_range) gives the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`MclError::NotInitialized`] before the particles have been
    /// initialized.
    pub fn update_observations(
        &mut self,
        observations: &ObservationBatch,
    ) -> Result<UpdateOutcome, MclError> {
        if !self.particles.is_initialized() {
            return Err(MclError::NotInitialized);
        }
        if !self.gate_open() {
            self.counters.updates_skipped += 1;
            return Ok(UpdateOutcome::Skipped);
        }
        Ok(UpdateOutcome::Applied(self.apply_iteration(observations)))
    }

    /// Applies one full multi-sensor MCL iteration regardless of the motion
    /// gate (used for the very first observation and by the benchmarks that
    /// time a full iteration).
    ///
    /// # Panics
    ///
    /// Panics if the particles have not been initialized; use
    /// [`MonteCarloLocalization::update_observations`] for the checked
    /// variant.
    pub fn force_update_observations(&mut self, observations: &ObservationBatch) -> PoseEstimate {
        assert!(
            self.particles.is_initialized(),
            "initialize the particle set before updating"
        );
        self.apply_iteration(observations)
    }

    /// The current pose estimate (weighted particle average), reduced by the
    /// pose kernel over fixed-size blocks so the result is bit-identical for
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Panics if the particle set has not been initialized.
    pub fn estimate(&self) -> PoseEstimate {
        kernel::pose_estimate_with(
            self.particles.current(),
            &self.cluster,
            self.config.kernel_backend,
        )
    }

    /// One full prediction–correction–resampling–pose sequence, as its named
    /// stages: predict, score, temper, reweight, normalize + decide,
    /// resample + inject, publish.
    fn apply_iteration(&mut self, observations: &ObservationBatch) -> PoseEstimate {
        let delta = core::mem::take(&mut self.pending);
        self.update_counter += 1;
        self.predict_particles(&delta);
        let (max_log, in_range) = self.score(observations);
        let max_log = self.temper(observations, max_log, in_range);
        self.reweight(max_log);
        self.counters.updates_applied += 1;
        let Some((target, injected)) = self.normalize_and_decide() else {
            // Skipped resample: the normalized, likelihood-multiplied weights
            // carry over to the next update untouched. The population is
            // unchanged, so the cycle accounting still charges a full update.
            let n = self.particles.len();
            self.counters.resampled_particles += n as u64;
            self.counters.resamples_skipped += 1;
            return self.publish(n);
        };
        let kept = self.resample_and_inject(target, injected);
        self.counters.resampled_particles += target as u64;
        self.publish(kept)
    }

    /// Prediction: the motion kernel samples every particle through the
    /// odometry model; per-particle RNG streams make chunking irrelevant.
    fn predict_particles(&mut self, delta: &MotionDelta) {
        let motion = self.motion;
        let seed = self.config.seed;
        let update_index = self.update_counter;
        let backend = self.config.kernel_backend;
        self.cluster.for_each_split(
            self.particles.current_mut().as_mut_slice(),
            |start, chunk| {
                kernel::motion_predict_with(
                    backend,
                    chunk,
                    &motion,
                    delta,
                    seed,
                    update_index,
                    start as u64,
                );
            },
        );
    }

    /// Correction, first half: one log-likelihood per particle from the beam
    /// kernel, plus — when the observation carries UWB anchor ranges — the
    /// anchor-range kernel's, *added* into the same accumulator (per-sensor
    /// log-likelihoods sum: the independent-sensor fusion rule). The anchor
    /// dispatch is strictly gated on the anchor block being non-empty, so
    /// beam-only updates execute the exact beam-only floating-point sequence
    /// (golden-trace pinned). The beam block is copied into the filter's
    /// scratch and partitioned there for `config.r_max`. Returns the maximum
    /// log-likelihood and the number of in-range beams scored.
    fn score(&mut self, observations: &ObservationBatch) -> (f32, usize) {
        let backend = self.config.kernel_backend;
        let observation = self.observation;
        let anchor_model = self.anchor_model;
        let field = &self.field;
        let r_max = self.config.r_max;
        self.beams.clone_from(observations.beams());
        let in_range = self.beams.partition_in_range(r_max);
        let batch = &self.beams;
        self.log_likelihoods.clear();
        self.log_likelihoods.resize(self.particles.len(), 0.0);
        self.cluster.for_each_split(
            (
                self.particles.current().as_slice(),
                self.log_likelihoods.as_mut_slice(),
            ),
            |_, (chunk, out)| {
                kernel::observation_log_likelihoods_with(
                    backend,
                    chunk,
                    field,
                    &observation,
                    batch,
                    out,
                );
            },
        );
        if observations.has_anchors() {
            self.cluster.for_each_split(
                (
                    self.particles.current().as_slice(),
                    self.log_likelihoods.as_mut_slice(),
                ),
                |_, (chunk, out)| {
                    kernel::anchor_log_likelihoods_with(
                        backend,
                        chunk,
                        &anchor_model,
                        observations,
                        out,
                    );
                },
            );
        }
        let max_log = self
            .log_likelihoods
            .iter()
            .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        (max_log, in_range)
    }

    /// Adaptive tempering of the raw log-likelihoods (`AdaptiveState::temper`,
    /// which also feeds the likelihood monitor); returns the `max_log` the
    /// reweight kernels shift by. The monitor input is normalized per unit
    /// of evidence: the `in_range` beams the score stage scored plus the
    /// usable (finite) anchor ranges. Leaves a fixed-population filter's
    /// logs untouched.
    fn temper(&mut self, observations: &ObservationBatch, max_log: f32, in_range: usize) -> f32 {
        let Some(state) = self.adaptive.as_mut() else {
            return max_log;
        };
        let evidence = in_range + observations.usable_anchor_count();
        let tempered = state.temper(
            self.particles.current().weight(),
            &mut self.weights_f32,
            &mut self.log_likelihoods,
            max_log,
            evidence,
            self.config.kernel_backend,
        );
        match tempered {
            Some(tempered_max) => {
                self.counters.updates_tempered += 1;
                tempered_max
            }
            None => max_log,
        }
    }

    /// Correction, second half: the reweight kernels multiply each particle's
    /// likelihood, exponentiated relative to `max_log` so a sharp observation
    /// model cannot underflow `f32`, into its stored weight.
    fn reweight(&mut self, max_log: f32) {
        let backend = self.config.kernel_backend;
        self.cluster.for_each_split(
            (
                self.particles.current_mut().weight_mut(),
                self.log_likelihoods.as_slice(),
            ),
            |_, (weights, logs)| kernel::reweight_with(backend, weights, logs, max_log),
        );
    }

    /// Weight normalization and the population decision. The decision and
    /// the resampling plan read the normalized weights as `f32`: fp32
    /// storage hands them the SoA weight array directly, other precisions
    /// widen once here into the reusable scratch and both read that copy.
    /// Returns the next population and how many of its slots recovery
    /// injection fills, or `None` when the adaptive ESS gate skips
    /// resampling (`AdaptiveState::decide`). A fixed population resamples
    /// all `n` particles and injects none.
    fn normalize_and_decide(&mut self) -> Option<(usize, usize)> {
        self.particles.normalize_weights();
        let current = self.particles.current();
        let weights = particle::weights_as_f32(current.weight(), &mut self.weights_f32);
        match self.adaptive.as_mut() {
            Some(state) => state.decide(current.as_slice(), weights),
            None => Some((current.len(), 0)),
        }
    }

    /// Systematic resampling over partial sums into the first
    /// `target − injected` slots of the new generation, then recovery
    /// injection (`AdaptiveState::inject`) into the rest. Returns the number
    /// of resampled particles.
    fn resample_and_inject(&mut self, target: usize, injected: usize) -> usize {
        let seed = self.config.seed;
        let update_index = self.update_counter;
        let backend = self.config.kernel_backend;
        let kept = target - injected;
        let offset = CounterRng::for_update(seed, update_index).uniform();
        // The normalized weights as `f32`, as the decide stage read them.
        let weights = S::f32_slice(self.particles.current().weight()).unwrap_or(&self.weights_f32);
        self.resampler
            .plan_resize_into(backend, weights, offset, kept, &mut self.plan);
        let uniform_weight = S::from_f32(1.0 / target as f32);
        let plan = &self.plan;
        let (current, scratch) = self.particles.buffers_mut();
        scratch.resize(target);
        let source = current.as_slice();
        // The scatter covers the resampled prefix; injected slots (the
        // suffix) are filled below. The plan's worker ranges tile the prefix
        // exactly, so `for_each_range`'s coverage check still guards the
        // dispatch.
        let (kept_slots, _) = scratch.as_mut_slice().split_at_mut(kept);
        self.cluster.for_each_range(
            (kept_slots, plan.indices.as_slice()),
            &plan.worker_output_ranges,
            |_, (out, indices)| {
                kernel::resample_scatter_with(backend, source, out, indices, uniform_weight);
            },
        );
        if let Some(state) = self.adaptive.as_ref() {
            state.inject(scratch, kept, seed, update_index);
        }
        self.counters.particles_injected += injected as u64;
        self.particles.swap_buffers();
        kept
    }

    /// Pose computation: the fixed-block reduction kernel over the first
    /// `kept` particles (freshly injected recovery particles are excluded —
    /// they carry no posterior support yet), refined onto the dominant mode
    /// in adaptive mode (`AdaptiveState::refine`).
    fn publish(&mut self, kept: usize) -> PoseEstimate {
        let mut estimate = kernel::pose_estimate_prefix_with(
            self.particles.current(),
            kept,
            &self.cluster,
            self.config.kernel_backend,
        );
        if let Some(state) = self.adaptive.as_mut() {
            state.refine(
                self.particles.current(),
                kept,
                &mut estimate,
                self.config.kernel_backend,
            );
        }
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use mcl_gridmap::{EuclideanDistanceField, MapBuilder, OccupancyGrid};
    use mcl_num::F16;
    use mcl_sensor::{AnchorRange, Beam, SensorConfig, SensorRig};
    use rand::SeedableRng;

    fn arena() -> OccupancyGrid {
        MapBuilder::new(4.0, 4.0, 0.05)
            .border_walls()
            .wall((2.0, 0.0), (2.0, 2.4))
            .wall((0.0, 3.0), (1.2, 3.0))
            .filled_rect((2.8, 2.8), (3.2, 3.2))
            .build()
    }

    fn edt(map: &OccupancyGrid) -> EuclideanDistanceField {
        EuclideanDistanceField::compute(map, 1.5)
    }

    fn rig() -> SensorRig {
        SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.01)
                .with_interference_probability(0.0),
        )
    }

    fn config(n: usize) -> MclConfig {
        MclConfig::default().with_particles(n).with_seed(5)
    }

    #[test]
    fn construction_validates_the_configuration() {
        let map = arena();
        let bad = MclConfig::default().with_particles(0);
        assert!(MonteCarloLocalization::<f32, _>::new(bad, edt(&map)).is_err());
        let ok = MonteCarloLocalization::<f32, _>::new(config(64), edt(&map)).unwrap();
        assert_eq!(ok.config().num_particles, 64);
    }

    #[test]
    fn update_before_initialization_is_an_error() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(64), edt(&map)).unwrap();
        assert_eq!(
            mcl.update_observations(&ObservationBatch::new())
                .unwrap_err(),
            MclError::NotInitialized
        );
    }

    #[test]
    #[should_panic(expected = "initialize the particle set before updating")]
    fn force_update_before_initialization_panics() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(64), edt(&map)).unwrap();
        let _ = mcl.force_update_observations(&ObservationBatch::new());
    }

    #[test]
    fn gate_skips_updates_until_the_drone_moves() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(128), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 1).unwrap();
        // No motion at all: skipped.
        assert_eq!(
            mcl.update_observations(&ObservationBatch::new()).unwrap(),
            UpdateOutcome::Skipped
        );
        // Small motion below both gates: still skipped.
        mcl.predict(MotionDelta::new(0.04, 0.0, 0.02));
        assert!(!mcl.gate_open());
        assert_eq!(
            mcl.update_observations(&ObservationBatch::new()).unwrap(),
            UpdateOutcome::Skipped
        );
        // Enough translation: applied.
        mcl.predict(MotionDelta::new(0.07, 0.0, 0.0));
        assert!(mcl.gate_open());
        assert!(mcl
            .update_observations(&ObservationBatch::new())
            .unwrap()
            .is_applied());
        // The pending motion is consumed by the applied update.
        assert!(mcl.pending_motion().is_zero());
        let counters = mcl.counters();
        assert_eq!(counters.updates_applied, 1);
        assert_eq!(counters.updates_skipped, 2);
        assert_eq!(counters.predictions, 2);
    }

    #[test]
    fn non_finite_odometry_is_discarded_and_the_filter_keeps_publishing() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(128), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 1).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let truth = Pose2::new(1.0, 1.0, 0.3);
        for bad in [
            MotionDelta::new(f32::NAN, 0.0, 0.0),
            MotionDelta::new(0.0, f32::INFINITY, 0.0),
            MotionDelta::new(0.0, 0.0, f32::NEG_INFINITY),
        ] {
            mcl.predict(bad);
            assert_eq!(mcl.pending_motion(), MotionDelta::default());
        }
        assert_eq!(mcl.counters().predictions, 0);
        for step in 0..4 {
            mcl.predict(MotionDelta::new(0.06, 0.0, 0.01));
            mcl.predict(MotionDelta::new(f32::NAN, f32::NAN, f32::NAN));
            mcl.predict(MotionDelta::new(0.06, 0.0, 0.01));
            let beams = rig.observe(&map, &truth, f64::from(step) / 15.0, &mut rng);
            let outcome = mcl
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
            let estimate = outcome.estimate().expect("0.12 m opens the gate");
            assert!(estimate.pose.x.is_finite(), "step {step}");
            assert!(estimate.pose.y.is_finite(), "step {step}");
            assert!(estimate.pose.theta.is_finite(), "step {step}");
        }
        assert_eq!(mcl.counters().predictions, 8);
        let particles = mcl.particles().current();
        assert!(particles.x().iter().all(|v| v.is_finite()));
        assert!(particles.theta().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rotation_alone_opens_the_gate() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(64), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 1).unwrap();
        mcl.predict(MotionDelta::new(0.0, 0.0, 0.15));
        assert!(mcl.gate_open());
        assert!(mcl
            .update_observations(&ObservationBatch::new())
            .unwrap()
            .is_applied());
    }

    /// The estimate's components as raw bits, for exact comparison.
    fn estimate_bits(estimate: &PoseEstimate) -> [u32; 6] {
        [
            estimate.pose.x.to_bits(),
            estimate.pose.y.to_bits(),
            estimate.pose.theta.to_bits(),
            estimate.position_std_m.to_bits(),
            estimate.yaw_std_rad.to_bits(),
            estimate.neff.to_bits(),
        ]
    }

    /// The particle components as raw bits, for exact comparison.
    fn particle_bits(particles: &particle::ParticleBuffer<f32>) -> Vec<u32> {
        [
            particles.x(),
            particles.y(),
            particles.theta(),
            particles.weight(),
        ]
        .iter()
        .flat_map(|values| values.iter().map(|v| v.to_bits()))
        .collect()
    }

    #[test]
    fn beam_and_batch_entry_points_agree_exactly() {
        // The filter partitions the beam block itself: a batch the caller
        // already partitioned for `r_max` and the same batch left
        // unpartitioned must give the same particles and estimates, bit for
        // bit, on every backend — NaN and beyond-`r_max` beams and a denied
        // anchor included.
        let map = arena();
        for backend in kernel::KernelBackend::ALL {
            let cfg = config(256).with_kernel_backend(backend);
            let r_max = cfg.r_max;
            let mut partitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
            let mut unpartitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
            partitioned.initialize_uniform(&map, 7).unwrap();
            unpartitioned.initialize_uniform(&map, 7).unwrap();
            let rig = rig();
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            let mut truth = Pose2::new(1.0, 1.0, 0.0);
            let skipped = [f32::NAN, r_max + 0.5].map(|range_m| Beam {
                azimuth_body_rad: 0.4,
                range_m,
                origin_body: Pose2::default(),
            });
            let anchors = [
                AnchorRange::new(0.3, 0.3, 1.0),
                AnchorRange::new(3.7, 0.4, f32::NAN),
            ];
            for step in 0..5 {
                let next = truth.compose(&Pose2::new(0.12, 0.0, 0.05));
                let delta = MotionDelta::between(&truth, &next);
                truth = next;
                let mut beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
                beams.insert(1, skipped[0]);
                beams.push(skipped[1]);
                partitioned.predict(delta);
                unpartitioned.predict(delta);
                let mut beam_batch = BeamBatch::from_beams(&beams);
                beam_batch.partition_in_range(r_max);
                let batch = ObservationBatch::from_beam_batch(beam_batch).with_anchors(&anchors);
                let a = partitioned.update_observations(&batch).unwrap();
                let b = unpartitioned
                    .update_observations(
                        &ObservationBatch::from_beams(&beams).with_anchors(&anchors),
                    )
                    .unwrap();
                let (a, b) = (a.estimate().unwrap(), b.estimate().unwrap());
                assert_eq!(
                    estimate_bits(a),
                    estimate_bits(b),
                    "{backend:?} step {step}"
                );
            }
            assert_eq!(
                particle_bits(partitioned.particles().current()),
                particle_bits(unpartitioned.particles().current()),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn adaptive_results_do_not_depend_on_beam_partitioning() {
        // The Augmented-MCL monitor normalizes by the in-range beam count;
        // the filter's own partition of an unpartitioned batch must count
        // beams at or past `r_max` exactly as the caller's partition does —
        // not at all.
        let map = arena();
        let cfg = config(1024).with_adaptive(AdaptiveConfig::enabled());
        let r_max = cfg.r_max;
        let mut partitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
        let mut unpartitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
        partitioned.initialize_uniform(&map, 5).unwrap();
        unpartitioned.initialize_uniform(&map, 5).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut truth = Pose2::new(1.0, 1.0, 0.0);
        let far = Beam {
            azimuth_body_rad: 0.0,
            range_m: r_max + 0.5,
            origin_body: Pose2::default(),
        };
        for step in 0..60 {
            let next = truth.compose(&Pose2::new(0.11, 0.0, 0.05));
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            let mut beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
            beams.push(far);
            partitioned.predict(delta);
            unpartitioned.predict(delta);
            let mut beam_batch = BeamBatch::from_beams(&beams);
            beam_batch.partition_in_range(r_max);
            let batch = ObservationBatch::from_beam_batch(beam_batch);
            let _ = partitioned.update_observations(&batch).unwrap();
            let _ = unpartitioned
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
            assert_eq!(
                partitioned.particles().current(),
                unpartitioned.particles().current(),
                "diverged at update {step}"
            );
        }
    }

    #[test]
    fn nan_denied_anchors_leave_a_beam_update_unchanged() {
        // Every anchor range denied (NaN): the anchor kernel runs but scores
        // nothing, so the particles match the same beams without an anchor
        // block — with fixed and with adaptive population alike.
        let map = arena();
        for cfg in [
            config(512),
            config(512).with_adaptive(AdaptiveConfig::enabled()),
        ] {
            let mut beam_only = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
            let mut denied = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
            beam_only.initialize_uniform(&map, 23).unwrap();
            denied.initialize_uniform(&map, 23).unwrap();
            let rig = rig();
            let mut rng = rand::rngs::StdRng::seed_from_u64(29);
            let mut truth = Pose2::new(1.0, 1.2, 0.1);
            for step in 0..8 {
                let next = truth.compose(&Pose2::new(0.12, 0.0, 0.04));
                let delta = MotionDelta::between(&truth, &next);
                truth = next;
                let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
                beam_only.predict(delta);
                denied.predict(delta);
                let batch = ObservationBatch::from_beams(&beams);
                let mut with_denied = batch.clone();
                with_denied.push_anchor(AnchorRange::new(0.3, 0.3, f32::NAN));
                with_denied.push_anchor(AnchorRange::new(3.7, 0.4, f32::NAN));
                let a = beam_only.update_observations(&batch).unwrap();
                let b = denied.update_observations(&with_denied).unwrap();
                assert_eq!(a, b, "step {step}");
            }
            assert_eq!(
                beam_only.particles().current(),
                denied.particles().current()
            );
        }
    }

    #[test]
    fn empty_observation_leaves_finite_uniform_weights() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(128), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 4).unwrap();
        let estimate = mcl.force_update_observations(&ObservationBatch::new());
        assert!(estimate.pose.x.is_finite() && estimate.pose.y.is_finite());
        let expected = 1.0 / 128.0;
        for p in mcl.particles().iter() {
            assert!(p.weight_f32().is_finite());
            assert!((p.weight_f32() - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn anchor_only_updates_localize_the_position() {
        // UWB-only operation: no beams at all, three anchors with exact
        // ranges. The range likelihood carries no heading information, but
        // three circles intersect in one point, so the position must
        // converge from a global (uniform) start.
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(2048), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 13).unwrap();
        let anchors = [(0.3_f32, 0.3_f32), (3.7, 0.4), (0.4, 3.6)];
        let mut truth = Pose2::new(1.1, 1.3, 0.0);
        for _ in 0..12 {
            let next = truth.compose(&Pose2::new(0.11, 0.0, 0.0));
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            mcl.predict(delta);
            let mut batch = ObservationBatch::new();
            for &(ax, ay) in &anchors {
                let range = ((truth.x - ax).powi(2) + (truth.y - ay).powi(2)).sqrt();
                batch.push_anchor(AnchorRange::new(ax, ay, range));
            }
            let _ = mcl.update_observations(&batch).unwrap();
        }
        let estimate = mcl.estimate();
        let dx = estimate.pose.x - truth.x;
        let dy = estimate.pose.y - truth.y;
        let err = (dx * dx + dy * dy).sqrt();
        assert!(
            err < 0.3,
            "anchor-only position error too large: {err} m ({estimate})"
        );
    }

    #[test]
    fn fused_update_differs_from_beam_only_when_anchors_are_present() {
        // Same beams, same seeds — adding an anchor block must actually be
        // observed by the correction step (this guards against the dispatch
        // gate accidentally swallowing the anchor scores).
        let map = arena();
        let mut beam_only = MonteCarloLocalization::<f32, _>::new(config(256), edt(&map)).unwrap();
        let mut fused = MonteCarloLocalization::<f32, _>::new(config(256), edt(&map)).unwrap();
        beam_only.initialize_uniform(&map, 17).unwrap();
        fused.initialize_uniform(&map, 17).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let truth = Pose2::new(1.2, 0.9, 0.3);
        let beams = rig.observe(&map, &truth, 0.0, &mut rng);
        let batch = ObservationBatch::from_beams(&beams);
        let mut with_anchors = batch.clone();
        with_anchors.push_anchor(AnchorRange::new(0.3, 0.3, 1.08));
        let a = beam_only.force_update_observations(&batch);
        let b = fused.force_update_observations(&with_anchors);
        assert_ne!(
            beam_only.particles().current(),
            fused.particles().current(),
            "anchor block had no effect on the correction step"
        );
        // Both still publish finite, normalized estimates.
        assert!(a.pose.x.is_finite() && b.pose.x.is_finite());
    }

    #[test]
    fn tracking_converges_to_the_true_pose() {
        // Pose-tracking scenario: particles start around the true pose, the drone
        // moves along a short path, and the estimate must follow it closely.
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(1024), edt(&map)).unwrap();
        let mut truth = Pose2::new(1.0, 1.0, 0.0);
        mcl.initialize_gaussian(&truth, 0.3, 0.3, 2).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for step in 0..30 {
            let next = Pose2::new(
                1.0 + 0.04 * (step + 1) as f32,
                1.0 + 0.02 * (step + 1) as f32,
                0.05 * (step + 1) as f32,
            );
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            mcl.predict(delta);
            let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
            let _ = mcl
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
        }
        let estimate = mcl.estimate();
        let err = estimate.pose.translation_distance(&truth);
        assert!(err < 0.3, "tracking error too large: {err} m ({estimate})");
    }

    #[test]
    fn global_localization_converges_with_enough_particles() {
        let map = arena();
        let mut mcl =
            MonteCarloLocalization::<f32, _>::new(config(4096).with_workers(4), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 9).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Drive a loop through the left room.
        let mut truth = Pose2::new(0.6, 0.6, 0.0);
        let waypoints = [
            Pose2::new(1.6, 0.6, 0.0),
            Pose2::new(1.6, 1.6, core::f32::consts::FRAC_PI_2),
            Pose2::new(0.7, 1.9, core::f32::consts::PI),
            Pose2::new(0.6, 0.8, -core::f32::consts::FRAC_PI_2),
        ];
        let mut t = 0.0;
        for waypoint in waypoints.iter().cycle().take(16) {
            // Move towards the waypoint in ~0.12 m steps.
            for _ in 0..12 {
                let to_wp = MotionDelta::between(&truth, waypoint);
                if to_wp.translation() < 0.12 && to_wp.rotation() < 0.2 {
                    break;
                }
                let scale = (0.12 / to_wp.translation().max(0.12)).min(1.0);
                let step = MotionDelta::new(
                    to_wp.dx * scale,
                    to_wp.dy * scale,
                    to_wp.dtheta.clamp(-0.3, 0.3),
                );
                let next = truth.compose(&Pose2::new(step.dx, step.dy, step.dtheta));
                let delta = MotionDelta::between(&truth, &next);
                truth = next;
                t += 1.0 / 15.0;
                mcl.predict(delta);
                let beams = rig.observe(&map, &truth, t, &mut rng);
                let _ = mcl
                    .update_observations(&ObservationBatch::from_beams(&beams))
                    .unwrap();
            }
        }
        let estimate = mcl.estimate();
        let err = estimate.pose.translation_distance(&truth);
        assert!(
            err < 0.35,
            "global localization failed to converge: error {err} m ({estimate})"
        );
    }

    #[test]
    fn sequential_and_parallel_execution_agree_exactly() {
        let map = arena();
        let mut seq =
            MonteCarloLocalization::<f32, _>::new(config(512).with_workers(1), edt(&map)).unwrap();
        let mut par =
            MonteCarloLocalization::<f32, _>::new(config(512).with_workers(8), edt(&map)).unwrap();
        seq.initialize_uniform(&map, 21).unwrap();
        par.initialize_uniform(&map, 21).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut truth = Pose2::new(1.0, 1.2, 0.2);
        for step in 0..10 {
            let next = truth.compose(&Pose2::new(0.11, 0.0, 0.05));
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
            seq.predict(delta);
            par.predict(delta);
            let _ = seq
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
            let _ = par
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
        }
        assert_eq!(seq.particles().current(), par.particles().current());
        // The fixed-block pose reduction is bit-identical too.
        let a = seq.estimate();
        let b = par.estimate();
        assert_eq!(a.pose.x.to_bits(), b.pose.x.to_bits());
        assert_eq!(a.pose.theta.to_bits(), b.pose.theta.to_bits());
        assert_eq!(a.neff.to_bits(), b.neff.to_bits());
    }

    #[test]
    fn half_precision_filter_runs_and_stays_reasonable() {
        let map = arena();
        let quantized = edt(&map).quantize();
        let mut mcl = MonteCarloLocalization::<F16, _>::new(config(1024), quantized).unwrap();
        let mut truth = Pose2::new(1.0, 1.0, 0.0);
        mcl.initialize_gaussian(&truth, 0.3, 0.3, 2).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for step in 0..25 {
            let next = truth.compose(&Pose2::new(0.08, 0.0, 0.02));
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            mcl.predict(delta);
            let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
            let _ = mcl
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
        }
        let err = mcl.estimate().pose.translation_distance(&truth);
        assert!(err < 0.35, "fp16 tracking error too large: {err}");
    }

    #[test]
    fn force_update_works_without_motion() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(256), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 3).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let truth = Pose2::new(0.8, 0.8, 0.4);
        let beams = rig.observe(&map, &truth, 0.0, &mut rng);
        let before = mcl.estimate();
        let after = mcl.force_update_observations(&ObservationBatch::from_beams(&beams));
        // The update ran (weights were reset, resampling happened) even though
        // the drone never moved.
        assert_eq!(mcl.counters().updates_applied, 1);
        assert!(before.pose.translation_distance(&after.pose) >= 0.0);
        assert!((mcl.particles().weight_sum() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn weights_are_uniform_after_resampling() {
        let map = arena();
        let mut mcl = MonteCarloLocalization::<f32, _>::new(config(128), edt(&map)).unwrap();
        mcl.initialize_uniform(&map, 6).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let beams = rig.observe(&map, &Pose2::new(1.0, 1.0, 0.0), 0.0, &mut rng);
        let _ = mcl.force_update_observations(&ObservationBatch::from_beams(&beams));
        let expected = 1.0 / 128.0;
        for p in mcl.particles().iter() {
            assert!((p.weight_f32() - expected).abs() < 1e-6);
        }
        assert!((mcl.particles().effective_sample_size() - 128.0).abs() < 0.5);
    }
}
