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
//! An applied update dispatches the [`crate::kernel`] functions over the
//! [`ClusterLayout`] workers: each worker runs the same kernel on its contiguous
//! slice of the structure-of-arrays [`ParticleSet`], executing on the
//! persistent shared [`crate::pool::WorkerPool`] (resident threads, no spawn
//! per update — and a filter updating inside an already-parallel job, such as
//! an `mcl_sim::run_batch` worker, automatically runs its kernels inline
//! instead of oversubscribing the host). The beams of the observation arrive
//! flattened into a [`BeamBatch`](mcl_sensor::BeamBatch) that the caller
//! partitions **once per update** for the configured `r_max`, so the
//! correction loop body is branch-free. When the batch carries anchor
//! ranges, the anchor-range kernel *adds* its per-sensor log-likelihoods
//! into the same per-particle accumulator the beam kernel fills, so the
//! correct step stays one reweight pass regardless of how many
//! sensor modalities contributed. Per-update scratch buffers
//! (log-likelihoods, f32 weights) are reused across updates, so the
//! steady-state hot path performs no heap allocation beyond the resampling
//! plan.
//!
//! A beam-only observation is an [`ObservationBatch`] without an anchor
//! block ([`ObservationBatch::from_beams`] /
//! [`ObservationBatch::from_beam_batch`]); the anchor kernel is gated on
//! [`ObservationBatch::has_anchors`], so such an update executes the exact
//! beam-only instruction sequence the golden trace test pins.

use crate::adaptive::{self, AdaptiveState};
use crate::config::{MclConfig, MclError};
use crate::estimate::PoseEstimate;
use crate::kernel;
use crate::motion::{MotionDelta, MotionModel};
use crate::observation::{AnchorRangeModel, BeamEndPointModel};
use crate::parallel::ClusterLayout;
use crate::particle::{self, Particle, ParticleSet};
use crate::resampling::{PartialSumResampler, ResamplePlan};
use crate::rng::CounterRng;
use mcl_gridmap::{DistanceField, OccupancyGrid, Pose2};
use mcl_num::Scalar;
use mcl_sensor::ObservationBatch;

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
    /// Adaptive population state (KLD bins + likelihood monitor); `None`
    /// when `config.adaptive.enabled` is false, keeping the fixed-size path
    /// byte-identical to the seed behaviour.
    adaptive: Option<AdaptiveState>,
    /// World coordinates of the map's free-cell centres, captured by
    /// [`MonteCarloLocalization::initialize_uniform`] for recovery
    /// injection. Empty when unknown (e.g. Gaussian initialization), in
    /// which case injection is skipped.
    free_space: Vec<(f32, f32)>,
    /// Half the map resolution: injected poses jitter inside their cell
    /// exactly like the uniform initialization.
    free_space_jitter: f32,
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
            adaptive: config
                .adaptive
                .enabled
                .then(|| AdaptiveState::new(config.adaptive)),
            free_space: Vec::new(),
            free_space_jitter: 0.0,
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

    /// The adaptive-control state (KLD sampler, likelihood monitor and
    /// recovery latch) when adaptive population control is enabled. Exposed
    /// for diagnostics and tests.
    pub fn adaptive_state(&self) -> Option<&adaptive::AdaptiveState> {
        self.adaptive.as_ref()
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
        if self.config.adaptive.enabled {
            // Capture the free space for recovery injection: the filter only
            // holds the distance field afterwards, which has no notion of
            // "free", so the table is built once here.
            self.free_space = map
                .indices()
                .filter(|&i| map.state(i) == mcl_gridmap::CellState::Free)
                .map(|i| {
                    let centre = map.cell_to_world(i);
                    (centre.x, centre.y)
                })
                .collect();
            self.free_space_jitter = map.resolution() * 0.5;
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
    /// Callers that [partition](ObservationBatch::partition_in_range) the
    /// beam block for this filter's `r_max` get the branch-free correction
    /// loop; an unpartitioned batch is scored through the (bit-identical)
    /// per-beam range test and counted with the same `r < r_max` predicate.
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

    /// The estimate an applied update publishes: reduced over the first
    /// `kept` particles (freshly injected recovery particles are excluded —
    /// they carry no posterior support yet), and, in adaptive mode, with the
    /// pose refined onto the dominant mode. A multi-modal belief — exactly
    /// what the ESS gate is designed to preserve in symmetric worlds — puts
    /// the plain weighted average *between* the modes; the mean-shift pass
    /// reports the heaviest one instead, the convention of deployed MCL
    /// stacks.
    fn published_estimate(&mut self, kept: usize) -> PoseEstimate {
        let mut estimate = kernel::pose_estimate_prefix_with(
            self.particles.current(),
            kept,
            &self.cluster,
            self.config.kernel_backend,
        );
        if let Some(state) = self.adaptive.as_mut() {
            let (pose, mass) = kernel::refine_mode_estimate(
                self.particles.current(),
                kept,
                estimate.pose,
                adaptive::MODE_REFINE_RADIUS_M,
                adaptive::MODE_REFINE_ITERATIONS,
                &mut state.mode_refine,
            );
            // Publish the refined pose only once the dominant mode holds a
            // majority of the mass: while several hypotheses are still live,
            // confidently reporting one of them makes the estimate jump
            // between modes (false convergence, lost-tracking flags); the
            // conservative full-cloud mean stays far from every mode and
            // honestly signals "not converged yet".
            if mass >= adaptive::MODE_REFINE_MIN_MASS {
                estimate.pose = pose;
            }
        }
        estimate
    }

    /// One full prediction–correction–resampling–pose sequence.
    fn apply_iteration(&mut self, observations: &ObservationBatch) -> PoseEstimate {
        let batch = observations.beams();
        let delta = self.pending;
        self.pending = MotionDelta::default();
        self.update_counter += 1;
        let update_index = self.update_counter;
        let seed = self.config.seed;
        let n = self.particles.len();
        let cluster = self.cluster;
        // Which kernel implementations the dispatches below hand the workers;
        // numerically unobservable (the backends are bit-identical).
        let backend = self.config.kernel_backend;

        // 1. Prediction: the motion kernel samples every particle through the
        // odometry model; per-particle RNG streams make chunking irrelevant.
        let motion = self.motion;
        cluster.for_each_split(
            self.particles.current_mut().as_mut_slice(),
            |start, chunk| {
                kernel::motion_predict_with(
                    backend,
                    chunk,
                    &motion,
                    &delta,
                    seed,
                    update_index,
                    start as u64,
                );
            },
        );

        // 2. Correction: beam-end-point re-weighting. Log-likelihoods are
        // computed per particle and exponentiated relative to the maximum over
        // the whole set, so a sharp observation model cannot underflow f32.
        let observation = self.observation;
        let field = &self.field;
        self.log_likelihoods.clear();
        self.log_likelihoods.resize(n, 0.0);
        cluster.for_each_split(
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
        // Sensor fusion: when the observation carries UWB anchor ranges, the
        // anchor-range kernel *adds* its per-particle log-likelihoods into
        // the accumulator the beam kernel just filled — per-sensor
        // log-likelihoods sum, which is the independent-sensor fusion rule.
        // The dispatch is strictly gated on the anchor block being non-empty
        // so beam-only updates execute the exact beam-only floating-point
        // sequence (golden-trace pinned).
        if observations.has_anchors() {
            let anchor_model = self.anchor_model;
            cluster.for_each_split(
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
        let mut max_log = self
            .log_likelihoods
            .iter()
            .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        // Adaptive pre-processing of the raw log-likelihoods, before the
        // reweight kernels consume them:
        //
        // * the Augmented-MCL monitor input must be taken from the *raw*
        //   logs, so it is computed here and stashed for step 3. The value
        //   fed is the **per-beam** mean likelihood,
        //   `exp(ln(mean_i exp(l_i)) / beams)`: the raw multi-beam product
        //   scales exponentially with how many beams are in range and how
        //   cluttered the viewpoint is, so an unnormalized short/long-term
        //   ratio tracks observation hardness instead of localization
        //   quality (and its `exp(l)` terms underflow outright for harsh
        //   scenes). The per-beam root makes the signal comparable across
        //   viewpoints; the shift by `max_log` keeps the sum finite.
        // * likelihood tempering: when this observation alone would collapse
        //   the effective sample size below `temper_ess × n`, anneal the logs
        //   by the `β` that lands the post-update ESS on that floor. This is
        //   the weight-degeneracy guard for sharp multi-beam models — without
        //   it the very first resample of a global init can hand the whole
        //   cloud to one aliased particle. Serial and a pure function of the
        //   weights and logs, so the outcome is schedule- and
        //   backend-independent.
        let raw_mean_likelihood = if self.adaptive.is_some() {
            // Per-observation normalization count: in-range beams plus the
            // usable (finite) anchor ranges that also contributed
            // log-likelihood mass. An unpartitioned batch counts its in-range
            // beams with the partition's own `r < r_max` predicate, so
            // partitioning stays an execution detail here too.
            let r_max = self.config.r_max;
            let in_range = batch
                .in_range_prefix(r_max)
                .unwrap_or_else(|| batch.beams_within(r_max));
            let beams = (in_range + observations.usable_anchor_count()).max(1);
            // Halve the tempering floor while a recovery episode runs: the
            // episode exists to let freshly injected hypotheses seize mass
            // from a wrong mode quickly, which is exactly the weight
            // concentration tempering suppresses. Keeping half the floor
            // (instead of disabling tempering outright) still bounds how
            // much of the cloud a single garbage observation — a noise
            // burst that itself triggered the episode — can hand to one
            // lucky particle.
            let mut temper = f64::from(self.config.adaptive.temper_ess);
            if self
                .adaptive
                .as_ref()
                .is_some_and(|s| s.recovery_updates_left > 0)
            {
                temper *= 0.5;
            }
            let mean = if max_log.is_finite() {
                let weights =
                    weights_as_f32(self.particles.current().weight(), &mut self.weights_f32);
                // The solve's β = 1 pass also sums the raw relative
                // likelihoods for the monitor; a zero target (tempering
                // off) stops after that pass with β = 1.
                let tempering = adaptive::temper_beta(
                    weights,
                    &self.log_likelihoods,
                    max_log,
                    temper * n as f64,
                );
                let mean_rel = tempering.raw_likelihood_sum / n as f64;
                let mean = ((f64::from(max_log) + mean_rel.ln()) / beams as f64).exp();
                // The β floor bounds how much of the observation annealing
                // may discard (see `AdaptiveConfig::temper_beta_floor`):
                // during aliased global init every update ESS-crashes, and
                // unfloored annealing starves the filter of evidence until
                // the wheel commits it to an arbitrary mode.
                let beta = tempering
                    .beta
                    .max(f64::from(self.config.adaptive.temper_beta_floor));
                if beta < 1.0 {
                    for l in &mut self.log_likelihoods {
                        *l = (f64::from(*l) * beta) as f32;
                    }
                    max_log = (f64::from(max_log) * beta) as f32;
                    self.counters.updates_tempered += 1;
                }
                mean
            } else {
                0.0
            };
            Some(mean)
        } else {
            None
        };
        cluster.for_each_split(
            (
                self.particles.current_mut().weight_mut(),
                self.log_likelihoods.as_slice(),
            ),
            |_, (weights, logs)| kernel::reweight_with(backend, weights, logs, max_log),
        );

        // 3. Weight normalization + systematic resampling over partial sums.
        // The ESS gate and the plan read the normalized weights as `f32`:
        // fp32 storage hands them the SoA weight array directly, other
        // precisions widen once into the reusable scratch and both read that
        // copy. The plan itself reuses its allocations too, so the steady
        // state allocates nothing here.
        //
        // With adaptive population control enabled, this step additionally
        // (a) picks the next population from the KLD bin statistics of the
        // predicted cloud and (b) replaces the tail of the new generation
        // with recovery particles when the likelihood monitor reports a
        // short-term collapse (Augmented MCL). Both decisions are pure
        // functions of the filter state, so the population trajectory is
        // bit-identical for every worker count and kernel backend.
        self.particles.normalize_weights();
        let weights = weights_as_f32(self.particles.current().weight(), &mut self.weights_f32);
        let mut offset_rng = CounterRng::for_update(seed, update_index);
        let offset = offset_rng.uniform();
        let resampler = self.resampler;
        let decision = match self.adaptive.as_mut() {
            Some(state) => {
                // Per-beam mean observation likelihood of this update, fed
                // to the short/long-term monitor. Stashed by step 2 from the
                // raw (pre-tempering) log-likelihoods, in f64 so the scale
                // is storage-independent.
                let mean_likelihood =
                    raw_mean_likelihood.expect("computed in step 2 when adaptive is on");
                state.monitor.observe(mean_likelihood);
                let min = self.config.adaptive.min_particles;
                let bound = state
                    .kld
                    .population_bound(self.particles.current().as_slice());
                let kld_target = bound.clamp(min, self.config.adaptive.max_particles);
                // Recovery latches on only when the belief is concentrated
                // (the unclamped bound sits near the population floor) AND
                // the likelihood collapse clears the dead-band. A kidnapped
                // or aliased-but-committed filter is exactly that: tight and
                // suddenly unlikely. A still-localizing cloud is spread —
                // injecting into it would only perturb global convergence —
                // and small fractions are ordinary likelihood noise. Once
                // latched, the episode persists for up to
                // RECOVERY_EPISODE_UPDATES (the first injection spreads the
                // cloud, so the concentration gate alone would make recovery
                // a useless single shot), ending early as soon as the
                // short-term likelihood catches back up.
                let concentrated = bound <= min * adaptive::RECOVERY_CONCENTRATION_FACTOR;
                let trigger = f64::from(self.config.adaptive.injection_trigger);
                let raw_fraction = state.monitor.injection_fraction();
                if state.recovery_updates_left > 0 {
                    state.recovery_updates_left -= 1;
                    // Ending early needs more than a recovered likelihood:
                    // right after injection the cloud holds several competing
                    // hypotheses, and an aliased competitor can score well
                    // for a few updates. Only a likelihood that has caught up
                    // *and* a belief that has re-concentrated onto a single
                    // mode mean the episode did its job; stopping before
                    // consolidation lets the next resample hand the cloud to
                    // whichever mode happened to win that round.
                    if raw_fraction < adaptive::RECOVERY_END_FRACTION && concentrated {
                        state.recovery_updates_left = 0;
                    }
                } else if concentrated && raw_fraction >= trigger {
                    state.recovery_updates_left = adaptive::RECOVERY_EPISODE_UPDATES;
                }
                // Hold the collapse at the trigger floor while latched so the
                // population stays grown for the whole episode even as the
                // slow average decays toward the collapsed level. The
                // per-beam fraction is compressed relative to the underlying
                // likelihood collapse, so it is rescaled by the saturation
                // point before sizing the growth and injection response.
                let collapse = if state.recovery_updates_left > 0 {
                    (raw_fraction.max(trigger) / adaptive::RECOVERY_COLLAPSE_SATURATION).min(1.0)
                } else {
                    0.0
                };
                // A likelihood collapse means the belief is concentrated on a
                // wrong mode — a situation the bin statistics cannot see (a
                // confidently wrong cloud occupies as few bins as a correct
                // one). Grow toward the population ceiling in proportion to
                // the collapse so the re-seeded hypotheses get the
                // resolution global re-localization needs.
                let max = self.config.adaptive.max_particles;
                let target = if collapse > 0.0 && !self.free_space.is_empty() {
                    (kld_target as f64 + collapse * (max - kld_target) as f64).round() as usize
                } else {
                    kld_target
                };
                // Injection follows the *current* mismatch (the classic
                // Augmented-MCL `1 - w_fast/w_slow` rule), not the latched
                // collapse: the latch keeps the population grown for the
                // whole episode, but pouring uniform poses into a cloud whose
                // observations already match again only dilutes the surviving
                // hypotheses and stalls re-convergence.
                // fractions under the trigger dead-band are likelihood noise,
                // not evidence of a bad hypothesis set.
                let fraction = if state.recovery_updates_left > 0 && raw_fraction >= trigger {
                    raw_fraction.min(f64::from(self.config.adaptive.max_injection_fraction))
                } else {
                    0.0
                };
                let injected = if self.free_space.is_empty() {
                    0
                } else {
                    // At least one slot always comes from the wheel, so the
                    // surviving belief is never discarded outright.
                    ((target as f64 * fraction).round() as usize).min(target - 1)
                };
                // ESS resampling gate: while the weights are still healthy
                // (effective sample size at or above the configured fraction
                // of the population) and no recovery episode is running, skip
                // resampling entirely. The reweight kernels multiply new
                // likelihoods into the surviving weights, so skipped updates
                // accumulate the Bayesian product instead of being thrown
                // away — which is what keeps low-weight-but-alive competitor
                // modes (symmetric aisles, repeated rooms) from being starved
                // out by per-update resampling noise.
                let ess_threshold = f64::from(self.config.adaptive.ess_threshold);
                let ess = f64::from(particle::effective_sample_size_of(weights.iter().copied()));
                if state.recovery_updates_left == 0
                    && ess_threshold > 0.0
                    && ess >= ess_threshold * n as f64
                {
                    None
                } else {
                    Some((target, injected))
                }
            }
            None => Some((n, 0)),
        };
        let Some((target_n, injected)) = decision else {
            // Skipped resample: the normalized, likelihood-multiplied weights
            // carry over to the next update untouched. The population is
            // unchanged, so the cycle accounting still charges a full update.
            self.counters.updates_applied += 1;
            self.counters.resampled_particles += n as u64;
            self.counters.resamples_skipped += 1;
            return self.published_estimate(n);
        };
        let kept = target_n - injected;
        resampler.plan_resize_into(weights, offset, kept, &mut self.plan);
        let uniform_weight = S::from_f32(1.0 / target_n as f32);
        {
            let plan = &self.plan;
            let (current, scratch) = self.particles.buffers_mut();
            scratch.resize(target_n);
            let source = current.as_slice();
            // The scatter covers the resampled prefix; injected slots (the
            // suffix) are filled below. The plan's worker ranges tile the
            // prefix exactly, so `for_each_range`'s coverage check still
            // guards the dispatch.
            let (kept_slots, _) = scratch.as_mut_slice().split_at_mut(kept);
            cluster.for_each_range(
                (kept_slots, plan.indices.as_slice()),
                &plan.worker_output_ranges,
                |_, (target, indices)| {
                    kernel::resample_scatter_with(backend, source, target, indices, uniform_weight);
                },
            );
        }
        if injected > 0 {
            // Recovery injection: uniform poses over the captured free space,
            // drawn from a salted per-slot RNG stream (independent of worker
            // count and of the motion kernel's streams).
            let jitter = self.free_space_jitter;
            let weight = 1.0 / target_n as f32;
            let cells = self.free_space.len() as u64;
            let (_, scratch) = self.particles.buffers_mut();
            for slot in kept..target_n {
                let mut rng = adaptive::injection_rng(seed, update_index, slot as u64);
                let (cx, cy) = self.free_space[(rng.next_u64() % cells) as usize];
                let pose = Pose2::new(
                    cx + rng.uniform_range(-jitter, jitter),
                    cy + rng.uniform_range(-jitter, jitter),
                    rng.uniform_range(0.0, core::f32::consts::TAU),
                );
                scratch.set(slot, Particle::from_pose(&pose, weight));
            }
            self.counters.particles_injected += injected as u64;
        }
        self.particles.swap_buffers();
        self.counters.updates_applied += 1;
        self.counters.resampled_particles += target_n as u64;

        // 4. Pose computation (fixed-block reduction kernel), excluding the
        // injected suffix and mode-refined in adaptive mode.
        self.published_estimate(kept)
    }
}

/// Stored weights read as `f32`: the array itself at fp32 storage, otherwise
/// widened with [`Scalar::widen`] into `scratch` (whose allocation is reused).
fn weights_as_f32<'a, S: Scalar>(stored: &'a [S], scratch: &'a mut Vec<f32>) -> &'a [f32] {
    match S::f32_slice(stored) {
        Some(direct) => direct,
        None => {
            scratch.clear();
            scratch.resize(stored.len(), 0.0);
            S::widen(stored, scratch);
            scratch
        }
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

    #[test]
    fn beam_and_batch_entry_points_agree_exactly() {
        // Partitioning the beam block is an execution detail: a batch the
        // caller partitioned for `r_max` and the same batch left
        // unpartitioned must produce the same particles.
        let map = arena();
        let cfg = config(256);
        let r_max = cfg.r_max;
        let mut partitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
        let mut unpartitioned = MonteCarloLocalization::<f32, _>::new(cfg, edt(&map)).unwrap();
        partitioned.initialize_uniform(&map, 7).unwrap();
        unpartitioned.initialize_uniform(&map, 7).unwrap();
        let rig = rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut truth = Pose2::new(1.0, 1.0, 0.0);
        for step in 0..5 {
            let next = truth.compose(&Pose2::new(0.12, 0.0, 0.05));
            let delta = MotionDelta::between(&truth, &next);
            truth = next;
            let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
            partitioned.predict(delta);
            unpartitioned.predict(delta);
            let mut batch = ObservationBatch::from_beams(&beams);
            batch.partition_in_range(r_max);
            let a = partitioned.update_observations(&batch).unwrap();
            let b = unpartitioned
                .update_observations(&ObservationBatch::from_beams(&beams))
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            partitioned.particles().current(),
            unpartitioned.particles().current()
        );
    }

    #[test]
    fn adaptive_results_do_not_depend_on_beam_partitioning() {
        // The Augmented-MCL monitor normalizes by the in-range beam count;
        // an unpartitioned batch must count beams at or past `r_max` (and
        // NaN beams) exactly as the partition does — not at all.
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
            let mut batch = ObservationBatch::from_beams(&beams);
            batch.partition_in_range(r_max);
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
