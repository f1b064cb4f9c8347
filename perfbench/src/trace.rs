//! Per-layer timing from the benchmark's own side of the layer boundaries.
//!
//! The filter does not expose its stages, so the traced run snapshots the
//! particle set just before each applied update and, after the update
//! returned, re-runs every `mcl_core::kernel::*_with` kernel on that
//! snapshot with the update's own observation batch, motion increment,
//! precision, backend and `ClusterLayout` — the exact inputs the filter's
//! kernels saw. The filter's own state is never touched, so a traced replay
//! publishes the same bits as an untraced one (checked per sequence).
//! Whatever the update spent outside its kernels is `filter.serial_us`.

use crate::stats::{median, us_since};
use mcl_core::{
    kernel, AnchorRangeModel, BeamEndPointModel, ClusterLayout, FilterCounters, KernelBackend,
    MclConfig, MotionDelta, MotionModel, ParticleBuffer,
};
use mcl_gridmap::{DistanceField, DISTANCE_LANES};
use mcl_num::Scalar;
use mcl_sensor::ObservationBatch;
use std::hint::black_box;
use std::time::Instant;

/// Most particle positions one update's lookup probe reads.
const LOOKUP_PROBE: usize = 1024;

/// What the filter is about to do on the next applied update.
pub struct Pending<S: Scalar> {
    snapshot: ParticleBuffer<S>,
    delta: MotionDelta,
    update_index: u64,
    counters: FilterCounters,
}

/// Kernel timings collected over a traced replay, one sample per applied
/// update (resampling only on updates that resampled).
#[derive(Default)]
pub struct KernelTrace {
    pub motion_us: Vec<f64>,
    pub observation_us: Vec<f64>,
    pub anchor_us: Vec<f64>,
    pub reweight_us: Vec<f64>,
    pub resample_us: Vec<f64>,
    pub pose_us: Vec<f64>,
    pub lookup_ns: Vec<f64>,
    pub serial_us: Vec<f64>,
    pub batch_build_us: Vec<f64>,
    pub update_us: Vec<f64>,
    /// In-range beams and usable anchors summed over applied updates (the
    /// inputs of the GAP9 cost model).
    pub beams: u64,
    pub anchors: u64,
}

/// Reusable buffers of the kernel re-runs.
pub struct Tracer<S: Scalar> {
    pub trace: KernelTrace,
    target: ParticleBuffer<S>,
    logs: Vec<f32>,
    weights: Vec<f32>,
    /// Resampling indices and per-worker output ranges.
    plan: (Vec<usize>, Vec<(usize, usize)>),
}

impl<S: Scalar> Default for Tracer<S> {
    fn default() -> Self {
        Tracer {
            trace: KernelTrace::default(),
            target: ParticleBuffer::default(),
            logs: Vec::new(),
            weights: Vec::new(),
            plan: (Vec::new(), Vec::new()),
        }
    }
}

impl<S: Scalar> Tracer<S> {
    /// Captures the inputs of the update about to be applied.
    pub fn before(
        particles: &ParticleBuffer<S>,
        pending: MotionDelta,
        counters: FilterCounters,
    ) -> Pending<S> {
        Pending {
            snapshot: particles.clone(),
            delta: pending,
            update_index: counters.updates_applied + 1,
            counters,
        }
    }

    /// Times every kernel on the captured inputs of an applied update that
    /// took `update_us`; `after` are the filter's counters once it returned.
    #[allow(clippy::too_many_arguments)]
    pub fn after<D: DistanceField + ?Sized>(
        &mut self,
        mut pending: Pending<S>,
        config: &MclConfig,
        field: &D,
        observations: &ObservationBatch,
        population: usize,
        after: FilterCounters,
        update_us: f64,
    ) {
        let cluster = ClusterLayout::new(config.workers);
        let backend = config.kernel_backend;
        let n = pending.snapshot.len();
        let trace = &mut self.trace;

        trace
            .lookup_ns
            .push(lookup_ns(&pending.snapshot, field, backend));

        let motion = MotionModel::new(config.sigma_odom);
        let start = Instant::now();
        cluster.for_each_split(pending.snapshot.as_mut_slice(), |first, chunk| {
            kernel::motion_predict_with(
                backend,
                chunk,
                &motion,
                &pending.delta,
                config.seed,
                pending.update_index,
                first as u64,
            );
        });
        let motion_us = us_since(start);

        let model = BeamEndPointModel::new(config.sigma_obs, config.r_max);
        self.logs.clear();
        self.logs.resize(n, 0.0);
        let start = Instant::now();
        cluster.for_each_split(
            (pending.snapshot.as_slice(), self.logs.as_mut_slice()),
            |_, (chunk, out)| {
                kernel::observation_log_likelihoods_with(
                    backend,
                    chunk,
                    field,
                    &model,
                    observations.beams(),
                    out,
                );
            },
        );
        let observation_us = us_since(start);

        // The filter runs the anchor kernel only for batches that carry
        // anchors; so does the trace.
        let mut anchor_us = 0.0;
        if observations.has_anchors() {
            let anchor_model = AnchorRangeModel::new(config.sigma_uwb);
            let start = Instant::now();
            cluster.for_each_split(
                (pending.snapshot.as_slice(), self.logs.as_mut_slice()),
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
            anchor_us = us_since(start);
            trace.anchor_us.push(anchor_us);
        }

        let max_log = self.logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let start = Instant::now();
        cluster.for_each_split(
            (pending.snapshot.weight_mut(), self.logs.as_slice()),
            |_, (weights, logs)| kernel::reweight_with(backend, weights, logs, max_log),
        );
        let reweight_us = us_since(start);

        // Resampling: timed only when the filter itself resampled (the
        // adaptive ESS gate skips it), to the population it resampled to.
        let mut resample_us = 0.0;
        let resampled = after.resamples_skipped == pending.counters.resamples_skipped;
        if resampled {
            self.weights.clear();
            self.weights
                .extend(pending.snapshot.weight().iter().map(|w| w.to_f32()));
            systematic_plan(&self.weights, population, config.workers, &mut self.plan);
            self.target.resize(population);
            let uniform = S::from_f32(1.0 / population as f32);
            let source = pending.snapshot.as_slice();
            let start = Instant::now();
            cluster.for_each_range(
                (self.target.as_mut_slice(), self.plan.0.as_slice()),
                &self.plan.1,
                |_, (target, indices)| {
                    kernel::resample_scatter_with(backend, source, target, indices, uniform);
                },
            );
            resample_us = us_since(start);
            trace.resample_us.push(resample_us);
        }

        let published = if resampled {
            &self.target
        } else {
            &pending.snapshot
        };
        let start = Instant::now();
        black_box(kernel::pose_estimate_prefix_with(
            published,
            published.len(),
            &cluster,
            backend,
        ));
        let pose_us = us_since(start);

        trace.motion_us.push(motion_us);
        trace.observation_us.push(observation_us);
        trace.reweight_us.push(reweight_us);
        trace.pose_us.push(pose_us);
        trace.update_us.push(update_us);
        trace.serial_us.push(
            update_us
                - (motion_us + observation_us + anchor_us + reweight_us + resample_us + pose_us),
        );
        trace.beams += observations
            .beams()
            .in_range_prefix(config.r_max)
            .unwrap_or_else(|| observations.beams().len()) as u64;
        trace.anchors += observations.usable_anchor_count() as u64;
    }
}

impl KernelTrace {
    /// Sum of the kernel medians: what the kernels explain of one update.
    pub fn kernel_sum_us(&self) -> f64 {
        median(&self.motion_us)
            + median(&self.observation_us)
            + median(&self.anchor_us)
            + median(&self.reweight_us)
            + median(&self.resample_us)
            + median(&self.pose_us)
    }
}

/// A systematic-resampling plan of `n_out` draws over `weights`, its output
/// split evenly over `workers`: the same gather shape the filter's plan
/// hands the scatter kernel (non-decreasing indices, contiguous ranges).
fn systematic_plan(
    weights: &[f32],
    n_out: usize,
    workers: usize,
    plan: &mut (Vec<usize>, Vec<(usize, usize)>),
) {
    let (indices, ranges) = plan;
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    let step = if total > 0.0 {
        total / n_out as f64
    } else {
        0.0
    };
    indices.clear();
    let (mut source, mut cumulative) = (0usize, f64::from(weights[0].max(0.0)));
    for slot in 0..n_out {
        let arrow = (slot as f64 + 0.5) * step;
        while arrow > cumulative && source + 1 < weights.len() {
            source += 1;
            cumulative += f64::from(weights[source].max(0.0));
        }
        indices.push(if total > 0.0 {
            source
        } else {
            slot % weights.len()
        });
    }
    ranges.clear();
    let chunk = n_out.div_ceil(workers.max(1));
    ranges.extend(
        (0..n_out)
            .step_by(chunk.max(1))
            .map(|s| (s, (s + chunk).min(n_out))),
    );
}

/// Mean nanoseconds per distance-field lookup at the particle positions,
/// through the lane-batched lookup the observation kernel of `backend` uses.
fn lookup_ns<S: Scalar, D: DistanceField + ?Sized>(
    particles: &ParticleBuffer<S>,
    field: &D,
    backend: KernelBackend,
) -> f64 {
    let groups = particles.len().min(LOOKUP_PROBE) / DISTANCE_LANES;
    let mut xs = vec![[0.0f32; DISTANCE_LANES]; groups];
    let mut ys = vec![[0.0f32; DISTANCE_LANES]; groups];
    for g in 0..groups {
        for l in 0..DISTANCE_LANES {
            xs[g][l] = particles.x()[g * DISTANCE_LANES + l].to_f32();
            ys[g][l] = particles.y()[g * DISTANCE_LANES + l].to_f32();
        }
    }
    let mut out = [0.0f32; DISTANCE_LANES];
    let start = Instant::now();
    for g in 0..groups {
        lanes_lookup(field, backend, &xs[g], &ys[g], &mut out);
        black_box(&out);
    }
    us_since(start) * 1e3 / (groups * DISTANCE_LANES).max(1) as f64
}

fn lanes_lookup<D: DistanceField + ?Sized>(
    field: &D,
    backend: KernelBackend,
    xs: &[f32; DISTANCE_LANES],
    ys: &[f32; DISTANCE_LANES],
    out: &mut [f32; DISTANCE_LANES],
) {
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2 {
        field.distances_at_world_lanes_avx2(xs, ys, out);
        return;
    }
    let _ = backend;
    field.distances_at_world_lanes(xs, ys, out);
}
