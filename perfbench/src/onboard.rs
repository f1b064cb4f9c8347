//! The on-board workloads: one filter per recorded flight, driven step by
//! step from the benchmark thread exactly as the drone's update loop drives
//! it (`predict`, flatten the frames, `update_observations`, publish).
//!
//! A run replays every flight of the seed once (pass 0: accuracy, filter
//! counters, pose digests), then keeps replaying them in order until the
//! run's time is up. Every later replay must publish the same bits as pass 0.
//! The traced run replays with the kernel tracer attached instead.

use crate::host;
use crate::report::Report;
use crate::stats::{
    fast_rate, median, mixed_seed, per_window, percentile, us_since, Digest, Summary, WINDOWS,
};
use crate::trace::{KernelTrace, Tracer};
use crate::{Args, Size};
use mcl_core::precision::ParticlePrecision;
use mcl_core::MonteCarloLocalization;
use mcl_core::{pool, AdaptiveConfig, FilterCounters, KernelBackend, MclConfig, MclError};
use mcl_gap9::{CostModel, McStep};
use mcl_gridmap::{DistanceField, EuclideanDistanceField, WorldKind};
use mcl_num::{Scalar, F16};
use mcl_sensor::model::gaussian;
use mcl_sensor::{AnchorRange, BeamBatch, ObservationBatch};
use mcl_sim::metrics::{ResultAggregator, SequenceResult, TrajectoryErrorTracker};
use mcl_sim::{run_sequence, PaperScenario, RunnerConfig, ScenarioSuite, Sequence};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Empty pool round trips timed for `pool.dispatch_us`.
const DISPATCH_REPS: usize = 2000;

/// Which on-board workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper maze, global init, 4096 fp32 particles, 1 worker, ToF only.
    PaperFp32,
    /// `warehouse-nlos-fused`: ToF + UWB, fp16 particles on the quantized
    /// map, KLD-adaptive 256–4096, 2 workers.
    FusedFp16Adaptive,
}

impl Kind {
    fn world(self) -> WorldKind {
        match self {
            Kind::PaperFp32 => WorldKind::PaperMaze,
            Kind::FusedFp16Adaptive => WorldKind::Warehouse,
        }
    }

    /// `(flights, seconds per flight)` replayed per pass.
    fn flights(self, size: Size) -> (usize, f32) {
        match (self, size) {
            (Kind::PaperFp32, Size::Tiny) => (6, 10.0),
            (Kind::FusedFp16Adaptive, Size::Tiny) => (4, 8.0),
            (Kind::PaperFp32, Size::Full) => (240, 15.0),
            (Kind::FusedFp16Adaptive, Size::Full) => (256, 10.0),
        }
    }

    fn precision(self) -> ParticlePrecision {
        match self {
            Kind::PaperFp32 => ParticlePrecision::Fp32,
            Kind::FusedFp16Adaptive => ParticlePrecision::Fp16,
        }
    }

    /// The filter configuration; every knob is explicit (nothing is read
    /// from the environment). The seed is set per flight.
    fn config(self, backend: KernelBackend) -> MclConfig {
        let base = MclConfig::default()
            .with_kernel_backend(backend)
            .with_adaptive(AdaptiveConfig::default());
        match self {
            Kind::PaperFp32 => base.with_particles(4096).with_workers(1),
            Kind::FusedFp16Adaptive => base
                .with_particles(2048)
                .with_workers(2)
                .with_adaptive(PaperScenario::adaptive_config(2048)),
        }
    }
}

/// One on-board workload with its generated inputs.
struct Onboard {
    kind: Kind,
    seed: u64,
    scenario: PaperScenario,
    runner: RunnerConfig,
    config: MclConfig,
}

impl Onboard {
    fn generate(kind: Kind, seed: u64, size: Size, backend: KernelBackend) -> Self {
        let (flights, seconds) = kind.flights(size);
        let scenario = match kind {
            Kind::PaperFp32 => PaperScenario::with_settings(seed, flights, seconds),
            Kind::FusedFp16Adaptive => {
                let mut spec = ScenarioSuite::quick()
                    .get("warehouse-nlos-fused")
                    .expect("the fused warehouse scenario is registered")
                    .clone();
                spec.num_sequences = flights;
                spec.duration_s = seconds;
                spec.build(seed)
            }
        };
        let runner = RunnerConfig::default().with_uwb(scenario.sensing(), *scenario.uwb_rig());
        Onboard {
            kind,
            seed,
            scenario,
            runner,
            config: kind.config(backend),
        }
    }

    /// The filter seed of flight `index`.
    fn flight_config(&self, index: usize) -> MclConfig {
        self.config.with_seed(mixed_seed(self.seed, index as u64))
    }

    fn new_filter<S: Scalar, D: DistanceField + Clone>(
        &self,
        field: &D,
        index: usize,
    ) -> Result<MonteCarloLocalization<S, D>, MclError> {
        let config = self.flight_config(index);
        let mut filter = MonteCarloLocalization::new(config, field.clone())?;
        filter.initialize_uniform(self.scenario.map(), config.seed)?;
        Ok(filter)
    }
}

/// One replayed flight.
struct Flight {
    result: SequenceResult,
    counters: FilterCounters,
    digest: Digest,
    steps: u64,
    failed: u64,
}

/// Untraced timings accumulated over replays.
#[derive(Default)]
struct Timings {
    update_us: Vec<f64>,
    step_ms: Vec<f64>,
    /// Predict-to-published-pose time of the steps whose update ran. A
    /// skipped step publishes in a tenth of that, so the all-step median
    /// would flip between the two modes with the applied share.
    applied_step_ms: Vec<f64>,
    replay_s: f64,
    steps: u64,
    flight_s: f64,
}

/// Builds the step's observation exactly as `mcl_sim::run_sequence` does:
/// flattened, partitioned ToF frames plus (fused sensing) one synthesized
/// range per anchor, NaN inside the NLOS window.
fn observe(
    runner: &RunnerConfig,
    r_max: f32,
    sequence: &Sequence,
    index: usize,
    uwb_rng: &mut rand::rngs::StdRng,
) -> ObservationBatch {
    let step = &sequence.steps[index];
    let mut observations = if runner.sensing.uses_tof() {
        let frame_limit = runner.sensor_count.min(step.frames.len());
        let mut batch = BeamBatch::from_frames(&step.frames[..frame_limit]);
        batch.partition_in_range(r_max);
        ObservationBatch::from_beam_batch(batch)
    } else {
        ObservationBatch::new()
    };
    if runner.sensing.uses_uwb() && !runner.uwb.is_empty() {
        let denied = runner
            .uwb
            .denied_at(index as f32 / sequence.steps.len().max(1) as f32);
        for &[ax, ay] in runner.uwb.anchor_positions() {
            let range = if denied {
                f32::NAN
            } else {
                let dx = step.ground_truth.x - ax;
                let dy = step.ground_truth.y - ay;
                (dx * dx + dy * dy).sqrt() + gaussian(uwb_rng, 0.0, runner.uwb.range_noise_std_m)
            };
            observations.push_anchor(AnchorRange::new(ax, ay, range));
        }
    }
    observations
}

/// Replays flight `index`, timing each applied update (and, with a tracer,
/// re-running its kernels).
fn replay<S: Scalar, D: DistanceField + Clone>(
    w: &Onboard,
    field: &D,
    index: usize,
    timings: &mut Timings,
    mut tracer: Option<&mut Tracer<S>>,
) -> Result<Flight, MclError> {
    let sequence = &w.scenario.sequences()[index];
    let mut filter = w.new_filter::<S, D>(field, index)?;
    let mut tracker =
        TrajectoryErrorTracker::with_timeline(w.runner.criterion, sequence.stress.clone());
    let mut uwb_rng = rand::rngs::StdRng::seed_from_u64(
        w.runner.uwb.seed ^ sequence.seed.rotate_left(17) ^ 0x05B5_EED0,
    );
    let mut digest = Digest::default();
    let mut failed = 0;
    let r_max = filter.config().r_max;
    let dt = f64::from(w.scenario.sequence_config().trajectory.dt());
    for (i, step) in sequence.steps.iter().enumerate() {
        let begin = Instant::now();
        filter.predict(step.odometry);
        let build = Instant::now();
        let observations = observe(&w.runner, r_max, sequence, i, &mut uwb_rng);
        let built_us = us_since(build);
        let pending = match tracer.as_ref() {
            Some(_) if filter.gate_open() => Some(Tracer::before(
                filter.particles().current(),
                filter.pending_motion(),
                filter.counters(),
            )),
            _ => None,
        };
        let start = Instant::now();
        let outcome = filter.update_observations(&observations);
        let update_us = us_since(start);
        let estimate = match &outcome {
            Ok(outcome) => outcome
                .estimate()
                .copied()
                .unwrap_or_else(|| filter.estimate()),
            Err(_) => filter.estimate(),
        };
        let step_ms = us_since(begin) / 1e3;
        let applied = matches!(&outcome, Ok(o) if o.is_applied());
        if outcome.is_err() {
            failed += 1;
        }
        let pose = estimate.pose;
        if !(pose.x.is_finite() && pose.y.is_finite() && pose.theta.is_finite()) {
            failed += 1;
        }
        for value in [pose.x, pose.y, pose.theta, estimate.neff] {
            digest.push(value);
        }
        tracker.record(step.timestamp_s, &estimate, &step.ground_truth);
        match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.trace.batch_build_us.push(built_us);
                if let Some(pending) = pending.filter(|_| applied) {
                    tracer.after(
                        pending,
                        filter.config(),
                        field,
                        &observations,
                        filter.particles().len(),
                        filter.counters(),
                        update_us,
                    );
                }
            }
            None => {
                if applied {
                    timings.update_us.push(update_us);
                    timings.applied_step_ms.push(step_ms);
                }
                timings.step_ms.push(step_ms);
                timings.replay_s += step_ms / 1e3;
                timings.steps += 1;
                timings.flight_s += dt;
            }
        }
    }
    let counters = filter.counters();
    let mut result = tracker.finish();
    result.mean_particles = if counters.updates_applied > 0 {
        counters.resampled_particles as f32 / counters.updates_applied as f32
    } else {
        filter.particles().len() as f32
    };
    Ok(Flight {
        result,
        counters,
        digest,
        steps: sequence.steps.len() as u64,
        failed,
    })
}

/// Times one set-up: world, distance field(s), and every flight's filter
/// constructed and initialized. Returns `(total, distance field)` seconds.
fn setup_once<S: Scalar, D: DistanceField + Clone>(
    w: &Onboard,
    derive: impl Fn(EuclideanDistanceField) -> D,
) -> (f64, f64) {
    let start = Instant::now();
    let world = w.kind.world().generate(w.seed);
    let edt = Instant::now();
    let field = derive(EuclideanDistanceField::compute(
        world.map(),
        w.scenario.r_max(),
    ));
    let edt_s = edt.elapsed().as_secs_f64();
    let filters: Vec<MonteCarloLocalization<S, D>> = (0..w.scenario.sequences().len())
        .map(|index| {
            let config = w.flight_config(index);
            let mut filter = MonteCarloLocalization::new(config, field.clone())
                .expect("the workload configuration is valid");
            filter
                .initialize_uniform(world.map(), config.seed)
                .expect("the world has free space");
            filter
        })
        .collect();
    black_box(&filters);
    (start.elapsed().as_secs_f64(), edt_s)
}

/// Runs an on-board workload and returns its report.
pub fn run(kind: Kind, args: &Args, backend: KernelBackend) -> Report {
    let start = Instant::now();
    let w = Onboard::generate(kind, args.seed, args.size, backend);
    let mut inputs = Digest::default();
    for step in w.scenario.sequences().iter().flat_map(|s| &s.steps) {
        let (truth, odometry) = (step.ground_truth, step.odometry);
        for value in [
            truth.x,
            truth.y,
            truth.theta,
            odometry.dx,
            odometry.dy,
            odometry.dtheta,
        ] {
            inputs.push(value);
        }
    }
    println!(
        "inputs: {} flights of {:.0} s generated in {:.2} s; input digest {:016x}",
        w.scenario.sequences().len(),
        w.scenario.sequence_config().trajectory.duration_s,
        start.elapsed().as_secs_f64(),
        inputs.value()
    );
    match kind {
        Kind::PaperFp32 => {
            let setups: Vec<(f64, f64)> = (0..SETUP_REPS)
                .map(|_| setup_once::<f32, _>(&w, |edt| edt))
                .collect();
            run_typed::<f32, _>(&w, w.scenario.edt_fp32(), args, &setups)
        }
        Kind::FusedFp16Adaptive => {
            let setups: Vec<(f64, f64)> = (0..SETUP_REPS)
                .map(|_| setup_once::<F16, _>(&w, |edt| edt.quantize()))
                .collect();
            run_typed::<F16, _>(&w, w.scenario.edt_quantized(), args, &setups)
        }
    }
}

fn run_typed<S: Scalar, D: DistanceField + Clone>(
    w: &Onboard,
    field: &D,
    args: &Args,
    setups: &[(f64, f64)],
) -> Report {
    let mut report = Report::new(args.trace);
    let flights = w.scenario.sequences().len();
    let started = Instant::now();

    // Pass 0: every flight once, untraced.
    let mut timings = Timings::default();
    let pool_before = pool::stats();
    let mut reference = Vec::with_capacity(flights);
    for index in 0..flights {
        match replay::<S, D>(w, field, index, &mut timings, None) {
            Ok(flight) => reference.push(flight),
            Err(err) => {
                report.check(false, || format!("flight {index} failed to start: {err}"));
                return report;
            }
        }
    }
    let pool_after = pool::stats();
    let untraced_p50 = median(&timings.update_us);

    // The benchmark's replay must be the library's: flight 0 through
    // `mcl_sim::run_sequence` scores identically.
    match w.new_filter::<S, D>(field, 0) {
        Ok(mut filter) => {
            let expected = run_sequence(&mut filter, &w.scenario.sequences()[0], &w.runner);
            report.check(expected == reference[0].result, || {
                format!(
                    "replay diverges from mcl_sim::run_sequence: {:?} vs {:?}",
                    reference[0].result, expected
                )
            });
        }
        Err(err) => report.check(false, || format!("reference filter failed: {err}")),
    }

    // Timed replays until the run's time is up; a traced run replays with
    // the tracer for at least a quarter of its time on top of pass 0.
    let mut tracer = args.trace.then(Tracer::<S>::default);
    let mut replays: Vec<&Flight> = reference.iter().collect();
    let mut repeats = Vec::new();
    let mut next = 0usize;
    let traced_from = Instant::now();
    let traced_for = if args.trace { args.seconds / 4.0 } else { 0.0 };
    while started.elapsed().as_secs_f64() < args.seconds
        || traced_from.elapsed().as_secs_f64() < traced_for
        || (args.trace && next == 0)
    {
        let index = next % flights;
        match replay::<S, D>(w, field, index, &mut timings, tracer.as_mut()) {
            Ok(flight) => repeats.push((index, flight)),
            Err(err) => report.check(false, || format!("flight {index} failed to start: {err}")),
        }
        next += 1;
    }
    for (index, flight) in &repeats {
        report.check(flight.digest == reference[*index].digest, || {
            format!("flight {index} published different poses when replayed again")
        });
    }
    replays.extend(repeats.iter().map(|(_, f)| f));

    // Output checks over every replay.
    let mut attempted = 0;
    let mut failed = 0;
    for flight in &replays {
        let c = flight.counters;
        report.check(
            c.updates_applied + c.updates_skipped == flight.steps,
            || {
                format!(
                    "applied {} + skipped {} != {} steps replayed",
                    c.updates_applied, c.updates_skipped, flight.steps
                )
            },
        );
        attempted += flight.steps;
        failed += flight.failed;
    }
    report.operations(attempted, failed);

    let (ate, success) = accuracy(reference.iter().map(|f| f.result));
    report.check(ate.is_some(), || "no flight converged".to_string());
    let counters = reference.iter().fold(FilterCounters::default(), |a, f| {
        add_counters(a, f.counters)
    });

    let update = Summary::of(&timings.update_us);
    let step = Summary::of(&timings.applied_step_ms);
    println!("{}", update.line("update_observations (applied)", "us"));
    println!(
        "{}",
        step.line("applied step (predict to published pose)", "ms")
    );
    println!(
        "replayed {} steps of {flights} flights ({:.1} s of flight) in {:.2} s",
        timings.steps, timings.flight_s, timings.replay_s
    );
    let poses = reference.iter().fold(Digest::default(), |mut d, f| {
        d.push_u64(f.digest.value());
        d
    });
    println!(
        "pass 0: applied {} skipped {} resampled_particles {} injected {} tempered {} resample_skipped {}; pose digest {:016x}",
        counters.updates_applied,
        counters.updates_skipped,
        counters.resampled_particles,
        counters.particles_injected,
        counters.updates_tempered,
        counters.resamples_skipped,
        poses.value()
    );

    if !args.trace {
        let poses_per_s = fast_rate(&per_window(&timings.step_ms, WINDOWS, |w| {
            w.len() as f64 * 1e3 / w.iter().sum::<f64>()
        }));
        let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
        report.set("setup_s", median(&setup_s));
        report.set("update_us_p50", update.p50);
        report.set("update_us_p99", update.p99);
        report.set(
            "realtime_factor",
            poses_per_s * timings.flight_s / timings.steps as f64,
        );
        report.set("ate_m", ate.unwrap_or(f64::NAN));
        report.set("success_rate", success);
        report.set("peak_rss_mib", host::peak_rss_mib());
        report.set("fleet_capacity_poses_per_s", poses_per_s);
        report.set("fleet_latency_ms_p50", step.p50);
        report.set("fleet_latency_ms_p99", step.p99);
        return report;
    }

    let tracer = tracer.expect("traced run");
    let trace = &tracer.trace;
    let executed = pool_after.total_executed() - pool_before.total_executed();
    let stolen = pool_after.total_stolen() - pool_before.total_stolen();
    let edt_ms: Vec<f64> = setups.iter().map(|s| s.1 * 1e3).collect();
    set_kernel_metrics(&mut report, trace, untraced_p50);
    report.set("gridmap.edt_build_ms", median(&edt_ms));
    set_filter_metrics(&mut report, counters);
    report.set("pool.dispatch_us", dispatch_us(w.config.workers));
    report.set(
        "pool.tasks_per_update",
        executed as f64 / counters.updates_applied.max(1) as f64,
    );
    report.set(
        "pool.stolen_frac",
        if executed > 0 {
            stolen as f64 / executed as f64
        } else {
            0.0
        },
    );
    for name in [
        "fleet.encode_us",
        "fleet.decode_us",
        "fleet.mean_batch",
        "fleet.max_batch",
        "fleet.serving_overhead",
        "fleet.enqueue_waits",
        "fleet.queue_depth_max",
        "fleet.poses_dropped",
        "fleet.server_latency_us_p50",
        "fleet.server_latency_us_p99",
        "loadgen.lag_ms_p99",
    ] {
        report.set(name, 0.0);
    }
    print_gap9_shares(w, trace, counters);
    report
}

/// Sets the kernel, serial, batch-build and closure metrics of a trace.
pub fn set_kernel_metrics(report: &mut Report, trace: &KernelTrace, untraced_update_p50: f64) {
    report.set("kernel.motion_us", median(&trace.motion_us));
    report.set("kernel.observation_us", median(&trace.observation_us));
    report.set("kernel.anchor_us", median(&trace.anchor_us));
    report.set("kernel.anchor_calls", trace.anchor_us.len() as f64);
    report.set("kernel.reweight_us", median(&trace.reweight_us));
    report.set("kernel.resample_us", median(&trace.resample_us));
    report.set("kernel.pose_us", median(&trace.pose_us));
    report.set("gridmap.lookup_ns", median(&trace.lookup_ns));
    report.set("filter.serial_us", median(&trace.serial_us));
    report.set("sensor.batch_build_us", median(&trace.batch_build_us));
    let traced = Summary::of(&trace.update_us);
    println!(
        "{}",
        traced.line("traced update_observations (applied)", "us")
    );
    report.check(!trace.update_us.is_empty(), || {
        "the traced run applied no update".into()
    });
    report.set(
        "trace.overhead_frac",
        traced.p50 / untraced_update_p50 - 1.0,
    );
    report.set(
        "trace.kernel_share",
        trace.kernel_sum_us() / untraced_update_p50,
    );
    println!(
        "serial time per update: p50 {:.3} us, p99 {:.3} us",
        median(&trace.serial_us),
        percentile(&trace.serial_us, 0.99)
    );
}

/// Median round trip of an empty dispatch over `workers` pool workers, µs.
pub fn dispatch_us(workers: usize) -> f64 {
    let pool = pool::shared();
    let samples: Vec<f64> = (0..DISPATCH_REPS)
        .map(|_| {
            let start = Instant::now();
            pool.dispatch_limited(workers, workers, &|i| {
                black_box(i);
            });
            us_since(start)
        })
        .collect();
    median(&samples)
}

/// Prints the GAP9 cost model's per-step shares next to the measured kernel
/// shares (Table I style). Reported, not gated.
fn print_gap9_shares(w: &Onboard, trace: &KernelTrace, counters: FilterCounters) {
    let updates = trace.update_us.len().max(1) as f64;
    let beams = (trace.beams as f64 / updates).round().max(1.0) as usize;
    let anchors = (trace.anchors as f64 / updates).round() as usize;
    let particles = (counters.resampled_particles as f64 / counters.updates_applied.max(1) as f64)
        .round() as usize;
    let lane_width = w.kind.precision().simd_lane_width();
    let model = CostModel::default().with_fused_observation(anchors);
    let modeled: Vec<f64> = McStep::ALL
        .iter()
        .map(|&step| {
            model.kernel_invocation_cycles_lanes(step, particles, lane_width, beams, false, false)
        })
        .collect();
    let measured = [
        median(&trace.observation_us) + median(&trace.anchor_us) + median(&trace.reweight_us),
        median(&trace.motion_us),
        median(&trace.resample_us),
        median(&trace.pose_us),
    ];
    let modeled_total: f64 = modeled.iter().sum();
    let measured_total: f64 = measured.iter().sum();
    println!(
        "GAP9 model vs measured kernel shares ({particles} particles, {beams} beams, {anchors} anchors, lane width {lane_width}):"
    );
    for (i, step) in McStep::ALL.iter().enumerate() {
        println!(
            "  {:<12} model {:5.1} %   measured {:5.1} %",
            step.name(),
            100.0 * modeled[i] / modeled_total,
            100.0 * measured[i] / measured_total.max(f64::MIN_POSITIVE)
        );
    }
}

/// The accuracy metrics over flights scored by `mcl_sim::metrics`: the
/// median per-flight ATE of the converged flights (robust to the few
/// flights that converge onto a wrong mode and lose track) and the success
/// rate as a fraction.
pub fn accuracy(results: impl Iterator<Item = SequenceResult>) -> (Option<f64>, f64) {
    let mut aggregate = ResultAggregator::new();
    for result in results {
        aggregate.push(result);
    }
    let ates: Vec<f64> = aggregate.results().iter().filter_map(|r| r.ate_m).collect();
    let ate = (!ates.is_empty()).then(|| median(&ates));
    (ate, aggregate.success_rate_percent() / 100.0)
}

/// Sets the `filter.*` metrics from the summed counters of untraced replays
/// (deterministic per seed).
pub fn set_filter_metrics(report: &mut Report, c: FilterCounters) {
    let applied = c.updates_applied.max(1) as f64;
    report.set(
        "filter.applied_frac",
        applied / (applied + c.updates_skipped as f64),
    );
    report.set(
        "filter.mean_particles",
        c.resampled_particles as f64 / applied,
    );
    report.set(
        "filter.resample_skip_frac",
        c.resamples_skipped as f64 / applied,
    );
    report.set("filter.tempered_frac", c.updates_tempered as f64 / applied);
    report.set(
        "filter.injected_per_update",
        c.particles_injected as f64 / applied,
    );
}

pub fn add_counters(a: FilterCounters, b: FilterCounters) -> FilterCounters {
    FilterCounters {
        updates_applied: a.updates_applied + b.updates_applied,
        updates_skipped: a.updates_skipped + b.updates_skipped,
        predictions: a.predictions + b.predictions,
        resampled_particles: a.resampled_particles + b.resampled_particles,
        particles_injected: a.particles_injected + b.particles_injected,
        resamples_skipped: a.resamples_skipped + b.resamples_skipped,
        updates_tempered: a.updates_tempered + b.updates_tempered,
    }
}
