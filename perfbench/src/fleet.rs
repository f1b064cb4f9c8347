//! The fleet workload: a `FleetServer` on loopback TCP inside the benchmark
//! process, fed over one connection by one load thread (a second thread only
//! reads the pose stream), 1 shard, 128 fp32 particles per drone, replaying
//! paper-maze traffic templates (one per capacity-phase drone, shared by
//! the latency phase's drones).
//!
//! * **capacity** — closed loop: every drone's frames pushed step-major as
//!   fast as TCP backpressure allows; fixed work in ten timed rounds,
//!   reported as the upper quartile of the round rates.
//! * **latency** — open loop on a fresh server: each drone sends at 15 Hz on
//!   a fixed staggered schedule; each pose's latency is timed from its
//!   frame's due time, so a stalled generator is charged too.
//!
//! A sample of drones is then replayed through independent filters sharing
//! the world: their pose streams must be bit-identical to the served ones,
//! and their update times are the workload's `update_us_*`.

use crate::host;
use crate::onboard::{accuracy, add_counters, dispatch_us, set_filter_metrics, set_kernel_metrics};
use crate::report::Report;
use crate::stats::{fast_rate, median, mixed_seed, percentile, us_since, Digest, Summary};
use crate::trace::Tracer;
use crate::{Args, Size};
use mcl_core::{
    pool, AdaptiveConfig, FilterCounters, KernelBackend, MclConfig, MonteCarloLocalization,
    PoseEstimate,
};
use mcl_fleet::protocol::{
    decode_request, decode_response, encode_request, read_frame, PoseUpdate, Request, Response,
};
use mcl_fleet::{DroneConfig, Fleet, FleetConfig, FleetServer, FleetStats, FleetWorld};
use mcl_gridmap::{DroneMaze, EuclideanDistanceField, Pose2};
use mcl_sensor::{BeamBatch, ObservationBatch};
use mcl_sim::{
    sequence_traffic, ConvergenceCriterion, RunnerConfig, SequenceConfig, SequenceGenerator,
    TrafficStep, TrajectoryConfig, TrajectoryErrorTracker,
};
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the traffic-template pool. The pool is the same in every run:
/// the run's seed draws the drones' filter seeds and which template each
/// drone flies. Whether a 128-particle filter localizes globally depends
/// strongly on its flight, so a fixed pool keeps `success_rate` comparable
/// across seeds (it varies only with filter noise).
const POOL_SEED: u64 = 0x5EED_F1EE;

/// Particles per hosted drone.
const PARTICLES: usize = 128;

/// Sensor rate every drone sends at in the latency phase.
const RATE_HZ: f64 = 15.0;

/// Share of `--seconds` the open-loop latency phase runs for.
const LATENCY_SHARE: f64 = 0.55;

/// Windows of the latency series (about 4000 poses each): the open-loop
/// tail is the metric most exposed to scheduling bursts, so it is cut
/// finer than the other series.
const LATENCY_WINDOWS: usize = 40;

/// How long the pose reader waits for the next response before it gives up
/// on the missing ones.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Timed rounds of the capacity phase.
const CAPACITY_ROUNDS: usize = 10;

/// Frames per timed batch of the codec probe.
const CODEC_BATCH: usize = 64;

/// Workload dimensions.
struct Shape {
    template_steps: usize,
    /// Also the template pool size: each capacity drone flies its own.
    capacity_drones: usize,
    /// At 15 Hz each, 1024 drones offer a fifth to a sixth of the capacity
    /// of a 2-vCPU x86-64 AVX2 host. At half its capacity that host's p99
    /// swung between 0.5 and 4 ms from run to run; this load keeps the
    /// latency phase a measurement of the serving path, not of the
    /// scheduler.
    latency_drones: usize,
    reference_drones: usize,
    setup_reps: usize,
}

impl Shape {
    fn of(size: Size) -> Shape {
        match size {
            Size::Full => Shape {
                template_steps: 300,
                capacity_drones: 1024,
                latency_drones: 1024,
                reference_drones: 128,
                setup_reps: 9,
            },
            Size::Tiny => Shape {
                template_steps: 150,
                capacity_drones: 32,
                latency_drones: 32,
                reference_drones: 4,
                setup_reps: 1,
            },
        }
    }
}

/// One shared traffic template: the wire frames and the ground truth.
struct Template {
    traffic: Vec<TrafficStep>,
    truth: Vec<(f64, Pose2)>,
}

/// Generates the template pool on every core (ray casting dominates), each
/// template a pure function of its id.
fn template_pool(shape: &Shape) -> Vec<Template> {
    let maze = DroneMaze::paper_layout(POOL_SEED);
    let config = SequenceConfig {
        trajectory: TrajectoryConfig {
            duration_s: shape.template_steps as f32 / RATE_HZ as f32 + 1.0,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        },
        ..SequenceConfig::default()
    };
    let generator = SequenceGenerator::new(config);
    let template = |id: usize| {
        let sequence = generator.generate(maze.map(), id, POOL_SEED.wrapping_add(id as u64 * 101));
        let mut traffic = sequence_traffic(&sequence, &RunnerConfig::default());
        traffic.truncate(shape.template_steps);
        let truth = sequence.steps[..traffic.len()]
            .iter()
            .map(|s| (s.timestamp_s, s.ground_truth))
            .collect();
        Template { traffic, truth }
    };
    let threads = pool::host_parallelism().clamp(1, shape.capacity_drones);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let template = &template;
                scope.spawn(move || {
                    (t..shape.capacity_drones)
                        .step_by(threads)
                        .map(|id| (id, template(id)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Template)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("template generation panicked"))
            .collect();
        all.sort_by_key(|(id, _)| *id);
        all.into_iter().map(|(_, t)| t).collect()
    })
}

/// Which pool template each drone flies: a permutation of the pool drawn
/// from the run's seed (Fisher–Yates).
fn assignment(seed: u64, pool: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, (mixed_seed(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

/// Explicit fleet sizing (never the `MCL_FLEET_*` environment).
fn fleet_config(backend: KernelBackend) -> FleetConfig {
    FleetConfig {
        shards: 1,
        queue_capacity: 1024,
        outbox_capacity: 4096,
        dispatch_workers: pool::shared().workers(),
        max_drones: 16384,
        base: MclConfig::default()
            .with_kernel_backend(backend)
            .with_adaptive(AdaptiveConfig::default()),
    }
}

fn drone_config(seed: u64, drone: u64, backend: KernelBackend) -> DroneConfig {
    DroneConfig {
        particles: PARTICLES,
        seed: mixed_seed(seed, drone),
        backend: Some(backend),
        adaptive: false,
    }
}

fn frame(drone: u64, step: &TrafficStep) -> Request {
    Request::Frame {
        drone_id: drone,
        delta: step.delta,
        beams: step.beams.clone(),
        ranges: Vec::new(),
    }
}

/// The sending half of the benchmark's connection.
struct Sender {
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
}

impl Sender {
    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.scratch.clear();
        encode_request(request, &mut self.scratch);
        self.writer.write_all(&self.scratch)
    }
}

/// The receiving half.
struct Receiver {
    reader: BufReader<TcpStream>,
    payload: Vec<u8>,
}

impl Receiver {
    fn recv(&mut self) -> io::Result<Option<Response>> {
        if !read_frame(&mut self.reader, &mut self.payload)? {
            return Ok(None);
        }
        decode_response(&self.payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A fleet, its TCP front-end and the benchmark's registered connection.
struct Served {
    fleet: Arc<Fleet>,
    server: FleetServer,
    sender: Sender,
    receiver: Receiver,
}

impl Served {
    /// Starts a fleet and its server, connects, and registers `drones`
    /// drones (waiting for every ack).
    fn start(
        world: &FleetWorld,
        backend: KernelBackend,
        seed: u64,
        drones: usize,
    ) -> io::Result<Served> {
        let fleet = Fleet::start(world.clone(), fleet_config(backend));
        let server = FleetServer::serve(Arc::clone(&fleet), "127.0.0.1:0")?;
        let (sender, stream) = connect(server.local_addr())?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut served = Served {
            fleet,
            server,
            sender,
            receiver: Receiver {
                reader: BufReader::new(stream),
                payload: Vec::new(),
            },
        };
        for drone in 0..drones as u64 {
            let config = drone_config(seed, drone, backend);
            served.sender.send(&Request::Register {
                drone_id: drone,
                particles: config.particles as u32,
                seed: config.seed,
                backend: config.backend,
                adaptive: config.adaptive,
            })?;
        }
        served.sender.writer.flush()?;
        for _ in 0..drones {
            match served.receiver.recv()? {
                Some(Response::Registered { .. }) => {}
                other => {
                    return Err(io::Error::other(format!(
                        "registration answered with {other:?}"
                    )))
                }
            }
        }
        Ok(served)
    }

    /// Closes the connection and stops every server and shard thread.
    fn stop(self) -> FleetStats {
        let Served {
            fleet,
            mut server,
            sender,
            receiver,
        } = self;
        let stats = fleet.stats();
        drop(sender);
        drop(receiver);
        server.shutdown();
        fleet.shutdown();
        stats
    }
}

fn connect(addr: SocketAddr) -> io::Result<(Sender, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok((
        Sender {
            writer: BufWriter::with_capacity(1 << 16, stream),
            scratch: Vec::new(),
        },
        reader,
    ))
}

/// What the pose reader saw in one phase.
#[derive(Default)]
struct Received {
    poses: Vec<(PoseUpdate, Instant)>,
    errors: u64,
}

/// Reads responses until `expected` poses arrived, the stream ended or the
/// read timed out, publishing the pose count in `progress`.
fn receive(receiver: &mut Receiver, expected: usize, progress: &AtomicUsize) -> Received {
    let mut received = Received::default();
    while received.poses.len() < expected {
        match receiver.recv() {
            Ok(Some(Response::Pose(pose))) => {
                received.poses.push((pose, Instant::now()));
                // A statistic for the sender's pacing; publishes no data.
                progress.store(received.poses.len(), Ordering::Relaxed);
            }
            Ok(Some(_)) => received.errors += 1,
            Ok(None) | Err(_) => break,
        }
    }
    received
}

/// Runs `send` on this thread while a second thread reads the pose stream.
/// `send` also gets the count of poses received so far.
fn phase(
    served: &mut Served,
    expected: usize,
    send: impl FnOnce(&mut Sender, &AtomicUsize) -> io::Result<()>,
) -> (io::Result<()>, Received) {
    let Served {
        sender, receiver, ..
    } = served;
    let progress = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let progress = &progress;
        let reader = scope.spawn(move || receive(receiver, expected, progress));
        let sent = send(sender, progress).and_then(|()| sender.writer.flush());
        (sent, reader.join().expect("pose reader panicked"))
    })
}

/// Checks every pose and returns how many failed (missing, non-finite or
/// refused).
fn failures(
    report: &mut Report,
    phase: &str,
    sent: usize,
    received: &Received,
    stats: &FleetStats,
) -> u64 {
    let nonfinite = received
        .poses
        .iter()
        .filter(|(p, _)| !(p.x.is_finite() && p.y.is_finite() && p.theta.is_finite()))
        .count() as u64;
    let missing = sent.saturating_sub(received.poses.len()) as u64;
    report.check(stats.updates == sent as u64, || {
        format!(
            "{phase}: the fleet applied {} updates for {sent} frames sent",
            stats.updates
        )
    });
    report.check(nonfinite == 0, || {
        format!("{phase}: {nonfinite} non-finite poses")
    });
    report.check(missing == 0, || format!("{phase}: {missing} poses missing"));
    report.check(received.errors == 0, || {
        format!("{phase}: {} error responses", received.errors)
    });
    let failed = nonfinite + missing + received.errors + stats.poses_dropped;
    println!(
        "{phase}: {sent} frames sent, {} succeeded, {failed} failed",
        (sent as u64).saturating_sub(failed)
    );
    failed
}

/// One independent-filter replay of a served drone's traffic.
struct Reference {
    counters: FilterCounters,
    steps: usize,
    update_us: Vec<f64>,
    replay_s: f64,
}

/// Replays `drone`'s capacity-phase traffic through an independent filter
/// sharing the world and compares every pose bit with the served stream.
#[allow(clippy::too_many_arguments)]
fn replay_reference(
    report: &mut Report,
    fleet_config: &MclConfig,
    world: &FleetWorld,
    traffic: &[TrafficStep],
    served: &[PoseUpdate],
    drone: u64,
    mut tracer: Option<&mut Tracer<f32>>,
) -> Reference {
    let config = *fleet_config;
    let mut filter = MonteCarloLocalization::<f32, Arc<EuclideanDistanceField>>::new(
        config,
        Arc::clone(world.field()),
    )
    .expect("the fleet's filter configuration is valid");
    filter
        .initialize_uniform(world.map(), config.seed)
        .expect("the maze has free space");
    let mut reference = Reference {
        counters: FilterCounters::default(),
        steps: traffic.len(),
        update_us: Vec::new(),
        replay_s: 0.0,
    };
    let mut identical = served.len() == traffic.len();
    for (step, pose) in traffic.iter().zip(served) {
        let begin = Instant::now();
        filter.predict(step.delta);
        let build = Instant::now();
        let mut batch = BeamBatch::from_beams(&step.beams);
        batch.partition_in_range(filter.config().r_max);
        let observations = ObservationBatch::from_beam_batch(batch);
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
        let outcome = filter
            .update_observations(&observations)
            .expect("the filter is initialized");
        let update_us = us_since(start);
        let estimate = outcome
            .estimate()
            .copied()
            .unwrap_or_else(|| filter.estimate());
        reference.replay_s += begin.elapsed().as_secs_f64();
        identical &= same_pose(pose, outcome.is_applied(), &estimate);
        match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.trace.batch_build_us.push(built_us);
                if let Some(pending) = pending.filter(|_| outcome.is_applied()) {
                    tracer.after(
                        pending,
                        filter.config(),
                        filter.distance_field(),
                        &observations,
                        filter.particles().len(),
                        filter.counters(),
                        update_us,
                    );
                }
            }
            None if outcome.is_applied() => reference.update_us.push(update_us),
            None => {}
        }
    }
    report.check(identical, || {
        format!("drone {drone}: served poses differ from an independent filter's")
    });
    reference.counters = filter.counters();
    reference
}

fn same_pose(served: &PoseUpdate, applied: bool, estimate: &PoseEstimate) -> bool {
    served.applied == applied
        && served.x.to_bits() == estimate.pose.x.to_bits()
        && served.y.to_bits() == estimate.pose.y.to_bits()
        && served.theta.to_bits() == estimate.pose.theta.to_bits()
        && served.position_std_m.to_bits() == estimate.position_std_m.to_bits()
        && served.yaw_std_rad.to_bits() == estimate.yaw_std_rad.to_bits()
        && served.neff.to_bits() == estimate.neff.to_bits()
}

/// Mean µs per frame of the protocol codec over the workload's own frames.
fn codec_us(templates: &[Template]) -> (f64, f64) {
    let frames: Vec<Request> = templates
        .iter()
        .flat_map(|t| t.traffic.iter())
        .take(CODEC_BATCH * 32)
        .enumerate()
        .map(|(i, step)| frame(i as u64, step))
        .collect();
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); frames.len()];
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for (requests, buffers) in frames
        .chunks(CODEC_BATCH)
        .zip(encoded.chunks_mut(CODEC_BATCH))
    {
        let start = Instant::now();
        for (request, buffer) in requests.iter().zip(buffers.iter_mut()) {
            buffer.clear();
            encode_request(request, buffer);
        }
        encode.push(us_since(start) / requests.len() as f64);
        let start = Instant::now();
        for buffer in buffers.iter() {
            black_box(decode_request(&buffer[4..]).expect("an encoded frame decodes"));
        }
        decode.push(us_since(start) / buffers.len() as f64);
    }
    (median(&encode), median(&decode))
}

/// Runs the fleet workload and returns its report.
pub fn run(args: &Args, backend: KernelBackend) -> Report {
    let mut report = Report::new(args.trace);
    match run_inner(&mut report, args, backend) {
        Ok(()) => report,
        Err(err) => {
            report.check(false, || format!("fleet I/O failed: {err}"));
            report
        }
    }
}

fn run_inner(report: &mut Report, args: &Args, backend: KernelBackend) -> io::Result<()> {
    let shape = Shape::of(args.size);
    let pool = template_pool(&shape);
    let order = assignment(args.seed, pool.len());
    let template_of = |drone: usize| &pool[order[drone % pool.len()]];
    let steps = pool[0].traffic.len();
    let mut inputs = Digest::default();
    for drone in 0..shape.capacity_drones.max(shape.latency_drones) as u64 {
        inputs.push_u64(order[drone as usize % pool.len()] as u64);
        inputs.push_u64(drone_config(args.seed, drone, backend).seed);
    }
    println!(
        "inputs: {} templates of {steps} steps, {} + {} drones; input digest {:016x}",
        pool.len(),
        shape.capacity_drones,
        shape.latency_drones,
        inputs.value()
    );
    let map = Arc::new(DroneMaze::paper_layout(POOL_SEED).into_map());

    // Set-up: distance field, fleet and server start, connection, and every
    // capacity-phase drone registered. The last one serves the phase.
    let mut setup_s = Vec::new();
    let mut edt_ms = Vec::new();
    let mut kept = None;
    for rep in 0..shape.setup_reps {
        let start = Instant::now();
        let field = EuclideanDistanceField::compute(&map, 1.5);
        edt_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let world = FleetWorld::from_parts(Arc::clone(&map), Arc::new(field));
        let served = Served::start(&world, backend, args.seed, shape.capacity_drones)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 == shape.setup_reps {
            kept = Some((world, served));
        } else {
            served.stop();
        }
    }
    let (world, mut served) = kept.expect("at least one set-up");
    let filter_config = |drone: u64| {
        served
            .fleet
            .filter_config(&drone_config(args.seed, drone, backend))
    };
    let configs: Vec<MclConfig> = (0..shape.capacity_drones as u64)
        .map(filter_config)
        .collect();

    // Capacity: closed loop, step-major, fixed work in `CAPACITY_ROUNDS`
    // rounds of equal step ranges. Within a round frames go out as fast as
    // TCP backpressure allows; the next round starts once the last pose of
    // this one arrived. Capacity is the upper quartile of the round rates.
    let frames = shape.capacity_drones * steps;
    let round_steps = steps.div_ceil(CAPACITY_ROUNDS);
    let mut round_starts = Vec::new();
    let pool_before = pool::stats();
    let started = Instant::now();
    let (sent, capacity_rx) = phase(&mut served, frames, |sender, progress| {
        for step in 0..steps {
            if step % round_steps == 0 {
                let done = step * shape.capacity_drones;
                let waiting = Instant::now();
                while progress.load(Ordering::Relaxed) < done {
                    if waiting.elapsed() > READ_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "the previous round's poses did not arrive",
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                round_starts.push((done, Instant::now()));
            }
            for drone in 0..shape.capacity_drones {
                let template = template_of(drone);
                sender.send(&frame(drone as u64, &template.traffic[step]))?;
            }
            if (step + 1) % round_steps == 0 {
                sender.writer.flush()?;
            }
        }
        Ok(())
    });
    sent?;
    let elapsed = capacity_rx
        .poses
        .last()
        .map_or(0.0, |(_, at)| (*at - started).as_secs_f64());
    let round_rates: Vec<f64> = round_starts
        .iter()
        .enumerate()
        .filter_map(|(i, &(first, start))| {
            let end = round_starts.get(i + 1).map_or(frames, |r| r.0);
            let (_, last) = capacity_rx.poses.get(end.checked_sub(1)?)?;
            Some((end - first) as f64 / (*last - start).as_secs_f64().max(1e-9))
        })
        .collect();
    let capacity = fast_rate(&round_rates);
    let pool_after = pool::stats();
    let capacity_stats = served.stop();
    let mut failed = failures(report, "capacity", frames, &capacity_rx, &capacity_stats);

    // The served streams, per drone in update order.
    let mut streams: Vec<Vec<PoseUpdate>> = vec![Vec::new(); shape.capacity_drones];
    for (pose, _) in &capacity_rx.poses {
        if let Some(stream) = streams.get_mut(pose.drone_id as usize) {
            stream.push(*pose);
        }
    }
    let mut served_digest = Digest::default();
    for stream in &mut streams {
        stream.sort_by_key(|p| p.update);
        for pose in stream.iter() {
            for value in [pose.x, pose.y, pose.theta, pose.neff] {
                served_digest.push(value);
            }
        }
    }

    // Accuracy of every capacity-phase stream (deterministic per seed).
    let mut results = Vec::with_capacity(streams.len());
    for (drone, stream) in streams.iter().enumerate() {
        let template = template_of(drone);
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        for (pose, &(t, truth)) in stream.iter().zip(&template.truth) {
            let estimate = PoseEstimate {
                pose: Pose2::new(pose.x, pose.y, pose.theta),
                position_std_m: pose.position_std_m,
                yaw_std_rad: pose.yaw_std_rad,
                neff: pose.neff,
            };
            tracker.record(t, &estimate, &truth);
        }
        results.push(tracker.finish());
    }
    let (ate, success) = accuracy(results.into_iter());
    report.check(ate.is_some(), || "no served drone converged".to_string());

    // Latency: open loop at 15 Hz per drone on a fresh server.
    let drones = shape.latency_drones;
    let per_drone = ((args.seconds * LATENCY_SHARE * RATE_HZ) as usize).max(2);
    let total = drones * per_drone;
    let mut served = Served::start(&world, backend, args.seed, drones)?;
    let period = Duration::from_secs_f64(1.0 / RATE_HZ);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |drone: usize, step: usize| {
        start + period * step as u32 + period.mul_f64(drone as f64 / drones as f64)
    };
    let mut lag_ms = Vec::with_capacity(total);
    let (sent, latency_rx) = phase(&mut served, total, |sender, _| {
        let mut next = 0usize;
        while next < total {
            let mut flushed = true;
            while next < total {
                let (step, drone) = (next / drones, next % drones);
                let due_at = due(drone, step);
                let now = Instant::now();
                if due_at > now {
                    break;
                }
                let template = template_of(drone);
                sender.send(&frame(drone as u64, &template.traffic[step % steps]))?;
                lag_ms.push((now - due_at).as_secs_f64() * 1e3);
                next += 1;
                flushed = false;
            }
            if !flushed {
                sender.writer.flush()?;
            }
            if next < total {
                let wait =
                    due(next % drones, next / drones).saturating_duration_since(Instant::now());
                // Sleeping (never spinning) leaves both cores to the
                // server; the timer slack batches nearby due times, and
                // the lateness it adds is charged to latency and lag.
                std::thread::sleep(wait);
            }
        }
        Ok(())
    });
    sent?;
    let latency_ms: Vec<f64> = latency_rx
        .poses
        .iter()
        .map(|(pose, at)| {
            let due_at = due(
                pose.drone_id as usize,
                pose.update.saturating_sub(1) as usize,
            );
            at.saturating_duration_since(due_at).as_secs_f64() * 1e3
        })
        .collect();
    let latency_stats = served.stop();
    failed += failures(report, "latency", total, &latency_rx, &latency_stats);
    report.operations((frames + total) as u64, failed);

    // Independent-filter replays of a sample of drones.
    let sample: Vec<u64> = (0..shape.reference_drones)
        .map(|i| (i * shape.capacity_drones / shape.reference_drones) as u64)
        .collect();
    let mut update_us = Vec::new();
    let mut counters = FilterCounters::default();
    let (mut replay_steps, mut replay_s) = (0usize, 0.0f64);
    for &drone in &sample {
        let template = template_of(drone as usize);
        let reference = replay_reference(
            report,
            &configs[drone as usize],
            &world,
            &template.traffic,
            &streams[drone as usize],
            drone,
            None,
        );
        update_us.extend(reference.update_us);
        counters = add_counters(counters, reference.counters);
        replay_steps += reference.steps;
        replay_s += reference.replay_s;
    }
    let compute_only = replay_steps as f64 / replay_s;
    println!(
        "served: pose digest {:016x}; sampled drones applied {} skipped {}",
        served_digest.value(),
        counters.updates_applied,
        counters.updates_skipped
    );

    let update = Summary::of(&update_us);
    let latency = Summary::windowed(&latency_ms, LATENCY_WINDOWS);
    println!(
        "{}",
        update.line("independent-filter update_observations (applied)", "us")
    );
    println!(
        "capacity: {} drones x {steps} frames in {elapsed:.3} s; rounds {:?} poses/s, median {capacity:.0} ({compute_only:.0} poses/s compute-only on one thread)",
        shape.capacity_drones,
        round_rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    );
    println!(
        "latency: {drones} drones at {RATE_HZ} Hz = {:.0} poses/s offered ({:.2} of capacity)",
        drones as f64 * RATE_HZ,
        drones as f64 * RATE_HZ / capacity
    );
    println!("{}", latency.line("pose latency from due time", "ms"));

    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("update_us_p50", update.p50);
        report.set("update_us_p99", update.p99);
        report.set("realtime_factor", capacity / RATE_HZ);
        report.set("ate_m", ate.unwrap_or(f64::NAN));
        report.set("success_rate", success);
        report.set("peak_rss_mib", host::peak_rss_mib());
        report.set("fleet_capacity_poses_per_s", capacity);
        report.set("fleet_latency_ms_p50", latency.p50);
        report.set("fleet_latency_ms_p99", latency.p99);
        return Ok(());
    }

    // Traced: the same sample replayed again with the kernel tracer.
    let mut tracer = Tracer::<f32>::default();
    for &drone in &sample {
        let template = template_of(drone as usize);
        replay_reference(
            report,
            &configs[drone as usize],
            &world,
            &template.traffic,
            &streams[drone as usize],
            drone,
            Some(&mut tracer),
        );
    }
    set_kernel_metrics(report, &tracer.trace, update.p50);
    let executed = pool_after.total_executed() - pool_before.total_executed();
    let stolen = pool_after.total_stolen() - pool_before.total_stolen();
    let (encode_us, decode_us) = codec_us(&pool);
    report.set("gridmap.edt_build_ms", median(&edt_ms));
    set_filter_metrics(report, counters);
    report.set("pool.dispatch_us", dispatch_us(pool::shared().workers()));
    report.set("pool.tasks_per_update", executed as f64 / frames as f64);
    report.set(
        "pool.stolen_frac",
        if executed > 0 {
            stolen as f64 / executed as f64
        } else {
            0.0
        },
    );
    report.set("fleet.encode_us", encode_us);
    report.set("fleet.decode_us", decode_us);
    report.set("fleet.mean_batch", capacity_stats.mean_batch());
    report.set(
        "fleet.max_batch",
        capacity_stats
            .shards
            .iter()
            .map(|s| s.max_batch)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set("fleet.serving_overhead", capacity / compute_only);
    report.set(
        "fleet.enqueue_waits",
        latency_stats
            .shards
            .iter()
            .map(|s| s.enqueue_waits)
            .sum::<u64>() as f64,
    );
    report.set(
        "fleet.queue_depth_max",
        latency_stats
            .shards
            .iter()
            .map(|s| s.peak_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set("fleet.poses_dropped", latency_stats.poses_dropped as f64);
    report.set(
        "fleet.server_latency_us_p50",
        latency_stats.p50_latency_us() as f64,
    );
    report.set(
        "fleet.server_latency_us_p99",
        latency_stats.p99_latency_us() as f64,
    );
    report.set("loadgen.lag_ms_p99", percentile(&lag_ms, 0.99));
    Ok(())
}
