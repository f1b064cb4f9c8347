//! Fleet server load generator: replays scenario traffic for N concurrent
//! drones against an in-process [`mcl_fleet::Fleet`] and measures sustained
//! poses/sec, coalescing behaviour and per-update latency percentiles.
//!
//! For each fleet size N ∈ {64, 512, 4096} the bench:
//!
//! 1. builds the shared world once (paper maze + fp32 EDT),
//! 2. registers N drones (distinct seeds, a small set of shared traffic
//!    templates) across a handful of producer threads,
//! 3. replays every drone's sequence step-major through the shard queues,
//!    draining pose streams opportunistically, and
//! 4. snapshots `fleet.stats()` for updates/sec, coalesced-batch sizes and
//!    p50/p99 update latency.
//!
//! Each size is compared against the **naive projection**: the cost of
//! serving the same drones with the repo's existing per-drone workflow, where
//! every run pays the fixed world-materialization cost (EDT recompute — what
//! `PaperScenario::evaluate` style one-shot runs pay) before replaying.
//! A handful of drones are actually run that way and the mean is projected
//! to N. The fleet amortizes that fixed cost across all hosted filters and
//! — on multi-core hosts — dispatches the coalesced batches across the
//! work-stealing pool, which is where the headline speedup comes from. On a
//! single-core host the parallel term vanishes and `speedup_vs_naive` lands
//! near the amortization floor (~1.7× measured on the 1-core dev box); the
//! JSON also archives `speedup_compute_only` against a naive run that
//! *shares* the world, which isolates pure dispatch/coalescing overhead and
//! sits at or below 1× with one worker (same honest host-dependent reporting
//! convention as the `dispatch_overhead` bench — CI gates band on the
//! archived `pool_workers` field).
//!
//! Modes: default is the CI quick sweep; `--full` lengthens the sequences;
//! `--soak` runs 512 drones × 60 simulated seconds and asserts zero dropped
//! updates plus stable memory (the CI `fleet-soak` job). When
//! `MCL_BENCH_JSON` is set, one JSON line per fleet size is appended — CI
//! archives them as `BENCH_fleet.json` and gates on the bands.

use mcl_bench::print_header;
use mcl_core::{pool, MonteCarloLocalization};
use mcl_fleet::{DroneConfig, Fleet, FleetConfig, FleetWorld};
use mcl_gridmap::{DroneMaze, EuclideanDistanceField};
use mcl_sensor::ObservationBatch;
use mcl_sim::{sequence_traffic, RunnerConfig, SequenceConfig, SequenceGenerator, TrafficStep};
use mcl_sim::{Sequence, TrajectoryConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct traffic templates shared by the fleet (drone i flies template
/// i mod TEMPLATES; its filter still has a unique seed).
const TEMPLATES: usize = 8;

/// Ack deadline for registration/teardown.
const ACK: Duration = Duration::from_secs(120);

struct LoadShape {
    fleet_sizes: Vec<usize>,
    steps_per_drone: usize,
    particles: usize,
    naive_samples: usize,
    soak: bool,
    quick: bool,
}

impl LoadShape {
    fn from_args() -> Self {
        if std::env::args().any(|a| a == "--soak") {
            // The CI fleet-soak job: 512 drones, 60 simulated seconds at the
            // 15 Hz sensor rate, zero-drop and stable-memory assertions.
            LoadShape {
                fleet_sizes: vec![512],
                steps_per_drone: 900,
                particles: 128,
                naive_samples: 0,
                soak: true,
                quick: false,
            }
        } else if std::env::args().any(|a| a == "--full") {
            LoadShape {
                fleet_sizes: vec![64, 512, 4096],
                steps_per_drone: 60,
                particles: 256,
                naive_samples: 4,
                soak: false,
                quick: false,
            }
        } else {
            LoadShape {
                fleet_sizes: vec![64, 512, 4096],
                steps_per_drone: 30,
                particles: 128,
                naive_samples: 3,
                soak: false,
                quick: true,
            }
        }
    }
}

fn generate_sequence(id: usize, duration_s: f32) -> Sequence {
    let maze = DroneMaze::paper_layout(17);
    let config = SequenceConfig {
        trajectory: TrajectoryConfig {
            duration_s,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        },
        ..SequenceConfig::default()
    };
    SequenceGenerator::new(config).generate(maze.map(), id, 1000 + id as u64)
}

/// The traffic templates, truncated to the bench's step budget.
fn templates(steps: usize) -> Vec<Vec<TrafficStep>> {
    // 15 Hz steps; pad the duration so truncation, not generation, sets the
    // step count.
    let duration_s = (steps as f32) / 15.0 + 1.0;
    (0..TEMPLATES)
        .map(|id| {
            let mut traffic =
                sequence_traffic(&generate_sequence(id, duration_s), &RunnerConfig::default());
            traffic.truncate(steps);
            traffic
        })
        .collect()
}

fn drone_config(particles: usize, drone: u64) -> DroneConfig {
    DroneConfig::new(particles, 77 + drone)
}

/// Resident set size in bytes, from `/proc/self/status` (0 when unreadable).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

struct FleetRun {
    drones: usize,
    updates: u64,
    elapsed_s: f64,
    poses_per_sec: f64,
    p50_latency_us: u64,
    p99_latency_us: u64,
    mean_batch: f64,
    max_batch: u64,
    poses_dropped: u64,
    enqueue_waits: u64,
    shards: usize,
    rss_peak_bytes: u64,
}

/// Drives one fleet of `n` drones over the shared templates and returns the
/// measured throughput/latency profile.
fn run_fleet(
    world: &FleetWorld,
    templates: &[Vec<TrafficStep>],
    n: usize,
    particles: usize,
) -> FleetRun {
    let fleet = Fleet::start(world.clone(), FleetConfig::from_env());
    let shards = fleet.config().shards;
    let producers = n.min(4.max(shards));
    let steps = templates[0].len();

    let baseline = fleet.stats();
    assert_eq!(baseline.updates, 0);

    let mut handles: Vec<_> = std::thread::scope(|scope| {
        let fleet = &fleet;
        let spawned: Vec<_> = (0..producers)
            .map(|p| {
                scope.spawn(move || {
                    let mut handle = fleet.handle();
                    let mine: Vec<u64> = (0..n as u64)
                        .filter(|d| (*d as usize) % producers == p)
                        .collect();
                    for &drone in &mine {
                        handle
                            .register(drone, drone_config(particles, drone), ACK)
                            .expect("register");
                    }
                    handle
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(fleet.drones(), n);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (p, handle) in handles.iter_mut().enumerate() {
            scope.spawn(move || {
                let mine: Vec<u64> = (0..n as u64)
                    .filter(|d| (*d as usize) % producers == p)
                    .collect();
                // Step-major: one step for every drone, then the next — the
                // arrival pattern of a live fleet, and the one that
                // exercises cross-drone coalescing. (The index loop is the
                // honest shape: `step` strides across every drone's template
                // in lockstep, there is no single container to iterate.)
                #[allow(clippy::needless_range_loop)]
                for step in 0..steps {
                    for &drone in &mine {
                        let t = &templates[drone as usize % templates.len()][step];
                        handle
                            .push_frame(drone, t.delta, t.beams.clone())
                            .expect("push");
                    }
                    // Opportunistic drain keeps the outbox shallow.
                    while handle.recv_timeout(Duration::ZERO).is_some() {}
                }
            });
        }
    });
    assert!(fleet.barrier(ACK), "final barrier timed out");
    let elapsed_s = started.elapsed().as_secs_f64();
    for handle in &mut handles {
        while handle.recv_timeout(Duration::ZERO).is_some() {}
    }

    let stats = fleet.stats();
    let updates = stats.updates;
    let run = FleetRun {
        drones: n,
        updates,
        elapsed_s,
        poses_per_sec: updates as f64 / elapsed_s.max(1e-9),
        p50_latency_us: stats.p50_latency_us(),
        p99_latency_us: stats.p99_latency_us(),
        mean_batch: stats.mean_batch(),
        max_batch: stats.shards.iter().map(|s| s.max_batch).max().unwrap_or(0),
        poses_dropped: stats.poses_dropped,
        enqueue_waits: stats.shards.iter().map(|s| s.enqueue_waits).sum(),
        shards: stats.shards.len().max(shards),
        rss_peak_bytes: rss_bytes(),
    };
    drop(handles);
    fleet.shutdown();
    run
}

/// The repo's existing per-drone workflow, as a one-shot run pays it: build
/// the world (EDT included), build + initialize the filter, replay. Returns
/// seconds per drone.
fn naive_full_workflow_s(templates: &[Vec<TrafficStep>], particles: usize, drone: u64) -> f64 {
    let started = Instant::now();
    let maze = DroneMaze::paper_layout(17);
    let field = EuclideanDistanceField::compute(maze.map(), 1.5);
    let mut filter = MonteCarloLocalization::<f32, _>::new(
        mcl_core::MclConfig::default()
            .with_particles(particles)
            .with_seed(77 + drone)
            .with_workers(1),
        field,
    )
    .expect("filter");
    filter
        .initialize_uniform(maze.map(), 77 + drone)
        .expect("init");
    replay(&mut filter, &templates[drone as usize % templates.len()]);
    started.elapsed().as_secs_f64()
}

/// The compute-only naive run: identical replay, but the world is shared —
/// isolates the fleet's dispatch overhead from its fixed-cost amortization.
fn naive_compute_only_s(
    world: &FleetWorld,
    templates: &[Vec<TrafficStep>],
    particles: usize,
    drone: u64,
) -> f64 {
    let mut filter = MonteCarloLocalization::<f32, Arc<EuclideanDistanceField>>::new(
        mcl_core::MclConfig::default()
            .with_particles(particles)
            .with_seed(77 + drone)
            .with_workers(1),
        Arc::clone(world.field()),
    )
    .expect("filter");
    filter
        .initialize_uniform(world.map(), 77 + drone)
        .expect("init");
    let started = Instant::now();
    replay(&mut filter, &templates[drone as usize % templates.len()]);
    started.elapsed().as_secs_f64()
}

fn replay(
    filter: &mut MonteCarloLocalization<f32, impl mcl_gridmap::DistanceField>,
    steps: &[TrafficStep],
) {
    for step in steps {
        filter.predict(step.delta);
        let _ = filter
            .update_observations(&ObservationBatch::from_beams(&step.beams))
            .expect("update");
    }
}

#[allow(clippy::too_many_arguments)]
fn json_line(
    run: &FleetRun,
    steps: usize,
    particles: usize,
    quick: bool,
    soak: bool,
    naive_pps: Option<f64>,
    speedup_naive: Option<f64>,
    compute_pps: Option<f64>,
    speedup_compute: Option<f64>,
) -> String {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
    format!(
        concat!(
            "{{\"bench\":\"{}\",\"drones\":{},\"steps_per_drone\":{},\"particles\":{},",
            "\"quick_mode\":{},\"shards\":{},\"pool_workers\":{},\"updates\":{},",
            "\"elapsed_s\":{:.3},\"poses_per_sec\":{:.1},\"p50_latency_us\":{},",
            "\"p99_latency_us\":{},\"mean_batch\":{:.2},\"max_batch\":{},",
            "\"poses_dropped\":{},\"enqueue_waits\":{},\"rss_peak_bytes\":{},",
            "\"naive_projection_poses_per_sec\":{},\"speedup_vs_naive\":{},",
            "\"compute_only_poses_per_sec\":{},\"speedup_compute_only\":{}}}"
        ),
        if soak { "fleet_soak" } else { "fleet_load" },
        run.drones,
        steps,
        particles,
        quick,
        run.shards,
        pool::shared().workers(),
        run.updates,
        run.elapsed_s,
        run.poses_per_sec,
        run.p50_latency_us,
        run.p99_latency_us,
        run.mean_batch,
        run.max_batch,
        run.poses_dropped,
        run.enqueue_waits,
        run.rss_peak_bytes,
        opt(naive_pps),
        opt(speedup_naive),
        opt(compute_pps),
        opt(speedup_compute),
    )
}

fn main() {
    let shape = LoadShape::from_args();
    print_header("Fleet load — sustained poses/sec under multi-drone traffic");
    println!(
        "(N ∈ {:?}, {} steps/drone, {} particles, {} shard(s), {} pool worker(s))",
        shape.fleet_sizes,
        shape.steps_per_drone,
        shape.particles,
        FleetConfig::from_env().shards,
        pool::shared().workers(),
    );

    let world_started = Instant::now();
    let maze = DroneMaze::paper_layout(17);
    let world = FleetWorld::new(maze.map().clone(), 1.5);
    let world_setup_s = world_started.elapsed().as_secs_f64();
    let templates = templates(shape.steps_per_drone);
    println!(
        "world setup {world_setup_s:.3}s, {} traffic templates x {} steps",
        templates.len(),
        templates[0].len()
    );

    // The naive projection baselines are size-independent per-drone costs;
    // sample them once.
    let naive = (shape.naive_samples > 0).then(|| {
        let full: f64 = (0..shape.naive_samples as u64)
            .map(|d| naive_full_workflow_s(&templates, shape.particles, d))
            .sum::<f64>()
            / shape.naive_samples as f64;
        let compute: f64 = (0..shape.naive_samples as u64)
            .map(|d| naive_compute_only_s(&world, &templates, shape.particles, d))
            .sum::<f64>()
            / shape.naive_samples as f64;
        println!(
            "naive per-drone: {full:.4}s full workflow (EDT per run), {compute:.4}s compute-only"
        );
        (full, compute)
    });

    let rss_start = rss_bytes();
    let mut lines = Vec::new();
    println!(
        "\n{:>7} {:>10} {:>12} {:>9} {:>9} {:>7} {:>8} {:>9} {:>10}",
        "drones",
        "updates",
        "poses/sec",
        "p50 µs",
        "p99 µs",
        "batch",
        "dropped",
        "naive x",
        "compute x"
    );
    for &n in &shape.fleet_sizes {
        let run = run_fleet(&world, &templates, n, shape.particles);
        let (naive_pps, speedup_naive, compute_pps, speedup_compute) = match naive {
            Some((full_s, compute_s)) => {
                let updates = run.updates as f64;
                // Projection: N sequential per-drone runs on this host.
                let naive_pps = updates / (full_s * n as f64);
                let compute_pps = updates / (compute_s * n as f64);
                (
                    Some(naive_pps),
                    Some(run.poses_per_sec / naive_pps),
                    Some(compute_pps),
                    Some(run.poses_per_sec / compute_pps),
                )
            }
            None => (None, None, None, None),
        };
        println!(
            "{:>7} {:>10} {:>12.0} {:>9} {:>9} {:>7.1} {:>8} {:>9} {:>10}",
            run.drones,
            run.updates,
            run.poses_per_sec,
            run.p50_latency_us,
            run.p99_latency_us,
            run.mean_batch,
            run.poses_dropped,
            speedup_naive.map_or("-".to_string(), |s| format!("{s:.1}x")),
            speedup_compute.map_or("-".to_string(), |s| format!("{s:.2}x")),
        );

        if shape.soak {
            // The soak contract: every pushed update was applied (the inbound
            // path backpressures, it never sheds), and memory stayed flat
            // once the filters existed.
            let expected = (n * shape.steps_per_drone) as u64;
            assert_eq!(
                run.updates,
                expected,
                "soak dropped updates: {} of {expected}",
                expected - run.updates
            );
            let rss_end = rss_bytes();
            println!(
                "soak memory: {:.1} MiB at start, {:.1} MiB at end",
                rss_start as f64 / (1024.0 * 1024.0),
                rss_end as f64 / (1024.0 * 1024.0),
            );
            // The fleet and its filters are torn down before this check; the
            // end RSS may only exceed the pre-run baseline by bounded slack
            // (allocator retention), not by anything proportional to the
            // update volume.
            if rss_start > 0 {
                assert!(
                    rss_end < rss_start + 256 * 1024 * 1024,
                    "soak leaked memory: RSS {rss_start} -> {rss_end}"
                );
            }
        }

        lines.push(json_line(
            &run,
            shape.steps_per_drone,
            shape.particles,
            shape.quick,
            shape.soak,
            naive_pps,
            speedup_naive,
            compute_pps,
            speedup_compute,
        ));
    }

    if let Ok(path) = std::env::var("MCL_BENCH_JSON") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|err| panic!("cannot open MCL_BENCH_JSON={path}: {err}"));
        for line in &lines {
            writeln!(file, "{line}").expect("write JSON line");
        }
        println!("\nAppended {} JSON rows to {path}.", lines.len());
    }
}
