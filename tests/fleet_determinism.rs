//! Fleet service determinism: hosting K drones on the sharded fleet server is
//! *unobservable in the pose streams* — every drone's stream is bit-identical
//! to an independent single-filter run over the same traffic, no matter how
//! the fleet is sharded, how arrivals interleave across drones, which kernel
//! backend each filter picks, or whether the frames travel through the
//! in-process handle or the TCP protocol.
//!
//! Why this must hold: a drone's filter state depends only on its *own*
//! ordered update sequence (counter-based RNG keyed on seed and update
//! index), shards preserve per-drone FIFO order, and coalescing only groups
//! *different* drones into one pool dispatch. The proptest harness varies the
//! free parameters the design claims are unobservable — shard count,
//! interleaving schedule, coalescing pressure (barriers mid-stream force
//! small batches; back-to-back pushes force large ones), backend mix and
//! adaptive mode — and asserts bit-identity on every field of every pose.
//!
//! The CI workflow additionally runs this file under `MCL_TEST_WORKERS`
//! ∈ {1, 3, 8} (sizing the shared pool the shards dispatch onto) and
//! `MCL_KERNEL_BACKEND` ∈ {scalar, lanes}, so the pins hold on real
//! multi-thread dispatch of either default backend.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tof_mcl::core::{KernelBackend, MonteCarloLocalization};
use tof_mcl::fleet::client::FleetClient;
use tof_mcl::fleet::protocol::Response;
use tof_mcl::fleet::{DroneConfig, Fleet, FleetConfig, FleetServer, FleetWorld};
use tof_mcl::gridmap::{DroneMaze, EuclideanDistanceField};
use tof_mcl::sensor::ObservationBatch;
use tof_mcl::sim::{
    sequence_traffic, RunnerConfig, SequenceConfig, SequenceGenerator, TrafficStep,
    TrajectoryConfig,
};

/// Ack/barrier deadline. Generous: CI hosts time-slice one core.
const ACK: Duration = Duration::from_secs(30);

/// One pose response reduced to raw bits for exact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoseBits {
    applied: bool,
    x: u32,
    y: u32,
    theta: u32,
    position_std: u32,
    yaw_std: u32,
    neff: u32,
}

/// The shared world (paper maze + fp32 EDT at the default `r_max`) — computed
/// once; every case and both transports reuse it.
fn world() -> &'static FleetWorld {
    static WORLD: OnceLock<FleetWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let maze = DroneMaze::paper_layout(17);
        FleetWorld::new(maze.map().clone(), 1.5)
    })
}

/// Wire traffic for one drone: a short flight through the maze, flattened
/// with the same frame-limit discipline `run_sequence` uses.
fn traffic(id: usize, seed: u64, duration_s: f32) -> Vec<TrafficStep> {
    let maze = DroneMaze::paper_layout(17);
    let config = SequenceConfig {
        trajectory: TrajectoryConfig {
            duration_s,
            region: Some(maze.physical_region()),
            ..TrajectoryConfig::default()
        },
        ..SequenceConfig::default()
    };
    let sequence = SequenceGenerator::new(config).generate(maze.map(), id, seed);
    sequence_traffic(&sequence, &RunnerConfig::default())
}

/// An independent single-filter run over `steps`, built from the *exact*
/// config the fleet's register path derives (`Fleet::filter_config`) and the
/// same shared EDT, replaying the same predict/partition/update sequence the
/// shard applies.
fn reference_stream(fleet: &Fleet, drone: &DroneConfig, steps: &[TrafficStep]) -> Vec<PoseBits> {
    let mut filter = MonteCarloLocalization::<f32, Arc<EuclideanDistanceField>>::new(
        fleet.filter_config(drone),
        Arc::clone(world().field()),
    )
    .expect("reference filter construction");
    filter
        .initialize_uniform(world().map(), drone.seed)
        .expect("reference global init");
    steps
        .iter()
        .map(|step| {
            filter.predict(step.delta);
            let outcome = filter
                .update_observations(&ObservationBatch::from_beams(&step.beams))
                .expect("initialized filter");
            let applied = outcome.is_applied();
            let estimate = match outcome.estimate() {
                Some(estimate) => *estimate,
                None => filter.estimate(),
            };
            PoseBits {
                applied,
                x: estimate.pose.x.to_bits(),
                y: estimate.pose.y.to_bits(),
                theta: estimate.pose.theta.to_bits(),
                position_std: estimate.position_std_m.to_bits(),
                yaw_std: estimate.yaw_std_rad.to_bits(),
                neff: estimate.neff.to_bits(),
            }
        })
        .collect()
}

fn pose_bits(response: &Response) -> Option<(u64, u32, PoseBits)> {
    match response {
        Response::Pose(pose) => Some((
            pose.drone_id,
            pose.update,
            PoseBits {
                applied: pose.applied,
                x: pose.x.to_bits(),
                y: pose.y.to_bits(),
                theta: pose.theta.to_bits(),
                position_std: pose.position_std_m.to_bits(),
                yaw_std: pose.yaw_std_rad.to_bits(),
                neff: pose.neff.to_bits(),
            },
        )),
        _ => None,
    }
}

/// An arrival schedule: `(drone index, step index)` pairs, each drone's steps
/// in order (the only ordering the service guarantees — and the only one the
/// filters can observe).
fn schedule(counts: &[usize], mode: usize, seed: u64) -> Vec<(usize, usize)> {
    let total: usize = counts.iter().sum();
    let mut next = vec![0usize; counts.len()];
    let mut order = Vec::with_capacity(total);
    match mode {
        // Step-major round-robin: maximal cross-drone interleaving.
        0 => {
            while order.len() < total {
                for (drone, step) in next.iter_mut().enumerate() {
                    if *step < counts[drone] {
                        order.push((drone, *step));
                        *step += 1;
                    }
                }
            }
        }
        // Drone-major blocks: each drone's full stream back to back,
        // maximal single-drone coalescing.
        1 => {
            for (drone, &count) in counts.iter().enumerate() {
                for step in 0..count {
                    order.push((drone, step));
                }
            }
        }
        // Seeded random merge preserving per-drone order.
        _ => {
            let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            while order.len() < total {
                let live: Vec<usize> = (0..counts.len()).filter(|&d| next[d] < counts[d]).collect();
                let drone = live[(rng() as usize) % live.len()];
                order.push((drone, next[drone]));
                next[drone] += 1;
            }
        }
    }
    order
}

/// Pushes the scheduled traffic through an in-process handle and collects the
/// per-drone pose streams.
fn fleet_streams(
    fleet: &Arc<Fleet>,
    drones: &[(u64, DroneConfig, Vec<TrafficStep>)],
    order: &[(usize, usize)],
    barrier_every: Option<usize>,
) -> HashMap<u64, Vec<PoseBits>> {
    let mut handle = fleet.handle();
    for (id, config, _) in drones {
        handle
            .register(*id, *config, ACK)
            .expect("register must succeed");
    }
    assert_eq!(fleet.drones(), drones.len());
    for (sent, &(drone, step)) in order.iter().enumerate() {
        let (id, _, steps) = &drones[drone];
        handle
            .push_frame(*id, steps[step].delta, steps[step].beams.clone())
            .expect("push must succeed");
        // An occasional barrier drains the shard queues, forcing the next
        // pushes to arrive on idle shards — varies coalesced batch sizes.
        if barrier_every.is_some_and(|n| (sent + 1) % n == 0) {
            assert!(handle.barrier(ACK), "mid-stream barrier timed out");
        }
    }
    assert!(handle.barrier(ACK), "final barrier timed out");

    let mut streams: HashMap<u64, Vec<PoseBits>> = HashMap::new();
    let total: usize = drones.iter().map(|(_, _, steps)| steps.len()).sum();
    let mut received = 0usize;
    while received < total {
        let response = handle
            .recv_timeout(ACK)
            .expect("pose stream ended early — poses lost or dropped");
        let (id, update, bits) = pose_bits(&response).expect("only poses expected after acks");
        let stream = streams.entry(id).or_default();
        assert_eq!(
            update as usize,
            stream.len() + 1,
            "drone {id} pose stream out of order"
        );
        stream.push(bits);
        received += 1;
    }
    assert_eq!(handle.dropped_poses(), 0, "outbox must not have overflowed");
    for (id, _, _) in drones {
        handle.deregister(*id, ACK).expect("deregister");
    }
    assert_eq!(
        fleet.drones(),
        0,
        "deregistered drones must free their slots"
    );
    streams
}

/// Backend mix assigned round-robin so every case exercises all three
/// explicit backends plus the env-driven default.
const BACKENDS: [Option<KernelBackend>; 4] = [
    None,
    Some(KernelBackend::Scalar),
    Some(KernelBackend::Lanes),
    Some(KernelBackend::Avx2),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole determinism property: for a sampled fleet shape, drone
    /// mix and arrival schedule, every hosted drone's pose stream is
    /// bit-identical to its independent single-filter twin.
    #[test]
    fn hosted_streams_match_independent_filters(
        k in 2usize..=4,
        particles_log2 in 7u32..=8,
        base_seed in 0u64..1_000,
        mode in 0usize..3,
        shards in 1usize..=3,
        barrier_stride in 0usize..=2,
    ) {
        let particles = 1usize << particles_log2;
        let drones: Vec<(u64, DroneConfig, Vec<TrafficStep>)> = (0..k)
            .map(|i| {
                let mut config = DroneConfig::new(particles, base_seed * 31 + i as u64);
                config.backend = BACKENDS[i % BACKENDS.len()];
                // One adaptive drone per fleet: KLD population control must
                // be just as schedule-independent as fixed populations.
                config.adaptive = i == k - 1;
                // Non-contiguous ids spread drones across shards unevenly.
                (1000 + (i as u64) * 7, config, traffic(i, base_seed + i as u64, 2.0))
            })
            .collect();
        let counts: Vec<usize> = drones.iter().map(|(_, _, steps)| steps.len()).collect();
        let total: usize = counts.iter().sum();
        prop_assert!(total > 0);

        let fleet = Fleet::start(
            world().clone(),
            FleetConfig::from_env()
                .with_shards(shards)
                .with_outbox_capacity(total + 64),
        );
        let order = schedule(&counts, mode, base_seed);
        let barrier_every = match barrier_stride {
            0 => None,
            1 => Some(7),
            _ => Some(13),
        };
        let streams = fleet_streams(&fleet, &drones, &order, barrier_every);

        let stats = fleet.stats();
        prop_assert_eq!(stats.updates, total as u64);
        prop_assert_eq!(stats.poses_dropped, 0);
        prop_assert!(stats.mean_batch() >= 1.0);

        for (id, config, steps) in &drones {
            let expected = reference_stream(&fleet, config, steps);
            let got = &streams[id];
            prop_assert_eq!(got.len(), expected.len());
            for (update, (g, e)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(g, e, "drone {} diverged at update {}", id, update + 1);
            }
        }
        fleet.shutdown();
    }
}

/// The same bit-identity through the full TCP path: length-prefixed frames
/// carry the beam and odometry f32s as raw bits, so a remote client's pose
/// stream must match the independent filters exactly too.
#[test]
fn tcp_streams_match_independent_filters() {
    let drones: Vec<(u64, DroneConfig, Vec<TrafficStep>)> = (0..3usize)
        .map(|i| {
            let mut config = DroneConfig::new(128, 400 + i as u64);
            config.backend = BACKENDS[(i + 1) % BACKENDS.len()];
            (50 + i as u64, config, traffic(i, 90 + i as u64, 2.0))
        })
        .collect();
    let total: usize = drones.iter().map(|(_, _, steps)| steps.len()).sum();

    let fleet = Fleet::start(
        world().clone(),
        FleetConfig::from_env().with_outbox_capacity(total + 64),
    );
    let server = FleetServer::serve(Arc::clone(&fleet), "127.0.0.1:0").expect("bind");
    let mut client = FleetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(ACK)).expect("timeout");

    for (id, config, _) in &drones {
        client
            .register(*id, *config)
            .expect("io")
            .expect("register accepted");
    }
    // Step-major round-robin over one socket: frames from different drones
    // land in the same shard wakes and coalesce.
    let counts: Vec<usize> = drones.iter().map(|(_, _, steps)| steps.len()).collect();
    for (drone, step) in schedule(&counts, 0, 0) {
        let (id, _, steps) = &drones[drone];
        client
            .push_frame(*id, steps[step].delta, &steps[step].beams)
            .expect("push");
    }
    client.flush().expect("flush");

    let mut streams: HashMap<u64, Vec<PoseBits>> = HashMap::new();
    for _ in 0..total {
        let response = client
            .recv()
            .expect("io")
            .expect("server closed before all poses arrived");
        let (id, update, bits) = pose_bits(&response).expect("pose expected");
        let stream = streams.entry(id).or_default();
        assert_eq!(update as usize, stream.len() + 1);
        stream.push(bits);
    }
    for (id, config, steps) in &drones {
        let expected = reference_stream(&fleet, config, steps);
        assert_eq!(streams[id], expected, "drone {id} diverged over TCP");
    }
    for (id, _, _) in &drones {
        client.deregister(*id).expect("io").expect("deregister");
    }
    drop(server);
    assert_eq!(fleet.drones(), 0);
    fleet.shutdown();
}
