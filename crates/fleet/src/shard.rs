//! Shards: the filter-owning worker threads behind the fleet front-end.
//!
//! Each shard owns the filters of the drones pinned to it (`drone_id %
//! shards`) and consumes a bounded FIFO command queue. One drain of that
//! queue is one *coalesced batch*: every frame that arrived since the shard
//! last woke is grouped per drone (preserving per-drone arrival order) and
//! the whole group set is executed as a single
//! [`dispatch_limited`](mcl_core::pool::WorkerPool::dispatch_limited) over
//! the shared work-stealing pool — one task per drone, so concurrently
//! arriving updates share one publish/claim round trip.
//!
//! Control commands (register / deregister / owner cleanup / barrier) are
//! applied inline on the shard thread, after flushing any frame groups
//! accumulated before them, which keeps the per-drone command order exactly
//! the arrival order — the property the determinism harness pins.
//!
//! A panic inside a drone's filter is caught per coalesced group: the drone
//! is answered with [`ErrorCode::Internal`], its slot retired, and neither
//! the pool nor the other drones of the batch observe anything.

use crate::fleet::FleetError;
use crate::outbox::Outbox;
use crate::protocol::{ErrorCode, PoseUpdate, Response};
use crate::stats::ShardCounters;
use mcl_core::pool;
use mcl_core::{MclConfig, MonteCarloLocalization, MotionDelta};
use mcl_gridmap::{EuclideanDistanceField, OccupancyGrid};
use mcl_sensor::{AnchorRange, Beam, ObservationBatch};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The filter type the fleet hosts: f32 particles over one shared fp32
/// distance field (the `Arc` forwarding impl keeps the fast lookup paths).
pub(crate) type FleetFilter = MonteCarloLocalization<f32, Arc<EuclideanDistanceField>>;

/// Everything a shard thread needs besides its queue.
pub(crate) struct ShardCtx {
    pub(crate) map: Arc<OccupancyGrid>,
    pub(crate) field: Arc<EuclideanDistanceField>,
    /// Worker cap for one coalesced-batch dispatch.
    pub(crate) dispatch_workers: usize,
    /// Fleet-wide registered-drone count (capacity accounting).
    pub(crate) fleet_drones: Arc<AtomicUsize>,
    /// Registration capacity across all shards.
    pub(crate) max_drones: usize,
}

/// One odometry+observation frame queued for a drone.
pub(crate) struct FrameCmd {
    pub(crate) delta: MotionDelta,
    pub(crate) beams: Vec<Beam>,
    /// UWB anchor ranges (empty for v1 / ToF-only clients).
    pub(crate) ranges: Vec<AnchorRange>,
    pub(crate) enqueued: Instant,
    pub(crate) reply: Arc<Outbox>,
}

/// A command consumed by the shard thread.
pub(crate) enum Command {
    /// Create and uniformly initialize a filter for `drone`.
    Register {
        token: u64,
        drone: u64,
        config: MclConfig,
        reply: Arc<Outbox>,
    },
    /// Apply one frame to `drone`'s filter and stream the estimate back.
    Frame {
        token: u64,
        drone: u64,
        frame: FrameCmd,
    },
    /// Retire `drone`'s filter.
    Deregister {
        token: u64,
        drone: u64,
        reply: Option<Arc<Outbox>>,
    },
    /// Retire every drone owned by `token` (connection teardown).
    DropOwner { token: u64 },
    /// Open `gate` once every previously queued command has been processed.
    Barrier { gate: Arc<BarrierGate> },
}

impl Command {
    /// Whether the bounded-queue backpressure applies. Teardown and barrier
    /// commands bypass the bound so cleanup can never deadlock against a
    /// full queue.
    fn counts_against_capacity(&self) -> bool {
        !matches!(self, Command::DropOwner { .. } | Command::Barrier { .. })
    }
}

/// A completion gate for [`Command::Barrier`].
#[derive(Debug, Default)]
pub(crate) struct BarrierGate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl BarrierGate {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(BarrierGate::default())
    }

    fn open(&self) {
        *self.done.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Waits for the gate; `false` on timeout.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().unwrap();
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self.cv.wait_timeout(done, deadline - now).unwrap();
            done = next;
        }
        true
    }
}

struct CommandQueue {
    pending: VecDeque<Command>,
    closed: bool,
}

/// One filter-owning worker of the fleet.
pub(crate) struct Shard {
    index: usize,
    queue: Mutex<CommandQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    pub(crate) counters: ShardCounters,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// A registered drone's slot. The per-slot mutex makes the slot shareable
/// with pool workers during a coalesced dispatch; it is uncontended by
/// construction (a drone appears in exactly one group per batch).
struct DroneSlot {
    owner: u64,
    state: Mutex<DroneState>,
}

struct DroneState {
    filter: FleetFilter,
    updates: u32,
}

/// One drone's slice of a coalesced batch.
struct FrameGroup {
    drone: u64,
    slot: Arc<DroneSlot>,
    frames: Mutex<Vec<FrameCmd>>,
}

impl Shard {
    /// Spawns the shard thread and returns its handle.
    pub(crate) fn spawn(index: usize, capacity: usize, ctx: ShardCtx) -> Arc<Shard> {
        let shard = Arc::new(Shard {
            index,
            queue: Mutex::new(CommandQueue {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            counters: ShardCounters::default(),
            thread: Mutex::new(None),
        });
        let runner = Arc::clone(&shard);
        let handle = std::thread::Builder::new()
            .name(format!("mcl-fleet-shard-{index}"))
            .spawn(move || runner.run(ctx))
            .expect("spawn fleet shard thread");
        *shard.thread.lock().unwrap() = Some(handle);
        shard
    }

    /// Shard index (for stats attribution).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Commands currently queued.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap().pending.len()
    }

    /// Enqueues `command`, blocking while the bounded queue is full — the
    /// backpressure path that keeps fleet memory stable under overload.
    pub(crate) fn submit(&self, command: Command) -> Result<(), FleetError> {
        let mut queue = self.queue.lock().unwrap();
        if command.counts_against_capacity() {
            let mut waited = false;
            while queue.pending.len() >= self.capacity && !queue.closed {
                if !waited {
                    self.counters.enqueue_waits.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                }
                queue = self.not_full.wait(queue).unwrap();
            }
        }
        if queue.closed {
            return Err(FleetError::Closed);
        }
        queue.pending.push_back(command);
        self.counters.record_queue_depth(queue.pending.len());
        drop(queue);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: pending commands still run, new submissions fail.
    pub(crate) fn close(&self) {
        self.queue.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Joins the shard thread (after [`Shard::close`]).
    pub(crate) fn join(&self) {
        if let Some(handle) = self.thread.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    /// The shard thread: drain-everything, coalesce, dispatch, repeat.
    fn run(self: Arc<Self>, ctx: ShardCtx) {
        let mut slots: HashMap<u64, Arc<DroneSlot>> = HashMap::new();
        let mut batch: Vec<Command> = Vec::new();
        loop {
            batch.clear();
            {
                let mut queue = self.queue.lock().unwrap();
                while queue.pending.is_empty() && !queue.closed {
                    queue = self.not_empty.wait(queue).unwrap();
                }
                if queue.pending.is_empty() {
                    break; // closed and drained
                }
                batch.extend(queue.pending.drain(..));
            }
            self.not_full.notify_all();
            self.counters.record_batch(batch.len());
            self.process(&ctx, &mut slots, &mut batch);
        }
        // Retire any remaining slots so fleet-wide accounting reaches zero.
        let remaining = slots.len();
        slots.clear();
        self.counters.drones.fetch_sub(remaining, Ordering::Relaxed);
        ctx.fleet_drones.fetch_sub(remaining, Ordering::Relaxed);
    }

    /// Executes one drained batch: frames coalesce into per-drone groups,
    /// control commands flush the groups and run inline, preserving arrival
    /// order per drone.
    fn process(
        &self,
        ctx: &ShardCtx,
        slots: &mut HashMap<u64, Arc<DroneSlot>>,
        batch: &mut Vec<Command>,
    ) {
        let mut groups: Vec<FrameGroup> = Vec::new();
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        for command in batch.drain(..) {
            match command {
                Command::Frame {
                    token,
                    drone,
                    frame,
                } => match slots.get(&drone) {
                    Some(slot) if slot.owner == token => {
                        let index = *group_of.entry(drone).or_insert_with(|| {
                            groups.push(FrameGroup {
                                drone,
                                slot: Arc::clone(slot),
                                frames: Mutex::new(Vec::new()),
                            });
                            groups.len() - 1
                        });
                        groups[index].frames.get_mut().unwrap().push(frame);
                    }
                    Some(_) => frame.reply.push(Response::Error {
                        code: ErrorCode::NotOwner,
                        drone_id: drone,
                    }),
                    None => frame.reply.push(Response::Error {
                        code: ErrorCode::UnknownDrone,
                        drone_id: drone,
                    }),
                },
                control => {
                    self.flush(ctx, slots, &mut groups, &mut group_of);
                    self.control(ctx, slots, control);
                }
            }
        }
        self.flush(ctx, slots, &mut groups, &mut group_of);
    }

    /// Executes the accumulated frame groups as one coalesced pool dispatch.
    fn flush(
        &self,
        ctx: &ShardCtx,
        slots: &mut HashMap<u64, Arc<DroneSlot>>,
        groups: &mut Vec<FrameGroup>,
        group_of: &mut HashMap<u64, usize>,
    ) {
        if groups.is_empty() {
            return;
        }
        let poisoned: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let counters = &self.counters;
        let run_group = |group: &FrameGroup| {
            let frames = std::mem::take(&mut *group.frames.lock().unwrap());
            let error_reply = frames.first().map(|f| Arc::clone(&f.reply));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                apply_frames(&group.slot, group.drone, frames, counters);
            }));
            if outcome.is_err() {
                // The filter panicked: retire this drone, tell its client,
                // leave everything else running.
                poisoned.lock().unwrap().push(group.drone);
                if let Some(reply) = error_reply {
                    reply.push(Response::Error {
                        code: ErrorCode::Internal,
                        drone_id: group.drone,
                    });
                }
            }
        };
        if groups.len() == 1 {
            // A single drone's frames gain nothing from the pool round trip.
            run_group(&groups[0]);
        } else {
            let group_slice = &groups[..];
            pool::shared().dispatch_limited(group_slice.len(), ctx.dispatch_workers.max(1), &|i| {
                run_group(&group_slice[i])
            });
        }
        for drone in poisoned.into_inner().unwrap() {
            if slots.remove(&drone).is_some() {
                self.counters.drones.fetch_sub(1, Ordering::Relaxed);
                ctx.fleet_drones.fetch_sub(1, Ordering::Relaxed);
            }
        }
        groups.clear();
        group_of.clear();
    }

    /// Applies one control command inline on the shard thread.
    fn control(&self, ctx: &ShardCtx, slots: &mut HashMap<u64, Arc<DroneSlot>>, command: Command) {
        match command {
            Command::Register {
                token,
                drone,
                config,
                reply,
            } => {
                if slots.contains_key(&drone) {
                    reply.push(Response::Error {
                        code: ErrorCode::DuplicateDrone,
                        drone_id: drone,
                    });
                    return;
                }
                if ctx.fleet_drones.fetch_add(1, Ordering::Relaxed) >= ctx.max_drones {
                    ctx.fleet_drones.fetch_sub(1, Ordering::Relaxed);
                    reply.push(Response::Error {
                        code: ErrorCode::Capacity,
                        drone_id: drone,
                    });
                    return;
                }
                let particles = config.num_particles as u32;
                let seed = config.seed;
                let built =
                    FleetFilter::new(config, Arc::clone(&ctx.field)).and_then(|mut filter| {
                        filter.initialize_uniform(&ctx.map, seed)?;
                        Ok(filter)
                    });
                match built {
                    Ok(filter) => {
                        slots.insert(
                            drone,
                            Arc::new(DroneSlot {
                                owner: token,
                                state: Mutex::new(DroneState { filter, updates: 0 }),
                            }),
                        );
                        self.counters.drones.fetch_add(1, Ordering::Relaxed);
                        reply.push(Response::Registered {
                            drone_id: drone,
                            particles,
                        });
                    }
                    Err(_) => {
                        ctx.fleet_drones.fetch_sub(1, Ordering::Relaxed);
                        reply.push(Response::Error {
                            code: ErrorCode::BadConfig,
                            drone_id: drone,
                        });
                    }
                }
            }
            Command::Deregister {
                token,
                drone,
                reply,
            } => {
                let owned = matches!(slots.get(&drone), Some(slot) if slot.owner == token);
                if owned {
                    slots.remove(&drone);
                    self.counters.drones.fetch_sub(1, Ordering::Relaxed);
                    ctx.fleet_drones.fetch_sub(1, Ordering::Relaxed);
                    if let Some(reply) = reply {
                        reply.push(Response::Deregistered { drone_id: drone });
                    }
                } else if let Some(reply) = reply {
                    reply.push(Response::Error {
                        code: if slots.contains_key(&drone) {
                            ErrorCode::NotOwner
                        } else {
                            ErrorCode::UnknownDrone
                        },
                        drone_id: drone,
                    });
                }
            }
            Command::DropOwner { token } => {
                let before = slots.len();
                slots.retain(|_, slot| slot.owner != token);
                let removed = before - slots.len();
                if removed > 0 {
                    self.counters.drones.fetch_sub(removed, Ordering::Relaxed);
                    ctx.fleet_drones.fetch_sub(removed, Ordering::Relaxed);
                }
            }
            Command::Barrier { gate } => gate.open(),
            Command::Frame { .. } => unreachable!("frames are coalesced, not control"),
        }
    }
}

/// Applies one drone's pending frames in arrival order — the exact
/// single-filter discipline of `mcl_sim::run_sequence`: predict, flatten the
/// beams and wrap them (and any UWB anchor ranges a v2 frame carried) into
/// an [`ObservationBatch`], gated fused update, publish the applied estimate
/// (or the current one when the motion gate skipped).
fn apply_frames(slot: &DroneSlot, drone: u64, frames: Vec<FrameCmd>, counters: &ShardCounters) {
    let mut state = slot.state.lock().unwrap();
    let state = &mut *state;
    for frame in frames {
        state.filter.predict(frame.delta);
        let mut observations = ObservationBatch::from_beams(&frame.beams);
        for range in &frame.ranges {
            observations.push_anchor(*range);
        }
        let outcome = state
            .filter
            .update_observations(&observations)
            .expect("registered filters are initialized");
        let applied = outcome.is_applied();
        let estimate = match outcome.estimate() {
            Some(estimate) => *estimate,
            None => state.filter.estimate(),
        };
        state.updates += 1;
        let latency = frame.enqueued.elapsed();
        counters
            .latency
            .record_us(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
        counters.updates.fetch_add(1, Ordering::Relaxed);
        frame.reply.push(Response::Pose(PoseUpdate {
            drone_id: drone,
            update: state.updates,
            applied,
            x: estimate.pose.x,
            y: estimate.pose.y,
            theta: estimate.pose.theta,
            position_std_m: estimate.position_std_m,
            yaw_std_rad: estimate.yaw_std_rad,
            neff: estimate.neff,
        }));
    }
}
