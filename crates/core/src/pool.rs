//! Work-stealing multi-queue scheduler backing the cluster dispatch.
//!
//! The paper's GAP9 deployment keeps the 8 compute-cluster cores **resident**:
//! the orchestrating core hands each MCL kernel to the already-running workers
//! and blocks on a hardware barrier — it never pays for starting or stopping
//! them inside an update. The first persistent-pool incarnation of this module
//! reproduced that shape with a **single dispatch slot**: one job at a time,
//! every other dispatch either queued behind it or degraded to inline
//! execution on the calling thread. That was enough for
//! one filter, but the fleet direction (thousands of concurrent filter
//! instances) needs independent top-level dispatches to *share* the worker
//! threads instead of racing for a slot.
//!
//! [`WorkerPool`] is therefore a **work-stealing multi-queue scheduler**,
//! hand-rolled on std atomics only (no extra dependencies):
//!
//! * **Per-worker Chase–Lev deques.** Every resident worker owns a
//!   fixed-capacity Chase–Lev-style deque ([Chase & Lev 2005], with the
//!   explicit fences of Lê et al.'s weak-memory formulation): the owner
//!   pushes and pops jobs LIFO at the bottom, thieves steal FIFO from the
//!   top over a CAS. Dispatches from threads outside the pool land in a
//!   shared **injector** queue instead.
//! * **Jobs are batched task ranges.** A dispatch publishes one *job* —
//!   `tasks` closures indexed `0..tasks` behind an atomic claim cursor — as a
//!   single deque entry, not `tasks` entries. Whoever holds a handle to the
//!   job (the dispatcher, plus every worker that popped or stole its
//!   advertisement) claims indices off the shared cursor, so a job spreads
//!   across idle workers while queue traffic stays O(workers), not O(tasks).
//!   A worker that joins a job with unclaimed work left re-advertises it on
//!   its own deque, fanning the job out to further thieves.
//! * **Concurrent independent dispatches.** There is no job slot: any number
//!   of dispatches can be in flight, each draining its own cursor while idle
//!   workers steal whatever is advertised. Two simultaneous `run_batch`
//!   sweeps split the workers between them instead of serializing.
//! * **Nested dispatch enqueues.** A dispatch made from inside a pool task
//!   (e.g. a filter's kernel dispatch inside a `run_batch` job) pushes its
//!   job onto the *submitting worker's own deque* and participates in it like
//!   any dispatcher. Idle workers steal the nested tasks, so kernel-level
//!   parallelism is available *inside* concurrent jobs — the single-slot
//!   design always ran these inline. Deadlock freedom is preserved by
//!   construction: every dispatcher drains its own cursor until exhaustion
//!   before blocking on the completion latch, so every task is claimed even
//!   if no worker ever helps, and a claimed task is always being executed by
//!   exactly one live thread (the blocked-on graph is the acyclic task
//!   nesting forest).
//! * **Per-dispatch completion latch.** [`WorkerPool::dispatch`] returns only
//!   when all of its tasks completed, so every borrow captured by the task
//!   closure provably outlives the dispatch (the scoped-thread guarantee,
//!   without the spawn).
//! * **Panic propagation.** A panicking task is caught on the worker, parked
//!   in the job, and re-raised on the dispatching thread *after* the
//!   remaining tasks finished — the scheduler stays parked and usable for
//!   the next dispatch, never deadlocked.
//!
//! # Determinism
//!
//! The scheduler never influences *what* is computed — only *where*. Task
//! bodies receive their global task index, the cluster dispatchers cut chunks
//! before execution, and every random draw in the kernels is keyed on
//! `(seed, update, particle index)`. Which OS thread (or how many, or in what
//! steal order) executes a task is therefore unobservable in the results;
//! `tests/pool_determinism.rs` pins scheduled execution bit-identical to
//! serial execution, and `tests/concurrent_dispatch.rs` pins simultaneous
//! independent dispatches bit-identical to their serial executions.
//!
//! # Introspection
//!
//! [`WorkerPool::stats`] (and [`stats`] for the shared pool) snapshots cheap
//! relaxed per-worker counters: tasks executed per resident worker, how many
//! of those were stolen (claimed from a job discovered on another worker's
//! deque or the injector), plus the same pair for non-resident participants.
//! The contention tests assert the steal counters are non-zero, proving the
//! stealing path is actually exercised.
//!
//! # The shared pool
//!
//! [`shared`] returns the process-wide pool used by every
//! [`ClusterLayout`](crate::parallel::ClusterLayout) dispatch and by
//! `mcl_sim::run_batch`. It is sized to the host's available parallelism,
//! overridable via `MCL_POOL_WORKERS` (production sizing) and
//! `MCL_TEST_WORKERS` (test-matrix override, takes precedence; the CI matrix
//! uses it to exercise real 1/3/8-thread pools regardless of runner size).
//!
//! [Chase & Lev 2005]: https://doi.org/10.1145/1073970.1073974

// Two uses of unsafe, both confined to this module (the crate otherwise
// forbids unsafe code):
// * The job hand-off erases the task closure's borrow lifetime so other
//   threads can reference it; the dispatch latch (dispatch blocks until every
//   task completed) is what makes that sound.
// * The Chase–Lev deque slots are read with `ptr::read`-style unchecked reads
//   whose ownership is decided by the subsequent CAS on `top` — the loser
//   forgets the value it read (never drops it), the standard treatment of the
//   algorithm's benign slot race.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Capacity of one worker's Chase–Lev deque. Entries are *job* handles (one
/// per in-flight dispatch advertisement, not one per task), so the realistic
/// population is the dispatch nesting depth plus a few stale advertisements —
/// overflow falls back to the injector and loses nothing but locality.
const DEQUE_CAPACITY: usize = 64;

thread_local! {
    /// `(pool identity, deque index)` of the resident worker running on this
    /// thread, if any. Routes nested dispatches onto the local deque and
    /// attributes executed-task counters to the right worker.
    static WORKER_SLOT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Number of hardware threads the host actually has. Worker counts above this
/// model GAP9 semantics (chunk shapes, resampling plans) but gain nothing from
/// extra OS threads. Cached: the hot path asks on every kernel dispatch.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Locks a mutex, ignoring poisoning: the scheduler's own state transitions
/// are panic-safe (a panicking task is caught before it can unwind through
/// the bookkeeping), so a poisoned lock only means some *task* panicked while
/// holding it — the protected data is still valid.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifetime-erased pointer to a dispatch's task closure. Sound to share with
/// the workers because the dispatcher blocks on the job latch: the closure
/// (and everything it borrows) outlives every dereference, and stale
/// advertisements of completed jobs are discarded by the cursor check before
/// the pointer could be dereferenced.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is only ever shared, never mutated) and
// the latch protocol guarantees it is alive whenever a worker dereferences.
unsafe impl Send for TaskRef {}
// SAFETY: as above — shared immutable access to a `Sync` closure.
unsafe impl Sync for TaskRef {}

/// Shared bookkeeping of one dispatch.
struct JobCore {
    /// Next unclaimed task index. Once it reaches `tasks` the job accepts no
    /// new executors and its advertisements read as stale.
    cursor: AtomicUsize,
    /// Total number of tasks in the job.
    tasks: usize,
    /// Tasks not yet completed — the dispatch latch. The worker that brings
    /// this to zero wakes the dispatcher.
    remaining: AtomicUsize,
    /// Maximum number of threads (dispatcher included) allowed to execute
    /// tasks *concurrently*; further thieves skip the job. This is how a
    /// dispatch models fewer cluster cores than the pool owns.
    limit: usize,
    /// Threads currently executing tasks of this job (the dispatcher counts
    /// as the first).
    active: AtomicUsize,
    /// First panic payload raised by a task, re-raised by the dispatcher.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One advertisement of a job: the erased task closure plus its bookkeeping.
/// Cloned freely — every clone shares the same claim cursor.
#[derive(Clone)]
struct JobHandle {
    task: TaskRef,
    core: Arc<JobCore>,
}

/// Per-worker execution counters (relaxed; snapshot via [`WorkerPool::stats`]).
#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    stolen: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
        }
    }
}

/// Execution counters of one scheduler participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Tasks this participant executed in total.
    pub executed: u64,
    /// The subset of `executed` claimed from a job discovered by stealing —
    /// popped from another worker's deque or pulled from the injector —
    /// rather than dispatched or re-advertised by this participant itself.
    pub stolen: u64,
}

/// Snapshot of the scheduler's per-worker counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per resident worker thread (`workers() - 1` entries).
    pub workers: Vec<WorkerStats>,
    /// Tasks executed by non-resident participants: dispatching threads
    /// draining their own jobs (`stolen` stays zero for them).
    pub external: WorkerStats,
}

impl PoolStats {
    /// Total tasks executed by every participant.
    pub fn total_executed(&self) -> u64 {
        self.external.executed + self.workers.iter().map(|w| w.executed).sum::<u64>()
    }

    /// Total tasks claimed through the stealing path.
    pub fn total_stolen(&self) -> u64 {
        self.external.stolen + self.workers.iter().map(|w| w.stolen).sum::<u64>()
    }
}

/// A fixed-capacity Chase–Lev work-stealing deque of job advertisements.
///
/// Owner (`push`/`pop`) is the resident worker the deque belongs to; `steal`
/// may be called from any thread. The memory orderings follow Lê et al.,
/// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP '13).
struct Deque {
    /// Steal end; only ever incremented, via CAS.
    top: AtomicIsize,
    /// Owner end; owner-written, thief-read.
    bottom: AtomicIsize,
    slots: Box<[DequeSlot]>,
    counters: Counters,
}

struct DequeSlot(std::cell::UnsafeCell<MaybeUninit<JobHandle>>);

// SAFETY: slot access is coordinated by the Chase–Lev indices — a slot is
// written only by the owner while no live index references it, and racy reads
// are resolved by the CAS on `top` (the loser forgets the bytes it read).
unsafe impl Sync for DequeSlot {}

impl Deque {
    fn new() -> Self {
        Deque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            slots: (0..DEQUE_CAPACITY)
                .map(|_| DequeSlot(std::cell::UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
            counters: Counters::default(),
        }
    }

    fn slot(&self, index: isize) -> *mut MaybeUninit<JobHandle> {
        self.slots[index.rem_euclid(DEQUE_CAPACITY as isize) as usize]
            .0
            .get()
    }

    /// Owner-only: push a job at the bottom. Returns the handle back when the
    /// deque is full (the caller overflows to the injector).
    fn push(&self, handle: JobHandle) -> Result<(), JobHandle> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= DEQUE_CAPACITY as isize {
            return Err(handle);
        }
        // SAFETY: `b - t < capacity` means slot `b` holds no live entry, and
        // only the owner (this thread) writes slots.
        unsafe { (*self.slot(b)).write(handle) };
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Owner-only: pop the most recently pushed job (LIFO).
    fn pop(&self) -> Option<JobHandle> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: `t <= b` reserves slot `b` for us unless this is the last
        // entry, in which case the CAS below arbitrates; a lost race forgets
        // the read bytes without dropping them.
        let value = unsafe { (*self.slot(b)).assume_init_read() };
        if t == b {
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                std::mem::forget(value);
                return None;
            }
        }
        Some(value)
    }

    /// Any thread: steal the oldest job (FIFO).
    fn steal(&self) -> Option<JobHandle> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        // SAFETY: the CAS below decides ownership of slot `t`; on failure the
        // (possibly torn) bytes are forgotten, never dropped or used.
        let value = unsafe { (*self.slot(t)).assume_init_read() };
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            std::mem::forget(value);
            return None;
        }
        Some(value)
    }
}

/// State guarded by the scheduler mutex. The deques and the injector carry
/// the work itself; this mutex only coordinates sleeping and shutdown.
struct PoolState {
    /// Bumped on every publication; workers snapshot it before scanning for
    /// work and park only if it is unchanged when they come up empty, so no
    /// publication can slip between the scan and the sleep.
    seq: u64,
    /// Workers currently parked on `work_ready` (gates the wakeup syscall).
    sleepers: usize,
    /// Set once, by `Drop`: workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    /// One deque per resident worker.
    deques: Vec<Deque>,
    /// Jobs published by threads that own no deque (top-level dispatchers),
    /// plus deque overflow.
    injector: Mutex<VecDeque<JobHandle>>,
    state: Mutex<PoolState>,
    /// Workers park here when no work is advertised.
    work_ready: Condvar,
    /// Dispatchers park here while their job's latch is non-zero.
    job_done: Condvar,
    /// Counters of non-resident participants.
    external: Counters,
}

impl PoolShared {
    /// Identity used to match a worker's thread-local slot to its pool.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The deque index owned by the calling thread, if it is a resident
    /// worker of *this* pool.
    fn local_deque(self: &Arc<Self>) -> Option<usize> {
        WORKER_SLOT
            .with(Cell::get)
            .filter(|&(pool, _)| pool == self.id())
            .map(|(_, index)| index)
    }

    /// Makes `handle` stealable: local deque when called from a resident
    /// worker (overflowing to the injector), injector otherwise — then wakes
    /// parked workers.
    fn publish(self: &Arc<Self>, handle: JobHandle) {
        let overflow = match self.local_deque() {
            Some(index) => self.deques[index].push(handle).err(),
            None => Some(handle),
        };
        if let Some(handle) = overflow {
            lock_unpoisoned(&self.injector).push_back(handle);
        }
        let sleepers = {
            let mut state = lock_unpoisoned(&self.state);
            state.seq = state.seq.wrapping_add(1);
            state.sleepers
        };
        if sleepers > 0 {
            self.work_ready.notify_all();
        }
    }

    /// Counters of the calling thread: its own worker slot when resident
    /// here, the external bucket otherwise.
    fn my_counters(self: &Arc<Self>) -> &Counters {
        match self.local_deque() {
            Some(index) => &self.deques[index].counters,
            None => &self.external,
        }
    }
}

/// A persistent pool of parked worker threads executing indexed task batches
/// through a work-stealing multi-queue scheduler.
///
/// See the [module documentation](self) for the execution model. The pool is
/// cheap to keep alive (workers sleep on a condition variable when no work is
/// advertised) and joins all threads on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool of `workers` logical workers: the dispatching thread
    /// plus `workers − 1` resident threads. `workers = 1` spawns no threads
    /// (every dispatch runs inline), mirroring the paper's single-core
    /// baseline.
    ///
    /// A worker count of zero is a caller bug; it trips a debug assertion and
    /// clamps to 1 in release builds.
    pub fn new(workers: usize) -> Self {
        debug_assert!(workers > 0, "at least one worker is required");
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            deques: (1..workers).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            state: Mutex::new(PoolState {
                seq: 0,
                sleepers: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            external: Counters::default(),
        });
        let handles = (0..workers.saturating_sub(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of logical workers (dispatching thread included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshots the per-worker steal/execute counters. Cheap (relaxed loads)
    /// and safe to call concurrently with dispatches; the counts are
    /// monotonic, so differencing two snapshots isolates a code region.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .shared
                .deques
                .iter()
                .map(|d| d.counters.snapshot())
                .collect(),
            external: self.shared.external.snapshot(),
        }
    }

    /// Runs `task(i)` for every `i` in `0..tasks` and returns when all of them
    /// completed. The calling thread claims tasks over the job's atomic cursor
    /// alongside every idle worker that pops or steals the job's
    /// advertisement; each index is executed exactly once.
    ///
    /// Independent dispatches run **concurrently** — there is no dispatch
    /// slot to race for — and a dispatch made from inside a pool task
    /// enqueues onto the local worker's deque, so even nested parallelism is
    /// visible to idle workers. If a task panics, the first panic payload is
    /// re-raised on the calling thread after the remaining tasks finished —
    /// the pool survives and the next dispatch proceeds normally.
    pub fn dispatch(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.dispatch_limited(tasks, usize::MAX, task);
    }

    /// Like [`WorkerPool::dispatch`], but at most `max_workers` threads
    /// (calling thread included) execute tasks concurrently — the shape of a
    /// [`ClusterLayout`](crate::parallel::ClusterLayout) that models fewer
    /// cluster cores than the pool owns.
    ///
    /// Runs entirely on the calling thread (in task-index order) when
    /// `tasks <= 1`, when `max_workers <= 1`, or when the pool has no
    /// resident threads.
    pub fn dispatch_limited(
        &self,
        tasks: usize,
        max_workers: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || max_workers <= 1 || self.handles.is_empty() {
            for index in 0..tasks {
                task(index);
            }
            return;
        }

        let core = Arc::new(JobCore {
            cursor: AtomicUsize::new(0),
            tasks,
            remaining: AtomicUsize::new(tasks),
            limit: max_workers.min(self.workers),
            // The dispatcher is an executor from the start.
            active: AtomicUsize::new(1),
            panic: Mutex::new(None),
        });
        // SAFETY: the closure reference only escapes through job
        // advertisements whose dereference is gated on claiming a task index
        // below `tasks`; a successful claim implies the latch has not
        // released this dispatch yet, so the borrow strictly outlives all
        // uses. Stale advertisements fail the cursor check and never
        // dereference.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let handle = JobHandle {
            task: TaskRef(erased as *const _),
            core: Arc::clone(&core),
        };
        self.shared.publish(handle.clone());

        // Participate: the dispatcher drains the cursor like any worker, so
        // every task is claimed even if all workers are busy elsewhere.
        drain_job(&handle, &self.shared, self.shared.my_counters(), false);
        core.active.fetch_sub(1, Ordering::Release);

        // Latch: wait until every task completed. The re-check happens under
        // the state lock, and completers notify while holding it, so the
        // wakeup cannot be missed.
        if core.remaining.load(Ordering::Acquire) != 0 {
            let mut state = lock_unpoisoned(&self.shared.state);
            while core.remaining.load(Ordering::Acquire) != 0 {
                state = self
                    .shared
                    .job_done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        let payload = lock_unpoisoned(&core.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    /// Parks no more: signals shutdown, joins every resident thread, then
    /// drains the queues of stale advertisements.
    fn drop(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // All threads are joined: exclusive access, safe to act as every
        // deque's owner and free the remaining (necessarily stale) handles.
        for deque in &self.shared.deques {
            while deque.pop().is_some() {}
        }
        lock_unpoisoned(&self.shared.injector).clear();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("resident_threads", &self.handles.len())
            .finish()
    }
}

/// Body of one resident worker thread: scan for work (own deque, then steal
/// from the siblings, then the injector), execute whole jobs, park when a
/// full scan comes up empty and nothing was published since it began.
fn worker_loop(shared: &Arc<PoolShared>, index: usize) {
    WORKER_SLOT.with(|slot| slot.set(Some((shared.id(), index))));
    loop {
        let seen_seq = {
            let state = lock_unpoisoned(&shared.state);
            if state.shutdown {
                return;
            }
            state.seq
        };
        let mut found = false;
        while let Some((handle, stolen)) = find_work(shared, index) {
            found = true;
            execute_job(shared, &handle, index, stolen);
        }
        if found {
            continue;
        }
        let mut state = lock_unpoisoned(&shared.state);
        while !state.shutdown && state.seq == seen_seq {
            state.sleepers += 1;
            state = shared
                .work_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.sleepers -= 1;
        }
        if state.shutdown {
            return;
        }
    }
}

/// One scan for work from worker `index`'s perspective: own deque first
/// (LIFO, cache-warm nested jobs), then steal from the sibling deques in
/// round-robin order, then the shared injector.
fn find_work(shared: &Arc<PoolShared>, index: usize) -> Option<(JobHandle, bool)> {
    if let Some(handle) = shared.deques[index].pop() {
        return Some((handle, false));
    }
    let n = shared.deques.len();
    for offset in 1..n {
        if let Some(handle) = shared.deques[(index + offset) % n].steal() {
            return Some((handle, true));
        }
    }
    if let Some(handle) = lock_unpoisoned(&shared.injector).pop_front() {
        return Some((handle, true));
    }
    None
}

/// A worker joining a discovered job: enter under the job's concurrency
/// limit, re-advertise it if there is still unclaimed work for further
/// thieves, then drain the claim cursor.
fn execute_job(shared: &Arc<PoolShared>, handle: &JobHandle, index: usize, stolen: bool) {
    let core = &handle.core;
    // Become an active executor, unless the job is finished (stale
    // advertisement) or its worker limit is met.
    let mut active = core.active.load(Ordering::Relaxed);
    loop {
        if core.cursor.load(Ordering::Relaxed) >= core.tasks || active >= core.limit {
            return;
        }
        match core.active.compare_exchange_weak(
            active,
            active + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(current) => active = current,
        }
    }
    // Fan out: if more tasks remain than this worker is about to start on and
    // the limit allows more executors, make the job visible to further
    // thieves (the advertisement just consumed is gone).
    if core.cursor.load(Ordering::Relaxed) + 1 < core.tasks
        && core.active.load(Ordering::Relaxed) < core.limit
    {
        shared.publish(handle.clone());
    }
    drain_job(handle, shared, &shared.deques[index].counters, stolen);
    core.active.fetch_sub(1, Ordering::Release);
}

/// Claims and executes tasks of one job until its cursor is exhausted; the
/// thread whose completion empties the latch wakes the dispatcher.
fn drain_job(handle: &JobHandle, shared: &PoolShared, counters: &Counters, stolen: bool) {
    let core = &handle.core;
    loop {
        let index = core.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= core.tasks {
            return;
        }
        // SAFETY: `index < tasks` means the latch has not released the
        // dispatcher yet (our completion below is still pending), so the
        // closure behind the pointer is alive.
        let task = unsafe { &*handle.task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(index))) {
            let mut slot = lock_unpoisoned(&core.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        counters.executed.fetch_add(1, Ordering::Relaxed);
        if stolen {
            counters.stolen.fetch_add(1, Ordering::Relaxed);
        }
        if core.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task of the job: wake the dispatcher. Taking the state
            // lock orders the notification after the dispatcher's check.
            let _state = lock_unpoisoned(&shared.state);
            shared.job_done.notify_all();
        }
    }
}

/// The process-wide pool every [`ClusterLayout`](crate::parallel::ClusterLayout)
/// dispatch and `mcl_sim::run_batch` execute on.
///
/// Sized to [`host_parallelism`], unless overridden (capped at 64 either
/// way): `MCL_POOL_WORKERS` is the production sizing knob, and
/// `MCL_TEST_WORKERS` — read first — is the test-matrix override the CI uses
/// to exercise real 1-, 3- and 8-thread pools independent of runner core
/// count. Both are read once, on first use.
pub fn shared() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let from = |var: &str| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .map(|n| n.min(64))
        };
        let workers = from("MCL_TEST_WORKERS")
            .or_else(|| from("MCL_POOL_WORKERS"))
            .unwrap_or_else(host_parallelism);
        WorkerPool::new(workers)
    })
}

/// Snapshot of the [`shared`] pool's steal/execute counters — see
/// [`WorkerPool::stats`].
pub fn stats() -> PoolStats {
    shared().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dispatch_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [0usize, 1, 3, 4, 17, 256] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.dispatch(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "tasks={tasks}"
            );
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = WorkerPool::new(8);
        let sum = AtomicU64::new(0);
        pool.dispatch(3, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(4);
        pool.dispatch(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn single_worker_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let order = Mutex::new(Vec::new());
        pool.dispatch(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn limited_dispatch_caps_concurrent_entrants() {
        let pool = WorkerPool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.dispatch_limited(64, 2, &|_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "entrant cap violated");
    }

    #[test]
    fn nested_dispatch_completes_without_deadlock() {
        let pool = WorkerPool::new(4);
        let inner_total = AtomicU64::new(0);
        pool.dispatch(4, &|_| {
            // Under the single-slot scheduler this fell back to inline
            // execution; now it enqueues on the local deque and the nested
            // dispatcher drains it alongside any idle thief — either way it
            // must complete with every index executed exactly once.
            pool.dispatch(8, &|j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn deeply_nested_dispatches_overflow_to_the_injector_and_complete() {
        // Many sequential nested dispatches from inside one task push more
        // advertisements than one deque holds (they are only consumed
        // lazily); the overflow path must route through the injector without
        // losing or double-running anything.
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        pool.dispatch(2, &|outer| {
            if outer == 0 {
                for _ in 0..(DEQUE_CAPACITY * 2) {
                    pool.dispatch(2, &|j| {
                        total.fetch_add(j as u64 + 1, Ordering::Relaxed);
                    });
                }
            }
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            (DEQUE_CAPACITY as u64) * 2 * 3
        );
    }

    #[test]
    fn independent_dispatches_run_concurrently() {
        // Two dispatches from two threads: under the work-stealing scheduler
        // neither inlines nor waits for the other; both must observe tasks of
        // the two jobs in flight at the same time (on a multi-worker pool the
        // sleeps guarantee overlapping lifetimes regardless of host cores).
        let pool = WorkerPool::new(4);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let body = |_: usize| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            scope.spawn(|| pool.dispatch(8, &body));
            scope.spawn(|| pool.dispatch(8, &body));
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "independent dispatches never overlapped"
        );
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(8, &|i| {
                if i == 3 {
                    panic!("task three exploded");
                }
            });
        }));
        let payload = result.expect_err("the task panic must reach the dispatcher");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("exploded"), "payload: {message}");
        // Subsequent dispatches must work — no deadlock, no poisoned state.
        let count = AtomicUsize::new(0);
        pool.dispatch(16, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn repeated_dispatches_on_a_warm_pool_do_not_leak_state() {
        let pool = WorkerPool::new(4);
        for round in 0..32 {
            let mut data = vec![0u64; 100];
            let slots: Vec<Mutex<&mut [u64]>> = data.chunks_mut(25).map(Mutex::new).collect();
            pool.dispatch(slots.len(), &|i| {
                for (k, v) in slots[i].lock().unwrap().iter_mut().enumerate() {
                    *v = round * 1000 + (i * 25 + k) as u64;
                }
            });
            for (k, &v) in data.iter().enumerate() {
                assert_eq!(v, round * 1000 + k as u64, "round {round}");
            }
        }
    }

    #[test]
    fn drop_joins_all_resident_threads() {
        let pool = WorkerPool::new(6);
        let shared = Arc::clone(&pool.shared);
        let sum = AtomicU64::new(0);
        pool.dispatch(32, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        drop(pool);
        // Every resident thread held one Arc clone; after a clean join only
        // the test's own handle remains.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn stats_count_executed_tasks_and_expose_worker_shape() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        assert_eq!(before.workers.len(), 3);
        let work = AtomicUsize::new(0);
        pool.dispatch(64, &|_| {
            work.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        let after = pool.stats();
        assert_eq!(after.total_executed() - before.total_executed(), 64);
        assert!(after.total_stolen() >= before.total_stolen());
    }

    #[test]
    fn stealing_is_exercised_under_contention() {
        // A top-level dispatch lands in the injector; with sleepy tasks the
        // resident workers must pull from it (every such pull counts as a
        // steal), so the steal counters provably move.
        let pool = WorkerPool::new(4);
        let before = pool.stats().total_stolen();
        pool.dispatch(32, &|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let after = pool.stats().total_stolen();
        assert!(
            after > before,
            "no task was stolen under a contended dispatch"
        );
    }

    #[test]
    fn chase_lev_deque_push_pop_steal_roundtrip() {
        let deque = Deque::new();
        let core = Arc::new(JobCore {
            cursor: AtomicUsize::new(0),
            tasks: 0,
            remaining: AtomicUsize::new(0),
            limit: 1,
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let noop: &(dyn Fn(usize) + Sync) = &|_| {};
        let handle = |_: usize| JobHandle {
            task: TaskRef(noop as *const _),
            core: Arc::clone(&core),
        };
        assert!(deque.pop().is_none());
        assert!(deque.steal().is_none());
        for i in 0..DEQUE_CAPACITY {
            assert!(deque.push(handle(i)).is_ok(), "push {i} of capacity");
        }
        // Full: the next push hands the value back for the injector.
        assert!(deque.push(handle(usize::MAX)).is_err());
        // Owner pops LIFO, thief steals FIFO; together they drain it all.
        assert!(deque.pop().is_some());
        assert!(deque.steal().is_some());
        let mut drained = 2;
        while deque.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, DEQUE_CAPACITY);
        assert!(deque.steal().is_none());
        // Arc bookkeeping survived the churn: only core + our template left.
        assert_eq!(Arc::strong_count(&core), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_asserts_in_debug_builds() {
        let _ = WorkerPool::new(0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_workers_clamps_to_one_in_release_builds() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let count = AtomicUsize::new(0);
        pool.dispatch(3, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shared_pool_is_usable_and_sized() {
        let pool = shared();
        assert!(pool.workers() >= 1);
        let count = AtomicUsize::new(0);
        pool.dispatch(9, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 9);
        assert_eq!(stats().workers.len(), pool.workers() - 1);
    }
}
