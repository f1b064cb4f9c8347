//! Host-side parallel execution mirroring the GAP9 cluster usage.
//!
//! On GAP9 the four MCL steps are distributed over the 8 worker cores of the
//! compute cluster (a ninth core orchestrates). This module reproduces that
//! execution shape on the host: particles are split into one contiguous chunk
//! per worker, each worker runs the same kernel on its chunk independently,
//! and the per-particle counter-based RNG guarantees that the result is
//! bit-identical to sequential execution — a property the integration tests
//! rely on (and which the real firmware needs so single-core and multi-core
//! builds are interchangeable).
//!
//! The unit of distribution is anything implementing [`Subdivide`]: plain
//! slices, the structure-of-arrays particle views
//! ([`crate::particle::ParticleSlice`] / [`crate::particle::ParticleSliceMut`]),
//! or pairs of both (a particle chunk zipped with its output chunk). The
//! [`crate::kernel`] module provides the per-chunk bodies.
//!
//! # Execution backend: the work-stealing pool
//!
//! Every dispatch entry point runs its worker chunks on the process-wide
//! [`WorkerPool`](crate::pool::WorkerPool) (see [`crate::pool::shared`]):
//! resident threads park between dispatches and claim kernel invocations
//! through the pool's work-stealing scheduler — per-worker Chase–Lev deques
//! plus a shared injector — so no OS thread is spawned on the hot path and
//! any number of independent dispatches share the workers concurrently.
//! Chunk boundaries are computed *before* execution and depend only on the
//! layout, so the steal schedule is not observable in the results: a
//! dispatch produces exactly what running its chunks serially, in order,
//! produces. [`ClusterLayout::SINGLE`] runs `work` inline on the calling
//! thread, which is the serial reference the determinism suite
//! (`tests/pool_determinism.rs`) pins every multi-worker dispatch against.
//!
//! Nested dispatches (a layout dispatch from inside a pool task, e.g. a
//! filter update inside a `mcl_sim::run_batch` job) enqueue on the
//! submitting worker's own deque: idle workers steal the nested kernel
//! chunks, so kernel-level parallelism stays available inside job-level
//! parallelism, and the scheduler's concurrency caps keep the host from
//! oversubscribing.
//!
//! The wall-clock speedups measured on the host by the Criterion benches are
//! *not* the paper's numbers (different silicon); the GAP9 latency figures of
//! Table I and Fig. 10 come from the analytic cost model in `mcl-gap9`, which
//! uses the same chunking and the same resampling critical path as this module.

use crate::particle::{ParticleSlice, ParticleSliceMut};
use crate::pool;
use mcl_num::Scalar;
use std::sync::{Mutex, PoisonError};

/// A contiguous collection that can be split at an index — the shape a worker
/// chunk is cut from. Implemented for shared/mutable slices, the SoA particle
/// views and pairs of subdividable collections (which split at the same index,
/// e.g. a particle chunk zipped with its per-particle output chunk).
pub trait Subdivide: Sized {
    /// Number of items in the collection.
    fn subdivide_len(&self) -> usize;
    /// Splits into `[0, mid)` and `[mid, len)`.
    fn subdivide_at(self, mid: usize) -> (Self, Self);
}

impl<T> Subdivide for &[T] {
    fn subdivide_len(&self) -> usize {
        self.len()
    }
    fn subdivide_at(self, mid: usize) -> (Self, Self) {
        self.split_at(mid)
    }
}

impl<T> Subdivide for &mut [T] {
    fn subdivide_len(&self) -> usize {
        self.len()
    }
    fn subdivide_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<S: Scalar> Subdivide for ParticleSlice<'_, S> {
    fn subdivide_len(&self) -> usize {
        self.len()
    }
    fn subdivide_at(self, mid: usize) -> (Self, Self) {
        self.split_at(mid)
    }
}

impl<S: Scalar> Subdivide for ParticleSliceMut<'_, S> {
    fn subdivide_len(&self) -> usize {
        self.len()
    }
    fn subdivide_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Subdivide, B: Subdivide> Subdivide for (A, B) {
    fn subdivide_len(&self) -> usize {
        debug_assert_eq!(
            self.0.subdivide_len(),
            self.1.subdivide_len(),
            "paired collections must have equal length"
        );
        self.0.subdivide_len()
    }
    fn subdivide_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.subdivide_at(mid);
        let (b0, b1) = self.1.subdivide_at(mid);
        ((a0, b0), (a1, b1))
    }
}

/// Takes the payload of one pre-split dispatch slot. Each task index claims
/// its own slot exactly once, so the mutex is uncontended; it only exists to
/// move owned chunk payloads out of a closure shared across threads.
fn take_slot<T>(slot: &Mutex<Option<T>>) -> T {
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("dispatch task claimed twice")
}

/// How particles are distributed over worker cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLayout {
    workers: usize,
}

impl ClusterLayout {
    /// The 8-worker layout of the GAP9 cluster.
    pub const GAP9: ClusterLayout = ClusterLayout { workers: 8 };

    /// A single-core layout (the paper's sequential baseline).
    pub const SINGLE: ClusterLayout = ClusterLayout { workers: 1 };

    /// Creates a layout with `workers` worker cores.
    ///
    /// A worker count of zero is a caller bug; it trips a debug assertion and
    /// clamps to 1 in release builds ([`crate::config::MclConfig::validate`]
    /// reports a zero worker count as a configuration error before it gets
    /// here).
    pub fn new(workers: usize) -> Self {
        debug_assert!(workers > 0, "at least one worker is required");
        ClusterLayout {
            workers: workers.max(1),
        }
    }

    /// Number of worker cores.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Upper bound on concurrently executing OS threads: the pool's worker
    /// count (host parallelism, or the `MCL_TEST_WORKERS` override). Worker
    /// counts above this model GAP9 semantics (chunk shapes, resampling
    /// plans) without paying for threads the host cannot run.
    fn thread_cap(&self) -> usize {
        pool::shared().workers()
    }

    /// Chunk size used for `n` items: `⌈n / workers⌉` (capped at `n`).
    fn chunk_size(&self, n: usize) -> usize {
        n.div_ceil(self.workers.min(n.max(1)))
    }

    /// The contiguous `(start, end)` chunk of each worker for `n` items;
    /// chunks are as even as possible and cover `0..n` exactly. Returns a lazy
    /// iterator — the hot loop calls this every predict/update, so no `Vec` is
    /// allocated.
    pub fn chunks(self, n: usize) -> impl Iterator<Item = (usize, usize)> {
        let chunk = self.chunk_size(n);
        let used_workers = if n == 0 { 0 } else { n.div_ceil(chunk) };
        (0..used_workers).map(move |w| (w * chunk, ((w + 1) * chunk).min(n)))
    }

    /// Runs `work` on every worker chunk of `items`, on the persistent shared
    /// pool when more than one worker is configured. `work` receives the
    /// chunk's start index (needed to derive per-particle RNG streams) and the
    /// chunk itself.
    ///
    /// Chunk boundaries are an execution detail, not a contract: the kernels
    /// dispatched here key every random draw and every output slot on the
    /// *global* index, so any split produces identical results. The dispatcher
    /// exploits that by cutting at most [`pool::shared()`]`.workers()` chunks —
    /// modelling 8 GAP9 workers on a smaller host does not pay for threads the
    /// hardware cannot run — and by executing tasks on the dispatching thread
    /// alongside the pool workers.
    pub fn for_each_split<C, F>(&self, items: C, work: F)
    where
        C: Subdivide + Send,
        F: Fn(usize, C) + Send + Sync,
    {
        let n = items.subdivide_len();
        if n == 0 {
            return;
        }
        let threads = self.workers.min(self.thread_cap()).min(n);
        if threads == 1 {
            work(0, items);
            return;
        }
        let chunk = n.div_ceil(threads);
        let mut slots = Vec::with_capacity(threads);
        let mut rest = items;
        let mut start = 0usize;
        while start < n {
            let take = chunk.min(n - start);
            let (mine, remaining) = rest.subdivide_at(take);
            rest = remaining;
            slots.push(Mutex::new(Some((start, mine))));
            start += take;
        }
        let task = |index: usize| {
            let (chunk_start, mine) = take_slot(&slots[index]);
            work(chunk_start, mine);
        };
        pool::shared().dispatch_limited(slots.len(), threads, &task);
    }

    /// Runs `work` on explicitly sized contiguous pieces of `items` — one per
    /// `(start, end)` range — in parallel. The ranges must be contiguous,
    /// disjoint, ordered and cover `0..len` exactly; this is the shape of a
    /// [`crate::resampling::ResamplePlan`]'s per-worker output ranges, whose
    /// sizes the weight distribution (not the layout) dictates.
    ///
    /// # Panics
    ///
    /// Panics when the ranges do not tile `0..len`.
    pub fn for_each_range<C, F>(&self, items: C, ranges: &[(usize, usize)], work: F)
    where
        C: Subdivide + Send,
        F: Fn(usize, C) + Send + Sync,
    {
        // Invokes `work` once per non-empty range of a contiguous run.
        fn run_ranges<C: Subdivide, F: Fn(usize, C)>(
            mut piece: C,
            ranges: &[(usize, usize)],
            work: &F,
        ) {
            for &(start, end) in ranges {
                let (mine, rest) = piece.subdivide_at(end - start);
                piece = rest;
                if mine.subdivide_len() > 0 {
                    work(start, mine);
                }
            }
        }

        let n = items.subdivide_len();
        // Validate the tiling up front so the contract holds on every path,
        // including the single-worker shortcut below.
        let mut consumed = 0usize;
        for &(start, end) in ranges {
            assert_eq!(start, consumed, "ranges must be contiguous");
            assert!(end >= start, "ranges must not be inverted");
            consumed = end;
        }
        assert_eq!(consumed, n, "ranges must cover the collection exactly");
        // Like for_each_split, the thread fan-out is capped by the pool size;
        // the per-range `work` invocations (the plan's semantic decomposition)
        // are preserved regardless of how ranges are grouped onto threads.
        let threads = self.workers.min(self.thread_cap()).min(ranges.len());
        if ranges.len() <= 1 || threads <= 1 {
            if n > 0 {
                run_ranges(items, ranges, &work);
            }
            return;
        }
        // Group consecutive ranges into at most `threads` contiguous groups of
        // roughly equal item counts.
        let quota = n.div_ceil(threads).max(1);
        let mut slots = Vec::with_capacity(threads);
        let mut rest = items;
        let mut i = 0usize;
        while i < ranges.len() {
            let group_first = i;
            let group_begin = ranges[i].0;
            let mut group_items = 0usize;
            while i < ranges.len() && group_items < quota {
                group_items += ranges[i].1 - ranges[i].0;
                i += 1;
            }
            let group_end = ranges[i - 1].1;
            let (mine, remaining) = rest.subdivide_at(group_end - group_begin);
            rest = remaining;
            slots.push(Mutex::new(Some((mine, &ranges[group_first..i]))));
        }
        let task = |index: usize| {
            let (mine, group) = take_slot(&slots[index]);
            run_ranges(mine, group, &work);
        };
        pool::shared().dispatch_limited(slots.len(), threads, &task);
    }

    /// Scatters `source[indices[i]]` into `target[i]` for the output ranges of a
    /// resampling plan, one range per worker. This is the array-of-structs
    /// variant kept as the benchmark baseline; the filter scatters through the
    /// SoA [`crate::kernel::resample_scatter`] kernel.
    pub fn scatter_resample<T>(
        &self,
        source: &[T],
        target: &mut [T],
        indices: &[usize],
        ranges: &[(usize, usize)],
    ) where
        T: Copy + Send + Sync,
    {
        assert_eq!(target.len(), indices.len());
        self.for_each_range((target, indices), ranges, |_, (chunk, idx)| {
            for (slot, &src) in chunk.iter_mut().zip(idx.iter()) {
                *slot = source[src];
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_range_exactly() {
        let layout = ClusterLayout::new(8);
        for n in [0usize, 1, 7, 8, 9, 64, 1000, 4096] {
            let mut covered = 0usize;
            for (s, e) in layout.chunks(n) {
                assert_eq!(s, covered);
                covered = e;
            }
            assert_eq!(covered, n, "n={n}");
        }
    }

    #[test]
    fn chunks_iterator_is_lazy_and_allocation_free() {
        // The iterator yields at most `workers` chunks without collecting.
        let layout = ClusterLayout::GAP9;
        assert_eq!(layout.chunks(4096).count(), 8);
        assert_eq!(layout.chunks(3).count(), 3);
        assert_eq!(layout.chunks(0).count(), 0);
        let first = layout.chunks(4096).next().unwrap();
        assert_eq!(first, (0, 512));
    }

    #[test]
    fn single_and_multi_worker_for_each_produce_identical_results() {
        let base: Vec<u64> = (0..1000).collect();
        let work = |start: usize, slice: &mut [u64]| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (*v).wrapping_mul(31).wrapping_add((start + i) as u64);
            }
        };
        let mut sequential = base.clone();
        ClusterLayout::SINGLE.for_each_split(sequential.as_mut_slice(), work);
        let mut parallel = base;
        ClusterLayout::GAP9.for_each_split(parallel.as_mut_slice(), work);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn pool_matches_the_serial_reference_on_every_entry_point() {
        // Same inputs through the pool and the serial reference
        // (`ClusterLayout::SINGLE`, which runs `work` inline): the outputs
        // must be identical element for element.
        let base: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let mutate = |start: usize, slice: &mut [u64]| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (*v).rotate_left(((start + i) % 63) as u32);
            }
        };
        let mut pooled = base.clone();
        ClusterLayout::GAP9.for_each_split(pooled.as_mut_slice(), mutate);
        let mut serial = base.clone();
        ClusterLayout::SINGLE.for_each_split(serial.as_mut_slice(), mutate);
        assert_eq!(pooled, serial);

        let indices: Vec<usize> = (0..base.len()).map(|i| (i * 7) % base.len()).collect();
        let ranges = [(0usize, 100usize), (100, 100), (100, 350), (350, 500)];
        let mut pooled_scatter = vec![0u64; base.len()];
        ClusterLayout::new(4).scatter_resample(&base, &mut pooled_scatter, &indices, &ranges);
        let mut serial_scatter = vec![0u64; base.len()];
        ClusterLayout::SINGLE.scatter_resample(&base, &mut serial_scatter, &indices, &ranges);
        assert_eq!(pooled_scatter, serial_scatter);
    }

    #[test]
    fn paired_collections_split_together() {
        let values: Vec<u32> = (0..64).collect();
        let mut doubled = vec![0u32; 64];
        ClusterLayout::new(4).for_each_split(
            (doubled.as_mut_slice(), values.as_slice()),
            |_, (out, input)| {
                for (o, &v) in out.iter_mut().zip(input.iter()) {
                    *o = v * 2;
                }
            },
        );
        assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn for_each_range_respects_uneven_ranges() {
        let mut out = vec![0usize; 20];
        let ranges = [(0usize, 3usize), (3, 3), (3, 17), (17, 20)];
        ClusterLayout::new(4).for_each_range(out.as_mut_slice(), &ranges, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = start + i;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn for_each_range_rejects_gaps() {
        let mut out = vec![0u8; 8];
        ClusterLayout::new(2).for_each_range(out.as_mut_slice(), &[(0, 3), (4, 8)], |_, _| {});
    }

    #[test]
    fn scatter_resample_matches_sequential_gather() {
        let source: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let indices: Vec<usize> = (0..64).map(|i| (i * 7) % 64).collect();
        let ranges = vec![(0usize, 16usize), (16, 32), (32, 48), (48, 64)];
        let mut sequential = vec![0u32; 64];
        ClusterLayout::SINGLE.scatter_resample(&source, &mut sequential, &indices, &ranges);
        let mut parallel = vec![0u32; 64];
        ClusterLayout::new(4).scatter_resample(&source, &mut parallel, &indices, &ranges);
        assert_eq!(sequential, parallel);
        for (i, &v) in sequential.iter().enumerate() {
            assert_eq!(v, source[indices[i]]);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut empty: Vec<u8> = vec![];
        ClusterLayout::GAP9
            .for_each_split(empty.as_mut_slice(), |_, _| panic!("must not be called"));
    }

    #[test]
    fn more_workers_than_items_still_covers_everything() {
        // 8-worker layout, 3 items: one chunk per item, nothing dropped.
        let mut items = vec![0usize; 3];
        ClusterLayout::GAP9.for_each_split(items.as_mut_slice(), |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = start + i + 100;
            }
        });
        assert_eq!(items, vec![100, 101, 102]);
    }

    #[test]
    fn zero_length_ranges_are_skipped_but_tiled() {
        // A plan where several workers drew nothing: zero-length ranges must
        // not invoke `work` yet still satisfy the tiling contract.
        let mut out = vec![0usize; 10];
        let ranges = [(0usize, 0usize), (0, 0), (0, 10), (10, 10)];
        ClusterLayout::GAP9.for_each_range(out.as_mut_slice(), &ranges, |start, chunk| {
            assert!(!chunk.is_empty(), "empty ranges must be skipped");
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = start + i + 1;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_asserts_in_debug_builds() {
        ClusterLayout::new(0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_workers_clamps_to_one_in_release_builds() {
        let layout = ClusterLayout::new(0);
        assert_eq!(layout.workers(), 1);
        let mut items = vec![0u8; 4];
        layout.for_each_split(items.as_mut_slice(), |_, chunk| {
            for v in chunk.iter_mut() {
                *v = 1;
            }
        });
        assert_eq!(items, vec![1; 4]);
    }
}
