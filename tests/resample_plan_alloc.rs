//! The resampling plan is on the filter's per-update path, so once its
//! `ResamplePlan` holds enough capacity it must compute without touching the
//! heap. A counting global allocator checks that on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tof_mcl::core::{KernelBackend, PartialSumResampler, ResamplePlan};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so concurrently running tests
/// do not disturb each other's counts.
struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: the counter may already be gone while a thread exits.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_plan_is_computed_without_heap_allocation() {
    let n = 4096;
    // Skewed weights over several stack blocks, some zero and some NaN.
    let weights: Vec<f32> = (0..n)
        .map(|i| match i % 97 {
            0 => f32::NAN,
            1..=3 => 0.0,
            k => ((k * 31 + i) % 1013) as f32 * 1e-3,
        })
        .collect();
    for workers in [1usize, 2, 3, 8] {
        let resampler = PartialSumResampler::new(workers);
        let mut plan = ResamplePlan {
            indices: Vec::with_capacity(2 * n),
            worker_output_ranges: Vec::with_capacity(workers),
        };
        for backend in KernelBackend::ALL {
            for (target, offset) in [(n, 0.37f32), (n / 3, 0.0), (2 * n, 0.999)] {
                let before = allocations();
                resampler.plan_resize_into(backend, &weights, offset, target, &mut plan);
                assert_eq!(
                    allocations(),
                    before,
                    "{backend:?}, workers {workers}, target {target}: the plan allocated"
                );
                assert_eq!(plan.indices.len(), target);
            }
        }
    }
}
