//! The filter's per-update path must not touch the heap once its buffers
//! are warm. A counting global allocator checks that on the calling thread:
//! for the resampling plan alone, and for a whole single-worker filter
//! update (fixed and adaptive, fp32 and fp16, every backend).

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tof_mcl::core::{
    AdaptiveConfig, KernelBackend, MclConfig, MonteCarloLocalization, MotionDelta,
    PartialSumResampler, ResamplePlan,
};
use tof_mcl::gridmap::{DistanceField, EuclideanDistanceField, MapBuilder, Pose2};
use tof_mcl::num::{Scalar, F16};
use tof_mcl::sensor::{AnchorRange, ObservationBatch, SensorConfig, SensorRig};

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

/// Heap allocations of the warm updates of one single-worker filter: a
/// corridor flight with ToF beams and two UWB anchors (one denied), whose
/// first `WARM_UP` updates fill every buffer; the next `MEASURED` updates
/// are counted. Observations are built outside the counted window.
fn warm_update_allocations<S: Scalar, D: DistanceField>(
    backend: KernelBackend,
    field: D,
    adaptive: AdaptiveConfig,
) -> usize {
    const WARM_UP: usize = 6;
    const MEASURED: usize = 10;
    let map = MapBuilder::new(4.0, 1.6, 0.05)
        .border_walls()
        .filled_rect((2.4, 0.6), (2.6, 1.0))
        .build();
    let config = MclConfig::default()
        .with_particles(300)
        .with_seed(5)
        .with_workers(1)
        .with_kernel_backend(backend)
        .with_adaptive(adaptive);
    let mut filter = MonteCarloLocalization::<S, _>::new(config, field).unwrap();
    let mut truth = Pose2::new(0.5, 0.6, 0.1);
    filter.initialize_gaussian(&truth, 0.15, 0.2, 7).unwrap();
    let rig = SensorRig::front_and_rear(SensorConfig::default().with_range_noise(0.01));
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut counted = 0;
    for step in 0..WARM_UP + MEASURED {
        // Back and forth along the corridor, so the flight stays inside it.
        let forward = if (step / 6) % 2 == 0 { 0.13 } else { -0.13 };
        let next = truth.compose(&Pose2::new(forward, 0.0, 0.02));
        let delta = MotionDelta::between(&truth, &next);
        truth = next;
        let beams = rig.observe(&map, &truth, step as f64 / 15.0, &mut rng);
        let mut observations = ObservationBatch::from_beams(&beams);
        let range = ((truth.x - 0.2).powi(2) + (truth.y - 0.2).powi(2)).sqrt();
        observations.push_anchor(AnchorRange::new(0.2, 0.2, range));
        observations.push_anchor(AnchorRange::new(3.8, 1.4, f32::NAN));
        let before = allocations();
        filter.predict(delta);
        let outcome = filter.update_observations(&observations).unwrap();
        assert!(outcome.is_applied(), "a 0.13 m step opens the gate");
        if step >= WARM_UP {
            counted += allocations() - before;
        }
    }
    counted
}

#[test]
fn a_warm_single_worker_update_allocates_nothing() {
    let map = MapBuilder::new(4.0, 1.6, 0.05)
        .border_walls()
        .filled_rect((2.4, 0.6), (2.6, 1.0))
        .build();
    let edt = EuclideanDistanceField::compute(&map, 1.5);
    let adaptive = AdaptiveConfig::enabled().with_population_range(64, 400);
    for backend in KernelBackend::ALL {
        for (mode, adaptive) in [("fixed", AdaptiveConfig::default()), ("adaptive", adaptive)] {
            let counts = [
                (
                    "fp32",
                    warm_update_allocations::<f32, _>(backend, edt.clone(), adaptive),
                ),
                (
                    "fp16qm",
                    warm_update_allocations::<F16, _>(backend, edt.quantize(), adaptive),
                ),
            ];
            for (precision, count) in counts {
                assert_eq!(
                    count, 0,
                    "{backend:?} {mode} {precision}: warm updates allocated"
                );
            }
        }
    }
}
