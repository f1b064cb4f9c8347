//! Host micro-benchmark of the pose-computation step (weighted average with a
//! circular mean over the yaw): the seed's array-of-structs
//! `PoseEstimate::from_particles` vs. the fixed-block SoA reduction kernel
//! ([`mcl_core::kernel::pose_estimate`]) on 1 and 8 workers, plus the
//! `pose_dispatch` group running the fixed-block
//! [`PosePartials`](mcl_core::kernel::PosePartials) reduction on the
//! persistent pool at one and at eight workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::kernel;
use mcl_core::{ClusterLayout, Particle, ParticleBuffer, PoseEstimate};
use mcl_gridmap::Pose2;
use mcl_num::F16;

fn particles(n: usize) -> Vec<Particle<f32>> {
    (0..n)
        .map(|i| {
            Particle::from_pose(
                &Pose2::new(
                    (i % 80) as f32 * 0.05,
                    (i / 80) as f32 * 0.05,
                    i as f32 * 0.01,
                ),
                1.0 / n as f32,
            )
        })
        .collect()
}

fn bench_pose(c: &mut Criterion) {
    let mut group = c.benchmark_group("pose_computation");
    group.sample_size(20);
    for &n in &[64usize, 1024, 4096, 16_384] {
        let fp32 = particles(n);
        let fp16: Vec<Particle<F16>> = fp32
            .iter()
            .map(|p| Particle::from_pose(&p.pose(), p.weight_f32()))
            .collect();
        group.bench_with_input(BenchmarkId::new("fp32", n), &fp32, |b, particles| {
            b.iter(|| PoseEstimate::from_particles(particles))
        });
        group.bench_with_input(BenchmarkId::new("fp16", n), &fp16, |b, particles| {
            b.iter(|| PoseEstimate::from_particles(particles))
        });
    }
    group.finish();

    let mut kernel_group = c.benchmark_group("pose_kernel");
    kernel_group.sample_size(20);
    for &n in &[4096usize, 16_384] {
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("soa_blocks_{workers}w"), n),
                &soa,
                |b, soa| b.iter(|| kernel::pose_estimate(soa, &cluster)),
            );
        }
    }
    kernel_group.finish();

    // Scalar vs lane-batched accumulation bodies on the sequential fixed-block
    // reduction (identical block boundaries and f64 fold order — the backends
    // are bit-identical; the lanes body vectorizes the widening and products).
    let mut backend_group = c.benchmark_group("pose_backend");
    backend_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        for backend in mcl_core::KernelBackend::ALL {
            backend_group.bench_with_input(BenchmarkId::new(backend.name(), n), &soa, |b, soa| {
                b.iter(|| kernel::pose_estimate_with(soa, &ClusterLayout::SINGLE, backend))
            });
        }
    }
    backend_group.finish();

    // Pool dispatch of the pose reduction: the same fixed 256-particle blocks
    // folded in order, inline at one worker and distributed over the
    // persistent pool at eight.
    let mut dispatch_group = c.benchmark_group("pose_dispatch");
    dispatch_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        let view = soa.as_slice();
        let slice_of = |start: usize, end: usize| {
            let (_, tail) = view.split_at(start);
            let (mid, _) = tail.split_at(end - start);
            mid
        };
        let fold = |partials: Vec<kernel::PosePartials>| {
            let mut total = kernel::PosePartials::default();
            for partial in &partials {
                total.merge(partial);
            }
            total.mean(0.0)
        };
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            dispatch_group.bench_function(BenchmarkId::new(format!("pool_{workers}w"), n), |b| {
                b.iter(|| {
                    fold(
                        cluster.map_index_blocks(n, kernel::POSE_REDUCTION_BLOCK, |start, end| {
                            kernel::PosePartials::accumulate(slice_of(start, end))
                        }),
                    )
                })
            });
        }
    }
    dispatch_group.finish();
}

criterion_group!(benches, bench_pose);
criterion_main!(benches);
