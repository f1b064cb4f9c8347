//! Host micro-benchmark of the pose-computation step (weighted average with a
//! circular mean over the yaw): the seed's array-of-structs
//! `PoseEstimate::from_particles` vs. the fixed-block SoA reduction kernel
//! ([`mcl_core::kernel::pose_estimate`]), and that kernel under each backend.

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

    // The reduction runs serially on the calling thread whatever the layout,
    // so one single-worker entry per size covers it.
    let mut kernel_group = c.benchmark_group("pose_kernel");
    kernel_group.sample_size(20);
    for &n in &[4096usize, 16_384] {
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        kernel_group.bench_with_input(BenchmarkId::new("soa_blocks", n), &soa, |b, soa| {
            b.iter(|| kernel::pose_estimate(soa, &ClusterLayout::SINGLE))
        });
    }
    kernel_group.finish();

    // The backend bodies of the fixed-block, four-lane reduction (one
    // association, so the backends are bit-identical): scalar and lanes run
    // the portable lane body, avx2 its intrinsic replay.
    let mut backend_group = c.benchmark_group("pose_backend");
    backend_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        // A backend the host cannot run is skipped (visibly) rather than
        // timing its fallback body under its label.
        for backend in mcl_core::KernelBackend::ALL {
            if !backend.is_available() {
                eprintln!(
                    "pose_backend: host lacks {} — skipping its entry",
                    backend.name()
                );
                continue;
            }
            backend_group.bench_with_input(BenchmarkId::new(backend.name(), n), &soa, |b, soa| {
                b.iter(|| kernel::pose_estimate_with(soa, &ClusterLayout::SINGLE, backend))
            });
        }
    }
    backend_group.finish();
}

criterion_group!(benches, bench_pose);
criterion_main!(benches);
