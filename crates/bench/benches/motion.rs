//! Host micro-benchmark of the motion (prediction) step: the SoA
//! [`mcl_core::kernel::motion_predict`] kernel on 1 and 8 workers (the
//! 8-worker leg dispatches on the persistent worker pool), plus the three
//! kernel backends on one full-population call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::kernel;
use mcl_core::{ClusterLayout, KernelBackend, MotionDelta, MotionModel, Particle, ParticleBuffer};
use mcl_gridmap::Pose2;

fn particles(n: usize) -> Vec<Particle<f32>> {
    (0..n)
        .map(|i| Particle::from_pose(&Pose2::new(i as f32 * 0.001, 0.5, 0.1), 1.0 / n as f32))
        .collect()
}

fn bench_motion(c: &mut Criterion) {
    let model = MotionModel::new([0.1, 0.1, 0.1]);
    let delta = MotionDelta::new(0.1, 0.02, 0.05);

    let mut kernel_group = c.benchmark_group("motion_kernel");
    kernel_group.sample_size(20);
    for &n in &[4096usize, 16_384] {
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        for workers in [1usize, 8] {
            let cluster = ClusterLayout::new(workers);
            kernel_group.bench_with_input(
                BenchmarkId::new(format!("soa_kernel_{workers}w"), n),
                &soa,
                |b, soa| {
                    b.iter_batched(
                        || soa.clone(),
                        |mut batch| {
                            cluster.for_each_split(batch.as_mut_slice(), |start, chunk| {
                                kernel::motion_predict(chunk, &model, &delta, 7, 3, start as u64);
                            });
                            batch
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    kernel_group.finish();

    // The three kernel backends on one full-population invocation. Scalar
    // and lanes both run the per-particle body (prediction has no lane
    // body); avx2 runs the Box–Muller pairs, the yaw sin_cos, the
    // composition and the wrap 8 wide and should show the win.
    let mut backend_group = c.benchmark_group("motion_backend");
    backend_group.sample_size(30);
    {
        let n = 4096usize;
        let soa: ParticleBuffer<f32> = particles(n).into_iter().collect();
        backend_group.bench_with_input(BenchmarkId::new("scalar", n), &soa, |b, soa| {
            b.iter_batched(
                || soa.clone(),
                |mut batch| {
                    kernel::motion_predict(batch.as_mut_slice(), &model, &delta, 7, 3, 0);
                    batch
                },
                criterion::BatchSize::LargeInput,
            )
        });
        backend_group.bench_with_input(BenchmarkId::new("lanes", n), &soa, |b, soa| {
            b.iter_batched(
                || soa.clone(),
                |mut batch| {
                    kernel::motion_predict_with(
                        KernelBackend::Lanes,
                        batch.as_mut_slice(),
                        &model,
                        &delta,
                        7,
                        3,
                        0,
                    );
                    batch
                },
                criterion::BatchSize::LargeInput,
            )
        });
        // Skipped (visibly) when the host cannot run the intrinsics: the
        // avx2 entry would time the scalar fallback under the avx2 label.
        if KernelBackend::Avx2.is_available() {
            backend_group.bench_with_input(BenchmarkId::new("avx2", n), &soa, |b, soa| {
                b.iter_batched(
                    || soa.clone(),
                    |mut batch| {
                        kernel::motion_predict_avx2(batch.as_mut_slice(), &model, &delta, 7, 3, 0);
                        batch
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        } else {
            eprintln!("motion_backend: host lacks AVX2 — skipping the avx2 entry");
        }
    }
    backend_group.finish();
}

criterion_group!(benches, bench_motion);
criterion_main!(benches);
