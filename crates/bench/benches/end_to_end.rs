//! End-to-end benchmark: one full MCL update (all four steps) for the paper's
//! particle counts, sequentially and with the 8-worker host backend, for the
//! fp32 and fp16qm configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::{MclConfig, MonteCarloLocalization};
use mcl_num::F16;
use mcl_sensor::ObservationBatch;
use mcl_sim::PaperScenario;

fn bench_end_to_end(c: &mut Criterion) {
    let scenario = PaperScenario::quick(5);
    let sequence = &scenario.sequences()[0];
    let beams = sequence.beams(sequence.len() / 2);

    let mut group = c.benchmark_group("full_update");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        for &workers in &[1usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("fp32_{workers}core"), n),
                &n,
                |b, &n| {
                    let mut filter = MonteCarloLocalization::<f32, _>::new(
                        MclConfig::default().with_particles(n).with_workers(workers),
                        scenario.edt_fp32().clone(),
                    )
                    .unwrap();
                    filter.initialize_uniform(scenario.map(), 1).unwrap();
                    b.iter(|| {
                        // Flattening in the timed region, like the on-board
                        // pipeline that rebuilds the batch every frame.
                        let obs = ObservationBatch::from_beams(&beams);
                        filter.force_update_observations(&obs)
                    })
                },
            );
        }
        // Prebuilt ObservationBatch: what the sequence runner does — the
        // per-update beam flattening drops out of the timed region entirely.
        group.bench_with_input(BenchmarkId::new("fp32_8core_batched", n), &n, |b, &n| {
            let mut filter = MonteCarloLocalization::<f32, _>::new(
                MclConfig::default().with_particles(n).with_workers(8),
                scenario.edt_fp32().clone(),
            )
            .unwrap();
            filter.initialize_uniform(scenario.map(), 1).unwrap();
            let obs = ObservationBatch::from_beams(&beams);
            b.iter(|| filter.force_update_observations(&obs))
        });
        group.bench_with_input(BenchmarkId::new("fp16qm_1core", n), &n, |b, &n| {
            let mut filter = MonteCarloLocalization::<F16, _>::new(
                MclConfig::default().with_particles(n),
                scenario.edt_quantized().clone(),
            )
            .unwrap();
            filter.initialize_uniform(scenario.map(), 1).unwrap();
            b.iter(|| {
                let obs = ObservationBatch::from_beams(&beams);
                filter.force_update_observations(&obs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
