//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * beam-end-point likelihood vs. full ray-cast likelihood,
//! * systematic vs. multinomial resampling,
//! * EDT quantization cost at different truncation radii,
//! * the `d_xy`/`d_θ` update gate (how much compute it saves over a flight).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::{
    multinomial_resample, systematic_resample, BeamEndPointModel, MclConfig, MonteCarloLocalization,
};
use mcl_gridmap::{EuclideanDistanceField, Pose2};
use mcl_sensor::raycast_distance;
use mcl_sim::PaperScenario;

fn bench_observation_models(c: &mut Criterion) {
    let scenario = PaperScenario::quick(9);
    let sequence = &scenario.sequences()[0];
    let beams = sequence.beams(sequence.len() / 2);
    let model = BeamEndPointModel::new(0.1, 1.5);
    let pose = Pose2::new(1.5, 1.7, 0.4);

    let mut group = c.benchmark_group("ablation_observation_model");
    group.sample_size(30);
    group.bench_function("beam_end_point", |b| {
        b.iter(|| model.observation_log_likelihood(scenario.edt_fp32(), &pose, &beams))
    });
    group.bench_function("full_raycast", |b| {
        // The expensive alternative: cast a ray per beam and compare measured vs.
        // expected range (what a classic beam model would do on-line).
        b.iter(|| {
            let mut log_sum = 0.0f32;
            for beam in &beams {
                let expected = raycast_distance(
                    scenario.map(),
                    pose.position(),
                    pose.theta + beam.azimuth_body_rad,
                    4.0,
                );
                let diff = expected - beam.range_m;
                log_sum += -(diff * diff) / (2.0 * 0.1 * 0.1);
            }
            log_sum
        })
    });
    group.finish();
}

fn bench_resampling_schemes(c: &mut Criterion) {
    let n = 4096;
    let weights: Vec<f32> = (0..n)
        .map(|i| ((i as f32 * 0.11).cos().abs() + 0.01) / n as f32)
        .collect();
    let uniforms: Vec<f32> = (0..n).map(|i| (i as f32 + 0.5) / n as f32).collect();
    let mut group = c.benchmark_group("ablation_resampling");
    group.sample_size(20);
    group.bench_function("systematic", |b| {
        b.iter(|| systematic_resample(&weights, 0.4))
    });
    group.bench_function("multinomial", |b| {
        b.iter(|| multinomial_resample(&weights, &uniforms))
    });
    group.finish();
}

fn bench_quantization_levels(c: &mut Criterion) {
    let scenario = PaperScenario::quick(11);
    let map = scenario.map();
    let mut group = c.benchmark_group("ablation_quantization");
    group.sample_size(10);
    for &rmax in &[1.0f32, 1.5, 3.0] {
        group.bench_with_input(BenchmarkId::from_parameter(rmax), &rmax, |b, &rmax| {
            b.iter(|| EuclideanDistanceField::compute(map, rmax).quantize())
        });
    }
    group.finish();
}

fn bench_update_gating(c: &mut Criterion) {
    // How much work the d_xy / d_theta gate saves over a short flight.
    let scenario = PaperScenario::quick(12);
    let sequence = &scenario.sequences()[0];
    let mut group = c.benchmark_group("ablation_gating");
    group.sample_size(10);
    for (name, d_xy, d_theta) in [("gated_paper", 0.1f32, 0.1f32), ("ungated", 1e-6, 1e-6)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut config = MclConfig::default().with_particles(512);
                config.d_xy = d_xy;
                config.d_theta = d_theta;
                let mut filter =
                    MonteCarloLocalization::<f32, _>::new(config, scenario.edt_quantized().clone())
                        .unwrap();
                filter.initialize_uniform(scenario.map(), 1).unwrap();
                for step in &sequence.steps {
                    filter.predict(step.odometry);
                    let beams = mcl_sensor::SensorRig::frames_to_beams(&step.frames);
                    let obs = mcl_sensor::ObservationBatch::from_beams(&beams);
                    let _ = filter.update_observations(&obs).unwrap();
                }
                filter.counters().updates_applied
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_observation_models,
    bench_resampling_schemes,
    bench_quantization_levels,
    bench_update_gating
);
criterion_main!(benches);
