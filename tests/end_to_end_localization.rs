//! Integration tests spanning the whole workspace: map → sensors → filter →
//! metrics → platform pipeline, driven exactly like the examples and the
//! experiment binaries.

use tof_mcl::core::precision::PipelineConfig;
use tof_mcl::core::{MclConfig, MonteCarloLocalization};
use tof_mcl::platform::{OnboardPipeline, PipelineConfig as OnboardConfig};
use tof_mcl::sensor::{ObservationBatch, SensorRig};
use tof_mcl::sim::{PaperScenario, RunnerConfig};

#[test]
fn quick_scenario_end_to_end_with_the_recommended_configuration() {
    let scenario = PaperScenario::with_settings(100, 1, 30.0);
    let sequence = &scenario.sequences()[0];
    let result = scenario.evaluate(sequence, PipelineConfig::FP16_QM, 4096, 1);
    assert_eq!(result.steps, sequence.len());
    assert!(
        result.converged,
        "the recommended configuration must converge on a 30 s flight: {result:?}"
    );
    assert!(
        result.ate_m.unwrap() < 0.5,
        "ATE implausibly high: {:?}",
        result.ate_m
    );
}

#[test]
fn quantized_map_matches_full_precision_accuracy() {
    let scenario = PaperScenario::with_settings(101, 1, 40.0);
    let sequence = &scenario.sequences()[0];
    // The paper's claim (ii): quantization and half precision do not cause a
    // significant accuracy drop. Aggregate a few seeds so the comparison does
    // not hinge on a single global-localization run.
    let mut fp32_ate = Vec::new();
    let mut fp16qm_ate = Vec::new();
    for seed in 1..=3 {
        if let Some(a) = scenario
            .evaluate(sequence, PipelineConfig::FP32, 4096, seed)
            .ate_m
        {
            fp32_ate.push(a);
        }
        if let Some(b) = scenario
            .evaluate(sequence, PipelineConfig::FP16_QM, 4096, seed)
            .ate_m
        {
            fp16qm_ate.push(b);
        }
    }
    assert!(
        !fp32_ate.is_empty() || !fp16qm_ate.is_empty(),
        "no run of either precision configuration converged"
    );
    if !fp32_ate.is_empty() && !fp16qm_ate.is_empty() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (a, b) = (mean(&fp32_ate), mean(&fp16qm_ate));
        assert!(
            (a - b).abs() < 0.25,
            "precision configurations diverge: fp32 {a:.3} m vs fp16qm {b:.3} m"
        );
    }
}

#[test]
fn sequential_and_parallel_filters_stay_bit_identical_over_a_flight() {
    let scenario = PaperScenario::with_settings(102, 1, 15.0);
    let sequence = &scenario.sequences()[0];
    let mut sequential = MonteCarloLocalization::<f32, _>::new(
        MclConfig::default()
            .with_particles(1024)
            .with_workers(1)
            .with_seed(9),
        scenario.edt_fp32().clone(),
    )
    .unwrap();
    let mut parallel = MonteCarloLocalization::<f32, _>::new(
        MclConfig::default()
            .with_particles(1024)
            .with_workers(8)
            .with_seed(9),
        scenario.edt_fp32().clone(),
    )
    .unwrap();
    sequential.initialize_uniform(scenario.map(), 5).unwrap();
    parallel.initialize_uniform(scenario.map(), 5).unwrap();

    for step in &sequence.steps {
        sequential.predict(step.odometry);
        parallel.predict(step.odometry);
        let beams = SensorRig::frames_to_beams(&step.frames);
        let obs = ObservationBatch::from_beams(&beams);
        let _ = sequential.update_observations(&obs).unwrap();
        let _ = parallel.update_observations(&obs).unwrap();
    }
    assert_eq!(
        sequential.particles().current(),
        parallel.particles().current(),
        "worker count must not change the filter output"
    );
    let (a, b) = (sequential.estimate(), parallel.estimate());
    assert_eq!(
        a.pose.x.to_bits(),
        b.pose.x.to_bits(),
        "worker count must not change the pose estimate"
    );
    assert_eq!(a.pose.theta.to_bits(), b.pose.theta.to_bits());
}

#[test]
fn runner_and_scenario_agree_on_the_metrics() {
    // Driving the filter manually through the runner must give the same result
    // as the scenario's evaluate() convenience wrapper.
    let scenario = PaperScenario::with_settings(103, 1, 15.0);
    let sequence = &scenario.sequences()[0];
    let via_scenario = scenario.evaluate(sequence, PipelineConfig::FP32, 512, 4);

    let mut filter = MonteCarloLocalization::<f32, _>::new(
        scenario.mcl_config(512, 4),
        scenario.edt_fp32().clone(),
    )
    .unwrap();
    filter.initialize_uniform(scenario.map(), 4).unwrap();
    let via_runner = tof_mcl::sim::run_sequence(&mut filter, sequence, &RunnerConfig::default());
    assert_eq!(via_scenario, via_runner);
}

#[test]
fn onboard_pipeline_meets_realtime_and_publishes_a_log() {
    let scenario = PaperScenario::with_settings(104, 1, 15.0);
    let mut pipeline = OnboardPipeline::new(
        OnboardConfig {
            particles: 4096,
            seed: 2,
            ..OnboardConfig::default()
        },
        &scenario,
    )
    .unwrap();
    let report = pipeline.fly(&scenario.sequences()[0]);
    assert_eq!(report.steps, scenario.sequences()[0].len());
    assert_eq!(report.missed_deadlines, 0);
    assert!(report.updates_applied > 0);
    assert_eq!(report.log.len(), report.steps);
    // The power share matches the paper's ~7 % narrative.
    assert!(report.power_share_percent < 8.0);
    // The CSV export contains one line per step plus the header.
    assert_eq!(report.log.to_csv().trim().lines().count(), report.steps + 1);
}

#[test]
fn single_sensor_configuration_is_never_better_than_two_sensors() {
    // Aggregated over a couple of seeds, the two-sensor configuration must be at
    // least as successful as the single-sensor one (claim (i) of the paper).
    //
    // World 101: two sensors localize on all three seeds and one sensor on
    // none, under both the libm-era random stream and the current one. The
    // earlier world 105 was degenerate — two sensors failed on all of seeds
    // 1..=8 and the single-sensor leg succeeded on one of them by luck —
    // so it passed as 0 ≥ 0 and flipped when the motion noise moved to
    // paired Box–Muller draws. The new normals pass the moment and KS tests
    // in `mcl_core::rng`.
    let scenario = PaperScenario::with_settings(101, 1, 30.0);
    let sequence = &scenario.sequences()[0];
    let mut two = tof_mcl::sim::ResultAggregator::new();
    let mut one = tof_mcl::sim::ResultAggregator::new();
    for seed in 1..=3 {
        two.push(scenario.evaluate(sequence, PipelineConfig::FP32, 2048, seed));
        one.push(scenario.evaluate(sequence, PipelineConfig::FP32_1TOF, 2048, seed));
    }
    assert!(two.success_rate_percent() >= one.success_rate_percent());
}
