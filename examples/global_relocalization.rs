//! Global re-localization and kidnapped-robot recovery (the paper's Fig. 1
//! scenario, driven by the scenario suite).
//!
//! The suite's `paper-kidnap` scenario initializes the filter uniformly over
//! the *whole* 31.2 m² map — including the three artificial mazes that look
//! similar to the physical one — and additionally teleports the drone halfway
//! through the flight while the recorded odometry reports no motion: the
//! kidnapped-robot problem. The example prints the estimate error over time
//! (the estimate typically starts in a wrong maze, snaps to the correct one,
//! is thrown off by the kidnap and must re-localize) and finishes with the
//! suite's recovery metrics.
//!
//! Run with `cargo run --release --example global_relocalization`.

use tof_mcl::core::{MclConfig, MonteCarloLocalization};
use tof_mcl::sensor::{ObservationBatch, SensorRig};
use tof_mcl::sim::suite::ScenarioSuite;
use tof_mcl::sim::{ConvergenceCriterion, TrajectoryErrorTracker};

fn main() {
    // The registered kidnapped-robot scenario, stretched to a 40 s flight so
    // the filter has time to converge both before and after the kidnap.
    let mut spec = ScenarioSuite::standard()
        .get("paper-kidnap")
        .expect("the suite registers the kidnapped-robot scenario")
        .clone();
    spec.num_sequences = 1;
    spec.duration_s = 40.0;
    let scenario = spec.build(7);
    let sequence = &scenario.sequences()[0];
    let kidnap_at = sequence.stress.kidnap_times_s[0];

    let mut filter = MonteCarloLocalization::<f32, _>::new(
        MclConfig::default().with_particles(4096).with_seed(3),
        scenario.edt_quantized().clone(),
    )
    .expect("valid configuration");
    filter
        .initialize_uniform(scenario.map(), 3)
        .expect("maze has free space");

    println!("Scenario '{}' with 4096 particles:", spec.name);
    println!("global localization over the full 31.2 m^2 map, then a kidnap");
    println!("(teleport with zero reported odometry) at t = {kidnap_at:.1} s\n");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "t (s)", "error (m)", "spread (m)", "in wrong half"
    );

    let mut tracker = TrajectoryErrorTracker::with_timeline(
        ConvergenceCriterion::default(),
        sequence.stress.clone(),
    );
    for (i, step) in sequence.steps.iter().enumerate() {
        filter.predict(step.odometry);
        let beams = SensorRig::frames_to_beams(&step.frames);
        let _ = filter
            .update_observations(&ObservationBatch::from_beams(&beams))
            .expect("filter is initialized");
        let estimate = filter.estimate();
        tracker.record(step.timestamp_s, &estimate, &step.ground_truth);
        let error = estimate.pose.translation_distance(&step.ground_truth);
        if i % 30 == 0 {
            // The physical maze occupies x < 4 m; an estimate beyond that is in
            // one of the artificial mazes.
            let wrong_half = estimate.pose.x > 4.0;
            println!(
                "{:>8.1} {:>12.3} {:>14.3} {:>12}",
                step.timestamp_s,
                error,
                estimate.position_std_m,
                if wrong_half { "yes" } else { "no" }
            );
        }
    }

    let result = tracker.finish();
    println!();
    match result.convergence_time_s {
        Some(t) => println!("First converged to within 0.2 m after {t:.1} s."),
        None => println!("Did not converge before the kidnap (try more particles)."),
    }
    match result.mean_recovery_time_s {
        Some(t) => println!(
            "Recovered from the kidnap in {t:.1} s ({} of {} kidnaps).",
            result.kidnaps_recovered, result.kidnaps
        ),
        None => println!(
            "Did not re-localize after the kidnap within this sequence ({} kidnap).",
            result.kidnaps
        ),
    }
}
