//! Regression pin for the adaptive filter's known global-init tail.
//!
//! The adaptive leg trails the fixed baseline on paper-world *global*
//! initialization. The cause is open. Likelihood tempering is not it on the
//! pinned instance: only 2 of its 181 applied updates temper, and with
//! tempering switched off (the temper stage never annealing) the adaptive
//! ATE gets worse, 0.300 m instead of 0.229 m. This test
//! captures the trailing behaviour so a change that fixes (or moves) it is
//! noticed.

use tof_mcl::core::precision::PipelineConfig;
use tof_mcl::core::MonteCarloLocalization;
use tof_mcl::sim::{run_sequence, PaperScenario, RunnerConfig};

const PARTICLES: usize = 2048;
const FLIGHT_S: f32 = 30.0;

/// Captures the adaptive-population tail on a reproducible instance (paper
/// world 125, filter seed 7): the adaptive leg finishes with about 2.5× the
/// fixed baseline's ATE (0.229 m vs 0.091 m). Measured on this instance:
/// the filter applies 181 updates and tempers 2 of them
/// (`FilterCounters::updates_tempered`), and never tempering raises the
/// adaptive ATE to 0.300 m, so tempering does not explain the gap. Which
/// part of the adaptive policy does is not known yet.
///
/// Every run here is bit-deterministic (counter-based RNG, schedule- and
/// backend-independent kernels), so the threshold is an exact replay pin,
/// not a statistical hope.
///
/// A global-init flight is chaotic: a change that moves any particle's
/// random stream, or the solved `β` by ~10⁻⁴ relative, re-routes it. When
/// this pin fails after such a change, sweep worlds and seeds for an
/// instance that still shows the tail before concluding the tail is gone.
#[test]
fn adaptive_trails_fixed_on_paper_world_global_init() {
    let scenario = PaperScenario::with_settings(125, 1, FLIGHT_S);
    let sequence = &scenario.sequences()[0];
    let seed = 7;

    let fixed = scenario.evaluate(sequence, PipelineConfig::FP32, PARTICLES, seed);
    let config = scenario
        .mcl_config(PARTICLES, seed)
        .with_adaptive(PaperScenario::adaptive_config(PARTICLES));
    let mut filter =
        MonteCarloLocalization::<f32, _>::new(config, scenario.edt_fp32().clone()).unwrap();
    filter.initialize_uniform(scenario.map(), seed).unwrap();
    let adaptive = run_sequence(&mut filter, sequence, &RunnerConfig::default());

    // The adaptive leg converges but tracks visibly worse than fixed.
    let fixed_ate = fixed.ate_m.expect("fixed baseline converges on this seed");
    let adaptive_ate = adaptive.ate_m.expect("adaptive converges");
    assert!(
        adaptive_ate > 2.0 * fixed_ate,
        "the global-init tail disappeared: adaptive ATE {adaptive_ate:.3} m \
         no longer trails fixed {fixed_ate:.3} m — update this pin"
    );
}
