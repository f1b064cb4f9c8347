//! Regression harness for the adaptive tempering floor
//! (`AdaptiveConfig::temper_beta_floor`).
//!
//! The known tail from the adaptive-population PR: the adaptive leg trails
//! the fixed baseline on paper-world *global* initialization. The cause is
//! wrong-mode commitment under unbounded likelihood tempering — while many
//! aliased hypotheses are live every update ESS-crashes, the solved annealing
//! exponent `β` lands deep below 1, and so little evidence flows per update
//! that the motion noise thins the cloud before the sensor can separate the
//! modes. The β floor bounds how much of each observation tempering may
//! discard; these tests capture the trailing behaviour and pin that the floor
//! recovers it without disturbing anything else.

use tof_mcl::core::precision::PipelineConfig;
use tof_mcl::core::{AdaptiveConfig, MonteCarloLocalization};
use tof_mcl::sim::{run_sequence, PaperScenario, RunnerConfig, Sequence, SequenceResult};

const PARTICLES: usize = 2048;
const FLIGHT_S: f32 = 30.0;

/// Runs one global-init flight with an explicit adaptive configuration,
/// through the same runner loop `PaperScenario::evaluate` uses.
fn run_adaptive(
    scenario: &PaperScenario,
    sequence: &Sequence,
    seed: u64,
    adaptive: AdaptiveConfig,
) -> SequenceResult {
    let config = scenario.mcl_config(PARTICLES, seed).with_adaptive(adaptive);
    let mut filter =
        MonteCarloLocalization::<f32, _>::new(config, scenario.edt_fp32().clone()).unwrap();
    filter.initialize_uniform(scenario.map(), seed).unwrap();
    run_sequence(&mut filter, sequence, &RunnerConfig::default())
}

/// The suite's adaptive configuration for this particle count, with the
/// requested tempering floor.
fn floored(floor: f32) -> AdaptiveConfig {
    PaperScenario::adaptive_config(PARTICLES).with_temper_beta_floor(floor)
}

/// Captures the adaptive-population tail on a reproducible instance (paper world 125,
/// filter seed 7): the unfloored adaptive leg commits to a wrong mode and
/// finishes with about 2.5× the fixed baseline's ATE (0.229 m vs 0.091 m),
/// while a β floor of 0.5 restores parity with fixed on the same flight
/// (0.102 m). Every run here is bit-deterministic (counter-based RNG,
/// schedule- and backend-independent kernels), so the thresholds are exact
/// replay pins, not statistical hopes.
///
/// The instance has been re-chosen twice, each time with
/// `explore_floor_sweep`. The first move (from world 100, seed 4, to world
/// 118, seed 7) followed the motion noise onto paired Box–Muller draws on
/// the owned `ln`/`sin_cos`: every particle's random stream changed, and
/// the old instance trailed fixed by only 1.6×. The second move followed
/// the tempering solve from 40-step bisection to a bracketed Newton solve
/// that stops within 10⁻⁴ of the ESS target: the solved `β` moved by up to
/// ~10⁻⁴ relative, enough to re-route a chaotic global-init flight, and on
/// world 118, seed 7 the unfloored leg no longer converged at all. The
/// tail moved with the trajectories, not with the floor's effect.
#[test]
fn beta_floor_recovers_the_wrong_mode_commitment_on_global_init() {
    let scenario = PaperScenario::with_settings(125, 1, FLIGHT_S);
    let sequence = &scenario.sequences()[0];
    let seed = 7;

    let fixed = scenario.evaluate(sequence, PipelineConfig::FP32, PARTICLES, seed);
    let unfloored = run_adaptive(&scenario, sequence, seed, floored(0.0));
    let with_floor = run_adaptive(&scenario, sequence, seed, floored(0.5));

    // Current (default) behaviour, kept as the regression pin: the adaptive
    // leg trails fixed on this global init — it converges (onto the wrong
    // mode, early) but tracks visibly worse for the rest of the flight.
    let fixed_ate = fixed.ate_m.expect("fixed baseline converges on this seed");
    let unfloored_ate = unfloored.ate_m.expect("unfloored adaptive converges");
    assert!(
        unfloored_ate > 2.0 * fixed_ate,
        "the PR 8 tail disappeared: unfloored adaptive ATE {unfloored_ate:.3} m \
         no longer trails fixed {fixed_ate:.3} m — update this pin (and consider \
         whether temper_beta_floor is still needed)"
    );

    // The tweak: a β floor of 0.5 keeps enough evidence flowing per update
    // that the true mode survives global init, restoring fixed-level ATE.
    let floored_ate = with_floor.ate_m.expect("floored adaptive converges");
    assert!(
        floored_ate < 1.3 * fixed_ate,
        "temper_beta_floor=0.5 no longer recovers the wrong-mode commitment: \
         ATE {floored_ate:.3} m vs fixed {fixed_ate:.3} m"
    );
    assert!(
        floored_ate < 0.5 * unfloored_ate,
        "the floor stopped helping: {floored_ate:.3} m vs unfloored {unfloored_ate:.3} m"
    );
}

/// The gate that protects the existing `BENCH_scenarios.json` wins: the
/// floor defaults to 0 (annealing unchanged bit-for-bit), and a mild floor
/// below the solved β range never binds — the whole flight replays
/// bit-identically, metrics included.
#[test]
fn default_keeps_tempering_unchanged_and_non_binding_floors_are_bit_identical() {
    assert_eq!(AdaptiveConfig::default().temper_beta_floor, 0.0);
    assert_eq!(
        PaperScenario::adaptive_config(PARTICLES).temper_beta_floor,
        0.0
    );

    let scenario = PaperScenario::with_settings(100, 1, FLIGHT_S);
    let sequence = &scenario.sequences()[0];
    // On the paper world the solved β on tempered updates stays above ~0.4,
    // so a 0.35 floor exists but never clamps: the run must be bit-identical
    // to the unfloored one (equal SequenceResult, ATE bits included).
    let unfloored = run_adaptive(&scenario, sequence, 2, floored(0.0));
    let mild = run_adaptive(&scenario, sequence, 2, floored(0.35));
    assert_eq!(
        unfloored, mild,
        "a non-binding floor must not perturb the flight"
    );
}

#[test]
#[ignore = "exploration harness: sweeps floors x seeds and prints the table"]
fn explore_floor_sweep() {
    for world_seed in [100u64, 118, 125, 200] {
        let scenario = PaperScenario::with_settings(world_seed, 1, FLIGHT_S);
        let sequence = &scenario.sequences()[0];
        for seed in 1..=8u64 {
            let fixed = scenario.evaluate(sequence, PipelineConfig::FP32, PARTICLES, seed);
            print!(
                "world {world_seed} seed {seed}: fixed ate={:?} conv={:?} |",
                fixed.ate_m, fixed.convergence_time_s
            );
            for floor in [0.0f32, 0.25, 0.35, 0.5] {
                let r = run_adaptive(&scenario, sequence, seed, floored(floor));
                print!(
                    " f{floor}: ate={:?} conv={:?} mp={:.0}",
                    r.ate_m, r.convergence_time_s, r.mean_particles
                );
            }
            println!();
        }
    }
}
