//! Adaptive population control: KLD-sampling and Augmented-MCL recovery.
//!
//! The paper runs a fixed-size filter sized for the GAP9 L2 budget. This
//! module implements the two standard adaptations that let the population
//! track the *uncertainty* instead:
//!
//! * **KLD-sampling** (Fox, *Adapting the sample size in particle filters
//!   through KLD-sampling*, IJRR 2003): the pose space is divided into a
//!   regular grid of bins ([`AdaptiveConfig::bin_xy_m`] ×
//!   [`AdaptiveConfig::bin_theta_rad`]); the number `k` of bins the current
//!   cloud occupies measures how complex the posterior still is, and the
//!   chi-square bound (via the Wilson–Hilferty transform, [`kld_bound`])
//!   gives the population needed to keep the KL divergence between the
//!   sampled and the true posterior below `epsilon` with probability
//!   `1 − delta`. A converged cloud occupies a handful of bins and shrinks
//!   to [`AdaptiveConfig::min_particles`]; an ambiguous (multi-hypothesis)
//!   cloud occupies hundreds and grows to [`AdaptiveConfig::max_particles`].
//! * **Recovery injection** (Augmented MCL, Thrun/Burgard/Fox, *Probabilistic
//!   Robotics* §8.3): [`LikelihoodMonitor`] tracks short- and long-term
//!   exponential averages of the mean observation likelihood. When the
//!   short-term average collapses below the long-term one — the sensor-model
//!   signature of a kidnapped robot or a diverged filter — a proportional
//!   fraction of the next generation is drawn uniformly over the map's free
//!   space instead of resampled, re-seeding hypotheses where the wheel alone
//!   would need unbounded time to recover.
//!
//! Both pieces are deterministic pure functions of the filter state, so the
//! population trajectory is bit-identical for every worker count and kernel
//! backend — the dynamic size threads through the same schedule-independent
//! chunk geometry as the fixed-size filter (see
//! [`crate::resampling::PartialSumResampler::plan_resize_into`]).

use crate::config::MclError;
use crate::kernel::ModeRefineScratch;
use crate::particle::{for_each_widened_block, ParticleSlice};
use crate::rng::CounterRng;
use mcl_num::Scalar;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Salt XORed into the filter seed for the recovery-injection RNG stream, so
/// injected poses can never collide with the motion kernel's per-particle
/// streams (which key on the unsalted seed and the same update index).
const INJECTION_STREAM_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// Configuration of the adaptive (KLD + recovery) population control.
///
/// Defaults follow the widely used AMCL parameterization for the KLD bound —
/// `ε = 0.05`, `δ = 0.01` (the 99 % chi-square quantile), 0.5 m × 30° bins —
/// but the likelihood averaging rates are retuned for the paper's short
/// (≤ 60 s, 15 Hz) flights: `α_fast = 0.5` reacts to a kidnap within a few
/// updates, and `α_slow = 0.02` (a ~3 s horizon) both anchors the long-term
/// reference to the *converged* likelihood level — the textbook 0.001 never
/// leaves the poor global-initialization level on a 300-update sequence — and
/// lets an injection episode self-terminate: injected particles drag the mean
/// likelihood down, and a slow average that tracks within ~50 updates closes
/// the feedback loop instead of injecting forever. The injection cap is 5 %
/// per generation for the same reason. Disabled by default — the fixed-size
/// filter stays bit-identical to the seed behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Master switch. When `false` every other field is ignored and the
    /// filter keeps its fixed `num_particles` population.
    pub enabled: bool,
    /// Lower population clamp (the filter never shrinks below this).
    pub min_particles: usize,
    /// Upper population clamp (the filter never grows beyond this).
    pub max_particles: usize,
    /// KLD error bound `ε` between the sampled and true posterior.
    pub epsilon: f32,
    /// KLD confidence parameter `δ`: the bound holds with probability `1−δ`.
    pub delta: f32,
    /// Side length of the square x/y occupancy bins, metres.
    pub bin_xy_m: f32,
    /// Angular bin size, radians.
    pub bin_theta_rad: f32,
    /// Short-term likelihood averaging rate `α_fast` (Augmented MCL).
    pub alpha_fast: f32,
    /// Long-term likelihood averaging rate `α_slow` (Augmented MCL).
    pub alpha_slow: f32,
    /// Cap on the fraction of one generation drawn by recovery injection,
    /// keeping the filter from discarding its whole belief in a single bad
    /// update. `0.0` disables injection entirely.
    pub max_injection_fraction: f32,
    /// ESS resampling gate: while the effective sample size stays at or above
    /// `ess_threshold × population` (and no recovery episode is running), the
    /// update skips resampling entirely — weights keep accumulating
    /// multiplicatively and every hypothesis survives. Resampling every
    /// update is what starves multi-modal beliefs: in a symmetric world the
    /// wheel kills the competing mode within a couple of seconds, long
    /// before the sensor can disambiguate. `0.0` disables the gate
    /// (resample every update, the fixed-pipeline behaviour).
    pub ess_threshold: f32,
    /// Likelihood-tempering ESS floor, as a fraction of the population. When
    /// a single observation would crash the effective sample size below
    /// `temper_ess × population`, the log-likelihoods are annealed by the
    /// exponent `β ∈ (0, 1]` that lands the post-update ESS exactly on the
    /// floor (adaptive annealing, as in sequential Monte Carlo samplers).
    /// This is the weight-degeneracy fix for sharp multi-beam models: a
    /// 128-beam product is so peaked that during global localization one
    /// aliased particle can take essentially all the mass in a single
    /// update, and the very first resample then discards the true mode
    /// forever. Tempering bounds how much of the cloud one update may kill,
    /// letting evidence accumulate over several updates instead. Must stay
    /// below [`AdaptiveConfig::ess_threshold`], otherwise every tempered
    /// update would also skip resampling and the population could never
    /// adapt. `0.0` disables tempering.
    pub temper_ess: f32,
    /// Lower clamp on the tempering exponent `β` solved by [`temper_beta`].
    ///
    /// Unbounded tempering has a failure mode during global localization on
    /// aliased worlds (the paper maze): while many look-alike hypotheses are
    /// live, *every* update ESS-crashes and gets annealed hard (`β` in the
    /// 0.05–0.2 range), so almost no evidence flows per update. The wheel's
    /// noise then thins the cloud faster than the sensor can separate the
    /// modes — the filter drifts into a commitment the observations never
    /// voted for, and the adaptive leg trails the fixed baseline exactly on
    /// global init. A floor bounds how much of an observation tempering may
    /// discard: `β = max(β_solved, floor)` keeps at least this fraction of
    /// every observation's log-evidence flowing, accepting a post-update ESS
    /// below the [`AdaptiveConfig::temper_ess`] target in exchange.
    ///
    /// `0.0` (the default) preserves the pure ESS-targeted annealing
    /// bit-for-bit; `1.0` disables tempering relief entirely. Values around
    /// `0.25–0.5` are the useful range.
    pub temper_beta_floor: f32,
    /// Dead-band on the raw Augmented-MCL fraction `1 − w_fast/w_slow`:
    /// recovery (injection and the population growth that accompanies it)
    /// fires only when the collapse exceeds this threshold. Ordinary
    /// likelihood fluctuations during a healthy flight produce small positive
    /// fractions every few seconds; without a dead-band each one would grow
    /// the population and seed random hypotheses for nothing.
    ///
    /// The monitor is fed the *per-beam* likelihood (see
    /// [`LikelihoodMonitor`]), which compresses the collapse relative to the
    /// raw multi-beam product: a kidnap that would crash the raw ratio to
    /// nearly zero moves the per-beam fraction to only ~0.1–0.15, while
    /// healthy-tracking jitter stays under ~0.04. The default dead-band of
    /// 0.06 sits between the two.
    pub injection_trigger: f32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            min_particles: 256,
            max_particles: 4096,
            epsilon: 0.05,
            delta: 0.01,
            bin_xy_m: 0.5,
            bin_theta_rad: core::f32::consts::PI / 6.0,
            alpha_fast: 0.5,
            alpha_slow: 0.02,
            max_injection_fraction: 0.05,
            ess_threshold: 0.5,
            temper_ess: 0.15,
            temper_beta_floor: 0.0,
            injection_trigger: 0.06,
        }
    }
}

impl AdaptiveConfig {
    /// The default configuration with the master switch on.
    pub fn enabled() -> Self {
        AdaptiveConfig {
            enabled: true,
            ..AdaptiveConfig::default()
        }
    }

    /// Returns a copy with different population clamps.
    pub fn with_population_range(mut self, min: usize, max: usize) -> Self {
        self.min_particles = min;
        self.max_particles = max;
        self
    }

    /// Returns a copy with a different tempering-exponent floor
    /// (see [`AdaptiveConfig::temper_beta_floor`]).
    pub fn with_temper_beta_floor(mut self, floor: f32) -> Self {
        self.temper_beta_floor = floor;
        self
    }

    /// The configuration resolved from the environment:
    /// `MCL_ADAPTIVE=1|true` flips the master switch, and
    /// `MCL_ADAPTIVE_MIN` / `MCL_ADAPTIVE_MAX` override the population
    /// clamps. Unset variables keep the defaults; unparsable values are
    /// ignored (the filter must never panic over an environment typo).
    pub fn from_env() -> Self {
        let mut config = AdaptiveConfig::default();
        if let Ok(v) = std::env::var("MCL_ADAPTIVE") {
            let v = v.trim().to_ascii_lowercase();
            config.enabled = v == "1" || v == "true" || v == "on";
        }
        if let Some(min) = std::env::var("MCL_ADAPTIVE_MIN")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            config.min_particles = min;
        }
        if let Some(max) = std::env::var("MCL_ADAPTIVE_MAX")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            config.max_particles = max;
        }
        config
    }

    /// Validates the configuration (only meaningful when `enabled`).
    ///
    /// # Errors
    ///
    /// Returns [`MclError::InvalidConfig`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), MclError> {
        if self.min_particles == 0 {
            return Err(MclError::InvalidConfig(
                "adaptive min_particles must be > 0",
            ));
        }
        if self.max_particles < self.min_particles {
            return Err(MclError::InvalidConfig(
                "adaptive max_particles must be >= min_particles",
            ));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(MclError::InvalidConfig("adaptive epsilon must be positive"));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(MclError::InvalidConfig("adaptive delta must be in (0, 1)"));
        }
        if !(self.bin_xy_m.is_finite() && self.bin_xy_m > 0.0) {
            return Err(MclError::InvalidConfig(
                "adaptive bin_xy_m must be positive",
            ));
        }
        if !(self.bin_theta_rad.is_finite() && self.bin_theta_rad > 0.0) {
            return Err(MclError::InvalidConfig(
                "adaptive bin_theta_rad must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.alpha_slow)
            || !(0.0..=1.0).contains(&self.alpha_fast)
            || self.alpha_slow >= self.alpha_fast
        {
            return Err(MclError::InvalidConfig(
                "adaptive averaging rates must satisfy 0 <= alpha_slow < alpha_fast <= 1",
            ));
        }
        if !(0.0..=1.0).contains(&self.max_injection_fraction) {
            return Err(MclError::InvalidConfig(
                "adaptive max_injection_fraction must be in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.ess_threshold) {
            return Err(MclError::InvalidConfig(
                "adaptive ess_threshold must be in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.temper_ess) {
            return Err(MclError::InvalidConfig(
                "adaptive temper_ess must be in [0, 1]",
            ));
        }
        if self.temper_ess > 0.0
            && self.ess_threshold > 0.0
            && self.temper_ess >= self.ess_threshold
        {
            return Err(MclError::InvalidConfig(
                "adaptive temper_ess must be below ess_threshold",
            ));
        }
        if !(0.0..=1.0).contains(&self.temper_beta_floor) {
            return Err(MclError::InvalidConfig(
                "adaptive temper_beta_floor must be in [0, 1]",
            ));
        }
        if !(0.0..1.0).contains(&self.injection_trigger) {
            return Err(MclError::InvalidConfig(
                "adaptive injection_trigger must be in [0, 1)",
            ));
        }
        Ok(())
    }
}

/// The `1−p` standard-normal quantile `z_p`, via the Acklam rational
/// approximation (absolute error below `1.15e-9` over `(0, 1)` — far inside
/// what the chi-square bound needs).
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// The KLD-sampling population bound for `k` occupied bins: the smallest `n`
/// such that the KL divergence between the sampled distribution and the true
/// posterior stays below `epsilon` with probability `1 − delta`, using the
/// Wilson–Hilferty approximation of the chi-square quantile:
///
/// ```text
/// n = (k−1)/(2ε) · [ 1 − 2/(9(k−1)) + √(2/(9(k−1))) · z_{1−δ} ]³
/// ```
///
/// Returns `1` for `k ≤ 1` (a single occupied bin carries no divergence).
pub fn kld_bound(k: usize, epsilon: f32, delta: f32) -> usize {
    if k <= 1 {
        return 1;
    }
    let k = k as f64;
    let z = normal_quantile(1.0 - f64::from(delta));
    let d = 2.0 / (9.0 * (k - 1.0));
    let t = 1.0 - d + d.sqrt() * z;
    let n = (k - 1.0) / (2.0 * f64::from(epsilon)) * t * t * t;
    n.ceil().max(1.0) as usize
}

/// The FxHash multiply–rotate mix, for bin keys. The keys come from the
/// filter's own particles, so SipHash's resistance to crafted collisions
/// buys nothing here and costs most of a KLD count.
#[derive(Debug, Clone, Copy, Default)]
struct BinHasher(u64);

impl Hasher for BinHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(4);
        for word in &mut words {
            self.write_u32(u32::from_le_bytes([word[0], word[1], word[2], word[3]]));
        }
        for &byte in words.remainder() {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits at the top; rotate them down to
        // the bits that pick the bucket.
        self.0.rotate_left(26)
    }
}

/// Bin-occupancy statistics over the pose-space grid, feeding [`kld_bound`].
///
/// The sampler keeps its bin set across updates: it allocates on the first
/// count and keeps its capacity across clears, so the steady-state
/// per-update cost is one clear plus one cheaply hashed insert per particle.
/// Keys are exact `(x, y, θ)` bin triples, so negative, saturated and
/// NaN-pose bins all stay distinct. The occupied *count* is independent of
/// iteration and hash order, so the resulting population target is
/// deterministic.
#[derive(Debug, Clone)]
pub struct KldSampler {
    config: AdaptiveConfig,
    bins: HashSet<[i32; 3], BuildHasherDefault<BinHasher>>,
}

impl KldSampler {
    /// Creates a sampler for the given configuration.
    pub fn new(config: AdaptiveConfig) -> Self {
        KldSampler {
            config,
            bins: HashSet::default(),
        }
    }

    /// Counts the pose-space bins occupied by `particles`.
    pub fn occupied_bins<S: Scalar>(&mut self, particles: ParticleSlice<'_, S>) -> usize {
        self.bins.clear();
        let inv_xy = 1.0 / self.config.bin_xy_m;
        let inv_theta = 1.0 / self.config.bin_theta_rad;
        let bins = &mut self.bins;
        for_each_widened_block(
            [particles.x, particles.y, particles.theta],
            |[xs, ys, thetas]| {
                for ((&x, &y), &theta) in xs.iter().zip(ys).zip(thetas) {
                    bins.insert([
                        (x * inv_xy).floor() as i32,
                        (y * inv_xy).floor() as i32,
                        (theta * inv_theta).floor() as i32,
                    ]);
                }
            },
        );
        self.bins.len()
    }

    /// The unclamped [`kld_bound`] for the bins `particles` occupies. A bound
    /// at or below `min_particles` means the cloud is *concentrated* — the
    /// belief fits in a handful of bins — which is the precondition for
    /// recovery injection: a kidnapped converged filter is tight and
    /// unlikely, while a still-localizing cloud is spread and must not be
    /// perturbed.
    pub fn population_bound<S: Scalar>(&mut self, particles: ParticleSlice<'_, S>) -> usize {
        let k = self.occupied_bins(particles);
        kld_bound(k, self.config.epsilon, self.config.delta)
    }

    /// The population the next generation should have: the
    /// [`KldSampler::population_bound`], clamped to the configured
    /// `[min_particles, max_particles]` range.
    pub fn target_population<S: Scalar>(&mut self, particles: ParticleSlice<'_, S>) -> usize {
        self.population_bound(particles)
            .clamp(self.config.min_particles, self.config.max_particles)
    }
}

/// Short- vs long-term mean-likelihood tracking (Augmented MCL).
///
/// Feed the mean observation likelihood of every applied update into
/// [`LikelihoodMonitor::observe`]; [`LikelihoodMonitor::injection_fraction`]
/// returns `max(0, 1 − w_fast / w_slow)` — positive exactly when recent
/// observations are systematically less likely than the long-term trend,
/// i.e. when the filter has diverged or the robot was kidnapped.
///
/// The caller must feed a value whose *scale* does not depend on the
/// observation itself: a raw multi-beam likelihood product grows or shrinks
/// exponentially with the number of in-range beams and the clutter of the
/// viewpoint, which makes the short/long-term ratio track scene hardness
/// instead of filter health. The filter therefore feeds the per-beam
/// (geometric-mean) likelihood — see the correction step of
/// `MonteCarloLocalization`.
#[derive(Debug, Clone, Copy)]
pub struct LikelihoodMonitor {
    alpha_fast: f64,
    alpha_slow: f64,
    w_fast: f64,
    w_slow: f64,
    primed: bool,
}

impl LikelihoodMonitor {
    /// Creates a monitor with the configured averaging rates.
    pub fn new(config: AdaptiveConfig) -> Self {
        LikelihoodMonitor {
            alpha_fast: f64::from(config.alpha_fast),
            alpha_slow: f64::from(config.alpha_slow),
            w_fast: 0.0,
            w_slow: 0.0,
            primed: false,
        }
    }

    /// Feeds the mean observation likelihood of one applied update.
    pub fn observe(&mut self, mean_likelihood: f64) {
        let w = mean_likelihood.max(0.0);
        if !self.primed {
            self.w_fast = w;
            self.w_slow = w;
            self.primed = true;
            return;
        }
        self.w_fast += self.alpha_fast * (w - self.w_fast);
        self.w_slow += self.alpha_slow * (w - self.w_slow);
    }

    /// The raw Augmented-MCL injection fraction `max(0, 1 − w_fast/w_slow)`,
    /// in `[0, 1]`. Zero until the monitor has seen at least one update or
    /// while the short-term average keeps up with the long-term one.
    pub fn injection_fraction(&self) -> f64 {
        if !self.primed || self.w_slow <= f64::MIN_POSITIVE {
            return 0.0;
        }
        (1.0 - self.w_fast / self.w_slow).max(0.0)
    }

    /// The current short-term average (exposed for diagnostics/tests).
    pub fn short_term(&self) -> f64 {
        self.w_fast
    }

    /// The current long-term average (exposed for diagnostics/tests).
    pub fn long_term(&self) -> f64 {
        self.w_slow
    }
}

/// Most passes [`temper_beta`] makes over the population, the β = 1 pass
/// included.
const TEMPER_MAX_PASSES: usize = 12;

/// Relative ESS tolerance of [`temper_beta`]: a solved `β` satisfies
/// `0 ≤ ESS(β)/target − 1 < TEMPER_TOLERANCE`.
const TEMPER_TOLERANCE: f64 = 1e-4;

/// The outcome of [`temper_beta`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tempering {
    /// The tempering exponent `β ∈ [0, 1]`.
    pub beta: f64,
    /// `Σ exp(l − max_log)` over the raw log-likelihoods, summed in `f64` in
    /// index order: the by-product of the β = 1 pass that the filter's
    /// per-beam mean likelihood (the Augmented-MCL monitor input) is built
    /// from.
    pub raw_likelihood_sum: f64,
}

/// The sums of one tempering pass at exponent `β`. With `d = l − max_log`
/// and `t = w·e^{βd}`: `s1 = Σt`, `s1d = Σt·d`, `s2 = Σt²`, `s2d = Σt²·d`.
#[derive(Debug, Clone, Copy, Default)]
struct TemperSums {
    s1: f64,
    s1d: f64,
    s2: f64,
    s2d: f64,
}

impl TemperSums {
    fn add(&mut self, t: f64, d: f64) {
        self.s1 += t;
        self.s2 += t * t;
        // A vanished term adds nothing; skipping it keeps `0 · −∞` out of
        // the slope sums.
        if t > 0.0 {
            self.s1d += t * d;
            self.s2d += t * t * d;
        }
    }

    /// `ln ESS(β) = 2 ln s1 − ln s2`, `−∞` when the tempered weights vanish.
    fn ln_ess(&self) -> f64 {
        if self.s1 > 0.0 && self.s2 > 0.0 {
            2.0 * self.s1.ln() - self.s2.ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    /// `d ln ESS / dβ = 2·s1d/s1 − 2·s2d/s2`.
    fn ln_ess_slope(&self) -> f64 {
        2.0 * (self.s1d / self.s1 - self.s2d / self.s2)
    }
}

/// One tempering pass at exponent `beta`, serial `f64` in index order.
fn temper_pass(weights: &[f32], logs: &[f32], max_log: f64, beta: f64) -> TemperSums {
    let mut sums = TemperSums::default();
    for (&w, &l) in weights.iter().zip(logs) {
        let d = f64::from(l) - max_log;
        sums.add(f64::from(w) * (beta * d).exp(), d);
    }
    sums
}

/// The smallest root in `(0, 1)` of `a + b·β + c·β²`, if any.
fn smallest_unit_root(a: f64, b: f64, c: f64) -> Option<f64> {
    let inside = |r: f64| (r > 0.0 && r < 1.0).then_some(r);
    if c == 0.0 {
        return inside(-a / b);
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return None;
    }
    // The cancellation-free pair of quadratic roots.
    let q = -0.5 * (b + b.signum() * disc.sqrt());
    match (inside(q / c), inside(a / q)) {
        (Some(r1), Some(r2)) => Some(r1.min(r2)),
        (r1, r2) => r1.or(r2),
    }
}

/// [`temper_beta`] together with the number of passes it made over the
/// population.
fn solve_temper_beta(
    weights: &[f32],
    logs: &[f32],
    max_log: f32,
    target_ess: f64,
) -> (Tempering, usize) {
    assert_eq!(weights.len(), logs.len(), "one weight per log-likelihood");
    let max_log = f64::from(max_log);
    // Pass 1 at β = 1: the tempering sums, the raw likelihood sum, and the
    // exp-free β = 0 sums plus the second moments Σw·d² and Σw²·d² that
    // seed the solve.
    let mut at_one = TemperSums::default();
    let mut at_zero = TemperSums::default();
    let (mut swd2, mut sw2d2) = (0.0f64, 0.0f64);
    let mut raw_likelihood_sum = 0.0f64;
    for (&w, &l) in weights.iter().zip(logs) {
        let d = f64::from(l) - max_log;
        let e = d.exp();
        raw_likelihood_sum += e;
        let w = f64::from(w);
        at_one.add(w * e, d);
        at_zero.add(w, d);
        swd2 += w * d * d;
        sw2d2 += w * w * d * d;
    }
    let done = |beta| {
        (
            Tempering {
                beta,
                raw_likelihood_sum,
            },
            1,
        )
    };
    let ln_target = target_ess.ln();
    if target_ess.is_nan() || target_ess <= 0.0 || at_one.ln_ess() >= ln_target {
        return done(1.0);
    }
    // ESS(0) is the incoming weights' own ESS. Below the target no β can
    // help; in the tolerance band β = 0 is already the answer.
    let ln_ess0 = at_zero.ln_ess();
    if ln_ess0.is_nan() || ln_ess0 < ln_target || (ln_ess0 - ln_target).exp_m1() < TEMPER_TOLERANCE
    {
        return done(0.0);
    }
    // Aim Newton at the middle of the acceptance band so it converges into
    // it from either side.
    let ln_aim = ln_target + 0.5 * TEMPER_TOLERANCE;
    let g0 = ln_ess0 - ln_aim;
    // Start from the second-order cumulant model of g around β = 0:
    // g(β) ≈ g₀ + 2(m₁ − m₂)β + (v₁ − 2v₂)β², with m and v the w- and
    // w²-weighted mean and variance of d (so 2(m₁ − m₂) = g′(0)), or from
    // the middle of the bracket when the model has no root in (0, 1).
    let (m1, m2) = (at_zero.s1d / at_zero.s1, at_zero.s2d / at_zero.s2);
    let (v1, v2) = (swd2 / at_zero.s1 - m1 * m1, sw2d2 / at_zero.s2 - m2 * m2);
    let mut beta = smallest_unit_root(g0, at_zero.ln_ess_slope(), v1 - 2.0 * v2).unwrap_or(0.5);
    // Bracket: ESS(lo) ≥ target > ESS(hi). Newton steps that leave it
    // become bisections, so the solve never does worse than bisecting.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut passes = 1;
    while passes < TEMPER_MAX_PASSES {
        let sums = temper_pass(weights, logs, max_log, beta);
        passes += 1;
        let ln_ess = sums.ln_ess();
        if ln_ess >= ln_target {
            lo = beta;
            if (ln_ess - ln_target).exp_m1() < TEMPER_TOLERANCE {
                break;
            }
        } else {
            hi = beta;
        }
        let newton = beta - (ln_ess - ln_aim) / sums.ln_ess_slope();
        beta = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    (
        Tempering {
            beta: lo,
            raw_likelihood_sum,
        },
        passes,
    )
}

/// Solves for the likelihood-tempering exponent `β ∈ [0, 1]` such that
/// multiplying `weights` by `exp(β·(logs − max_log))` keeps the effective
/// sample size at or above `target_ess` (adaptive annealing, as used by
/// sequential Monte Carlo samplers to bound per-step weight degeneracy).
///
/// The first pass, at `β = 1`, also returns the raw likelihood sum (see
/// [`Tempering::raw_likelihood_sum`]). It returns `β = 1` when the untempered
/// update already satisfies the target (or `target_ess ≤ 0`): tempering only
/// ever weakens an observation that would otherwise collapse the cloud onto
/// a handful of particles. When even `β = 0` cannot reach the target (the
/// incoming weights are already degenerate), it returns `0` and the caller
/// effectively discards an observation it could not absorb; with the ESS
/// resampling gate active the incoming ESS is always at least the gate
/// threshold, so this case does not arise in the filter loop.
///
/// Otherwise it solves `g(β) = ln ESS(β) − ln target = 0` by Newton's method:
/// one pass yields `Σw·e^{βd}`, `Σw·d·e^{βd}`, `Σw²·e^{2βd}` and
/// `Σw²·d·e^{2βd}` (with `d = l − max_log`), hence `g` and `g′`. The start
/// is the smallest root in `(0, 1)` of the exp-free second-order model of `g`
/// around `β = 0`, built from the weighted mean and variance of `d`. A
/// bracket with `ESS(lo) ≥ target` turns any step that leaves it into a
/// bisection. The solve stops once `0 ≤ ESS(lo)/target − 1 < 10⁻⁴`, after at
/// most 12 passes in all, and returns `lo`, so the tempered ESS is never
/// below the target. Every pass is serial `f64` in index order, so `β` is
/// bit-identical for every backend and worker count.
pub fn temper_beta(weights: &[f32], logs: &[f32], max_log: f32, target_ess: f64) -> Tempering {
    solve_temper_beta(weights, logs, max_log, target_ess).0
}

/// Mode-refinement window radius for the published adaptive pose estimate,
/// metres. Must sit below half the repetition pitch of the worlds the filter
/// is expected to disambiguate (the suite's warehouse racks repeat every
/// 1.2–1.6 m), so the window can shed the losing mode instead of averaging
/// across both.
pub const MODE_REFINE_RADIUS_M: f32 = 0.6;

/// Maximum mean-shift iterations for the mode-refined estimate (each pass
/// recenters once; the walk converges in a few steps and exits early).
pub const MODE_REFINE_ITERATIONS: usize = 8;

/// Minimum fraction of the total particle mass the refined window must hold
/// before the mode-refined pose is published. Below a majority the belief is
/// still genuinely multi-modal and the refined pose would just be one live
/// hypothesis among several; the conservative full-cloud mean is published
/// instead.
pub const MODE_REFINE_MIN_MASS: f64 = 0.5;

/// Concentration gate for recovery episodes: a collapse may latch an episode
/// only while the unclamped KLD population bound is at most this multiple of
/// `min_particles`. A genuinely converged-but-wrong belief (kidnapped robot,
/// or a filter committed to an aliased mode in a repetitive world) sits
/// within a couple of bins of the floor; a still-localizing cloud is spread
/// far above it and must not be perturbed by injection. The factor of two
/// admits the slightly-diffuse wrong-mode clouds cluttered worlds produce —
/// requiring the exact floor misses them, while no gate at all re-seeds the
/// filter mid-convergence.
pub const RECOVERY_CONCENTRATION_FACTOR: usize = 2;

/// Length of one recovery episode, in applied updates (2 s at the paper's
/// 15 Hz): once a collapse latches recovery on, injection and the
/// accompanying population growth persist this long — injecting once is
/// useless (a single 5 % draw rarely lands a hypothesis near the true pose),
/// and injecting forever destroys the belief. The episode ends early the
/// moment the short-term likelihood recovers ([`RECOVERY_END_FRACTION`]).
pub const RECOVERY_EPISODE_UPDATES: u32 = 30;

/// Raw fraction below which a running recovery episode ends early: the
/// short-term likelihood has caught back up with the long-term reference, so
/// a re-seeded hypothesis took over and further injection would only erode
/// it. On the per-beam scale a recovered filter drops straight to ~0, while
/// an unresolved collapse holds above the 0.08 dead-band.
pub const RECOVERY_END_FRACTION: f64 = 0.02;

/// Per-beam collapse fraction treated as a *total* collapse when sizing the
/// recovery response. The monitor's per-beam normalization compresses even a
/// hard kidnap to a fraction of ~0.1–0.25, so using it directly would grow
/// the population only marginally and inject almost nothing; dividing by
/// this saturation point (and clamping to 1) restores full-strength recovery
/// for genuine collapses while keeping the response proportional below it.
pub const RECOVERY_COLLAPSE_SATURATION: f64 = 0.25;

/// The per-filter adaptive state: bin statistics, the likelihood monitor,
/// the recovery-episode latch and the mode-refinement scratch.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    /// KLD bin-occupancy sampler.
    pub kld: KldSampler,
    /// Augmented-MCL likelihood monitor.
    pub monitor: LikelihoodMonitor,
    /// Applied updates remaining in the current recovery episode
    /// (0 = not recovering). See [`RECOVERY_EPISODE_UPDATES`].
    pub recovery_updates_left: u32,
    /// Scratch of the published estimate's mode refinement.
    pub(crate) mode_refine: ModeRefineScratch,
}

impl AdaptiveState {
    /// Creates the state for one filter instance.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveState {
            kld: KldSampler::new(config),
            monitor: LikelihoodMonitor::new(config),
            recovery_updates_left: 0,
            mode_refine: ModeRefineScratch::default(),
        }
    }
}

/// The deterministic RNG stream for recovery-injected particle `slot` of
/// update `update_index` — salted so it cannot collide with the motion
/// kernel's per-particle streams of the same update, and keyed on the slot so
/// the draw is independent of worker count and dispatch schedule.
pub fn injection_rng(seed: u64, update_index: u64, slot: u64) -> CounterRng {
    CounterRng::for_particle(seed ^ INJECTION_STREAM_SALT, update_index, slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::{Particle, ParticleBuffer};
    use mcl_gridmap::Pose2;
    use proptest::prelude::*;

    /// The bin count as a SipHash set of bin tuples computes it: the
    /// reference the sampler's cheaply hashed set must match.
    fn reference_bins(config: &AdaptiveConfig, particles: &ParticleBuffer<f32>) -> usize {
        let inv_xy = 1.0 / config.bin_xy_m;
        let inv_theta = 1.0 / config.bin_theta_rad;
        particles
            .iter()
            .map(|p| {
                (
                    (p.x * inv_xy).floor() as i32,
                    (p.y * inv_xy).floor() as i32,
                    (p.theta * inv_theta).floor() as i32,
                )
            })
            .collect::<HashSet<_>>()
            .len()
    }

    /// A coordinate draw: a kind selector and a value.
    type Coordinate = (u8, f32);

    /// One coordinate drawn from a mix of NaN, ±∞, values that saturate the
    /// `i32` bin cast, bins far beyond ±2²⁰, and a dense ±20 m range where
    /// negative bins and collisions are common.
    fn coordinate((kind, v): Coordinate) -> f32 {
        match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => v * 100.0,
            4 | 5 => v,
            _ => v * 5e-7,
        }
    }

    fn cloud(raw: &[(Coordinate, Coordinate, Coordinate)]) -> ParticleBuffer<f32> {
        raw.iter()
            .map(|&(x, y, theta)| Particle {
                x: coordinate(x),
                y: coordinate(y),
                theta: coordinate(theta),
                weight: 1.0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bin_count_matches_a_sip_hash_set(
            clouds in prop::collection::vec(
                prop::collection::vec(
                    ((0u8..12, -4.0e7f32..4.0e7), (0u8..12, -4.0e7f32..4.0e7), (0u8..12, -4.0e7f32..4.0e7)),
                    0..600,
                ),
                1..6,
            )
        ) {
            // One sampler reused across clouds whose populations shrink and
            // regrow, as the adaptive filter reuses it across updates.
            let config = AdaptiveConfig::default();
            let mut sampler = KldSampler::new(config);
            for raw in &clouds {
                let particles = cloud(raw);
                prop_assert_eq!(
                    sampler.occupied_bins(particles.as_slice()),
                    reference_bins(&config, &particles)
                );
            }
        }
    }

    #[test]
    fn bin_set_allocates_on_first_count_and_survives_regrowth() {
        let config = AdaptiveConfig::default();
        let grid = |n: usize, pitch: f32| -> ParticleBuffer<f32> {
            (0..n)
                .map(|i| {
                    let pose = Pose2::new(
                        (i % 37) as f32 * pitch - 9.0,
                        (i / 37) as f32 * pitch - 4.0,
                        (i % 11) as f32 * 0.6 - 3.0,
                    );
                    Particle::from_pose(&pose, 1.0)
                })
                .collect()
        };
        let (a, b, c) = (grid(4000, 0.5), grid(10, 0.1), grid(900, 0.3));
        let mut sampler = KldSampler::new(config);
        // A fresh sampler owns no bin storage until its first count.
        assert_eq!(sampler.bins.capacity(), 0);
        for cloud in [&b, &a, &b, &c, &a] {
            assert_eq!(
                sampler.occupied_bins(cloud.as_slice()),
                reference_bins(&config, cloud)
            );
        }
    }

    #[test]
    fn normal_quantile_matches_reference_values() {
        // Φ⁻¹(0.99) = 2.3263, Φ⁻¹(0.975) = 1.9600, Φ⁻¹(0.5) = 0.
        assert!((normal_quantile(0.99) - 2.326_348).abs() < 1e-4);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!(normal_quantile(0.5).abs() < 1e-9);
        // Symmetry and the low-tail branch.
        assert!((normal_quantile(0.01) + normal_quantile(0.99)).abs() < 1e-9);
        assert!((normal_quantile(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn kld_bound_grows_with_bin_count_and_shrinks_with_epsilon() {
        assert_eq!(kld_bound(0, 0.05, 0.01), 1);
        assert_eq!(kld_bound(1, 0.05, 0.01), 1);
        let n10 = kld_bound(10, 0.05, 0.01);
        let n100 = kld_bound(100, 0.05, 0.01);
        let n500 = kld_bound(500, 0.05, 0.01);
        assert!(n10 < n100 && n100 < n500);
        // Looser bound → fewer particles.
        assert!(kld_bound(100, 0.1, 0.01) < n100);
        // Chi-square sanity at k=100, δ=0.01: the quantile is ≈ 135.8, so the
        // bound is ≈ 135.8 / (2·0.05) ≈ 1358.
        assert!((1300..1420).contains(&n100), "n100 = {n100}");
    }

    #[test]
    fn occupied_bins_track_cloud_spread() {
        let config = AdaptiveConfig::default();
        let mut sampler = KldSampler::new(config);
        // A converged cloud: every particle in the same 0.5 m / 30° bin.
        let tight: ParticleBuffer<f32> = (0..100)
            .map(|i| Particle::from_pose(&Pose2::new(1.01 + 1e-4 * i as f32, 1.01, 0.1), 0.01))
            .collect();
        assert_eq!(sampler.occupied_bins(tight.as_slice()), 1);
        assert_eq!(sampler.target_population(tight.as_slice()), 256);
        // A spread cloud: one particle per bin.
        let spread: ParticleBuffer<f32> = (0..100)
            .map(|i| Particle::from_pose(&Pose2::new(i as f32, 10.0 + i as f32, 0.0), 0.01))
            .collect();
        assert_eq!(sampler.occupied_bins(spread.as_slice()), 100);
        // 100 bins ask for ~1350 particles (clamped inside [256, 4096]).
        let target = sampler.target_population(spread.as_slice());
        assert!((1300..1420).contains(&target), "target = {target}");
        // Reuse keeps no stale state.
        assert_eq!(sampler.occupied_bins(tight.as_slice()), 1);
    }

    #[test]
    fn likelihood_collapse_triggers_injection() {
        let mut monitor = LikelihoodMonitor::new(AdaptiveConfig::default());
        assert_eq!(monitor.injection_fraction(), 0.0);
        // Stable tracking: short-term equals long-term, no injection.
        for _ in 0..50 {
            monitor.observe(0.8);
        }
        assert_eq!(monitor.injection_fraction(), 0.0);
        // Kidnap: likelihood collapses; the fast average drops much sooner
        // than the slow one and the fraction becomes positive.
        for _ in 0..5 {
            monitor.observe(0.01);
        }
        let fraction = monitor.injection_fraction();
        assert!(fraction > 0.2, "fraction = {fraction}");
        assert!(monitor.short_term() < monitor.long_term());
        // Recovery: likelihood returns, injection stops.
        for _ in 0..80 {
            monitor.observe(0.8);
        }
        assert_eq!(monitor.injection_fraction(), 0.0);
    }

    #[test]
    fn injection_rng_is_keyed_and_collision_free() {
        // Distinct slots and updates give distinct draws; equal keys agree.
        let a = injection_rng(7, 3, 0).next_u64();
        let b = injection_rng(7, 3, 1).next_u64();
        let c = injection_rng(7, 4, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, injection_rng(7, 3, 0).next_u64());
        // The salted stream differs from the motion kernel's stream for the
        // same (seed, update, particle) key.
        assert_ne!(a, CounterRng::for_particle(7, 3, 0).next_u64());
    }

    #[test]
    fn config_validation_names_violations() {
        let ok = AdaptiveConfig::default();
        assert!(ok.validate().is_ok());
        assert!(AdaptiveConfig::enabled().validate().is_ok());
        let mut c = ok;
        c.min_particles = 0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.max_particles = c.min_particles - 1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.epsilon = 0.0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.delta = 1.0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.bin_xy_m = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.bin_theta_rad = -0.1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.alpha_slow = 0.5;
        c.alpha_fast = 0.1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.max_injection_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.injection_trigger = 1.0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.ess_threshold = -0.1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.temper_ess = 1.5;
        assert!(c.validate().is_err());
        // The temper floor must sit below the resampling gate, otherwise
        // every tempered update would skip resampling.
        let mut c = ok;
        c.temper_ess = c.ess_threshold;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.temper_beta_floor = 1.5;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.temper_beta_floor = -0.1;
        assert!(c.validate().is_err());
    }

    /// The effective sample size of `weights · exp(β·(logs − max_log))`,
    /// with `d` formed in `f64` exactly as the solver forms it.
    fn tempered_ess(weights: &[f32], logs: &[f32], max_log: f32, beta: f64) -> f64 {
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for (&w, &l) in weights.iter().zip(logs) {
            let t = f64::from(w) * (beta * (f64::from(l) - f64::from(max_log))).exp();
            sum += t;
            sum_sq += t * t;
        }
        if sum_sq <= 0.0 {
            return 0.0;
        }
        sum * sum / sum_sq
    }

    /// The solver the Newton solve replaced: 40 bisection steps after the
    /// β = 1 check.
    fn bisection_reference(weights: &[f32], logs: &[f32], max_log: f32, target: f64) -> f64 {
        if tempered_ess(weights, logs, max_log, 1.0) >= target {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if tempered_ess(weights, logs, max_log, mid) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn max_of(logs: &[f32]) -> f32 {
        logs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b))
    }

    /// Checks one solve against the bisection reference and the solver
    /// contract, returning `(β, passes)`.
    fn check_solve(label: &str, weights: &[f32], logs: &[f32], target: f64) -> (f64, usize) {
        let max_log = max_of(logs);
        let (tempering, passes) = solve_temper_beta(weights, logs, max_log, target);
        let beta = tempering.beta;
        let reference = bisection_reference(weights, logs, max_log, target);
        assert!(passes <= TEMPER_MAX_PASSES, "{label}: {passes} passes");
        assert!((0.0..=1.0).contains(&beta), "{label}: beta = {beta}");
        let raw: f64 = logs
            .iter()
            .map(|&l| (f64::from(l) - f64::from(max_log)).exp())
            .sum();
        assert_eq!(
            tempering.raw_likelihood_sum.to_bits(),
            raw.to_bits(),
            "{label}"
        );
        let reachable = tempered_ess(weights, logs, max_log, 0.0) >= target;
        if !reachable {
            assert_eq!((beta, reference), (0.0, 0.0), "{label}");
            return (beta, passes);
        }
        let ess = tempered_ess(weights, logs, max_log, beta);
        assert!(ess >= target, "{label}: ess {ess} below target {target}");
        if beta == 1.0 {
            assert_eq!(reference, 1.0, "{label}");
            assert_eq!(passes, 1, "{label}");
        } else {
            let excess = ess / target - 1.0;
            assert!(
                excess < TEMPER_TOLERANCE,
                "{label}: ess/target − 1 = {excess}"
            );
            // ESS falls with β, so meeting the target puts β at or below the
            // root that bisection brackets to 1e-12.
            assert!(
                beta <= reference + 1e-9,
                "{label}: beta {beta} above bisection {reference}"
            );
        }
        (beta, passes)
    }

    #[test]
    fn temper_beta_leaves_healthy_updates_alone() {
        // Near-flat likelihoods keep the ESS high; no tempering.
        let weights = [0.25f32; 4];
        let logs = [-0.1f32, -0.2, -0.15, -0.05];
        assert_eq!(temper_beta(&weights, &logs, -0.05, 2.0).beta, 1.0);
    }

    #[test]
    fn temper_beta_lands_the_ess_on_the_floor() {
        // One particle takes essentially all the mass untempered: ESS → 1.
        let n = 64;
        let weights = vec![1.0 / n as f32; n];
        let mut logs = vec![-200.0f32; n];
        logs[7] = 0.0;
        assert!(tempered_ess(&weights, &logs, 0.0, 1.0) < 1.5);
        let target = 0.25 * n as f64;
        let beta = temper_beta(&weights, &logs, 0.0, target).beta;
        assert!(beta > 0.0 && beta < 1.0, "beta = {beta}");
        let ess = tempered_ess(&weights, &logs, 0.0, beta);
        assert!(
            (ess - target).abs() < 1e-3 * target,
            "ess = {ess}, target = {target}"
        );
    }

    #[test]
    fn temper_beta_matches_bisection_on_the_case_table() {
        let n = 512;
        let uniform = vec![1.0 / n as f32; n];
        let mut one_hot = vec![-200.0f32; n];
        one_hot[7] = 0.0;
        let ramp: Vec<f32> = (0..n).map(|i| -0.5 * i as f32).collect();
        let two_modes: Vec<f32> = (0..n)
            .map(|i| match i % 8 {
                0 => -0.1 * (i % 5) as f32,
                1 | 2 => -25.0 - (i % 3) as f32,
                _ => -300.0 - (i % 17) as f32 * 4.0,
            })
            .collect();
        let healthy: Vec<f32> = (0..n).map(|i| -0.01 * (i % 9) as f32).collect();
        let flat = vec![-3.5f32; n];
        let mut degenerate = vec![0.0f32; n];
        degenerate[3] = 1.0;
        let uneven: Vec<f32> = (0..n)
            .map(|i| (1 + i % 7) as f32 / (4 * n) as f32)
            .collect();
        let target = 0.15 * n as f64;
        // (label, weights, logs, target ESS, expected β when not interior)
        type Case<'a> = (&'a str, &'a [f32], &'a [f32], f64, Option<f64>);
        let cases: [Case; 10] = [
            ("one-hot sharp", &uniform, &one_hot, target, None),
            (
                "one-hot sharp, uneven weights",
                &uneven,
                &one_hot,
                target,
                None,
            ),
            ("linear ramp", &uniform, &ramp, target, None),
            ("two modes", &uniform, &two_modes, target, None),
            (
                "two modes, tight target",
                &uniform,
                &two_modes,
                0.6 * n as f64,
                None,
            ),
            ("already healthy", &uniform, &healthy, target, Some(1.0)),
            ("all-equal logs", &uniform, &flat, target, Some(1.0)),
            (
                "all-equal logs, unreachable",
                &uniform,
                &flat,
                2.0 * n as f64,
                Some(0.0),
            ),
            ("n = 1", &[1.0], &[-42.0], 0.15, Some(1.0)),
            (
                "degenerate incoming weights",
                &degenerate,
                &ramp,
                target,
                Some(0.0),
            ),
        ];
        for (label, weights, logs, target, expected) in cases {
            let (beta, _) = check_solve(label, weights, logs, target);
            if let Some(expected) = expected {
                assert_eq!(beta, expected, "{label}");
            } else {
                assert!(beta > 0.0 && beta < 1.0, "{label}: beta = {beta}");
            }
        }
        // A zero target (tempering disabled) stops after the β = 1 pass.
        let (tempering, passes) = solve_temper_beta(&uniform, &one_hot, 0.0, 0.0);
        assert_eq!((tempering.beta, passes), (1.0, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn temper_beta_is_monotone_in_the_target(
            raw in prop::collection::vec(0.0f32..1.0, 2..400),
            scale in 0.05f32..600.0,
            fraction in 0.02f64..0.9,
            gap in 2e-4f64..1.0,
        ) {
            let n = raw.len();
            let weights = vec![1.0 / n as f32; n];
            let logs: Vec<f32> = raw.iter().map(|&u| -scale * u).collect();
            let loose = fraction * n as f64;
            let tight = loose * (1.0 + gap);
            let (loose_beta, loose_passes) = check_solve("loose", &weights, &logs, loose);
            let (tight_beta, tight_passes) = check_solve("tight", &weights, &logs, tight);
            prop_assert!(loose_passes <= TEMPER_MAX_PASSES && tight_passes <= TEMPER_MAX_PASSES);
            prop_assert!(
                tight_beta <= loose_beta,
                "tight {} > loose {}",
                tight_beta,
                loose_beta
            );
        }
    }

    #[test]
    fn population_range_builder() {
        let c = AdaptiveConfig::enabled().with_population_range(128, 2048);
        assert!(c.enabled);
        assert_eq!(c.min_particles, 128);
        assert_eq!(c.max_particles, 2048);
    }

    #[test]
    fn temper_beta_floor_builder_defaults_off() {
        assert_eq!(AdaptiveConfig::default().temper_beta_floor, 0.0);
        let c = AdaptiveConfig::enabled().with_temper_beta_floor(0.5);
        assert_eq!(c.temper_beta_floor, 0.5);
        assert!(c.validate().is_ok());
    }
}
