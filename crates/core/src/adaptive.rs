//! Adaptive population control: KLD-sampling and Augmented-MCL recovery.
//!
//! The paper runs a fixed-size filter sized for the GAP9 L2 budget. This
//! module implements the two standard adaptations that let the population
//! track the *uncertainty* instead:
//!
//! * **KLD-sampling** (Fox, *Adapting the sample size in particle filters
//!   through KLD-sampling*, IJRR 2003): the pose space is divided into a
//!   regular grid of 0.5 m × 30° bins; the number `k` of bins the current
//!   cloud occupies measures how complex the posterior still is, and the
//!   chi-square bound (via the Wilson–Hilferty transform, [`kld_bound`])
//!   gives the population needed to keep the KL divergence between the
//!   sampled and the true posterior below `ε = 0.05` with probability
//!   `1 − δ = 0.99`. A converged cloud occupies a handful of bins and shrinks
//!   to [`AdaptiveConfig::min_particles`]; an ambiguous (multi-hypothesis)
//!   cloud occupies hundreds and grows to [`AdaptiveConfig::max_particles`].
//! * **Recovery injection** (Augmented MCL, Thrun/Burgard/Fox, *Probabilistic
//!   Robotics* §8.3): a likelihood monitor tracks short- and long-term
//!   exponential averages of the mean observation likelihood. When the
//!   short-term average collapses below the long-term one — the sensor-model
//!   signature of a kidnapped robot or a diverged filter — a proportional
//!   fraction of the next generation is drawn uniformly over the map's free
//!   space instead of resampled, re-seeding hypotheses where the wheel alone
//!   would need unbounded time to recover.
//!
//! The filter consults one `AdaptiveState` per instance at three points of
//! an applied update: it tempers the raw log-likelihoods (and feeds the
//! monitor), decides the next population, the injected count and whether to
//! resample at all, and injects the recovery particles. Every decision is a
//! deterministic pure function of the filter state, so the population
//! trajectory is bit-identical for every worker count and kernel backend —
//! the dynamic size threads through the same schedule-independent chunk
//! geometry as the fixed-size filter (see
//! [`crate::resampling::PartialSumResampler::plan_resize_into`]).

use crate::config::MclError;
use crate::estimate::PoseEstimate;
use crate::kernel::{self, KernelBackend, ModeRefineScratch};
use crate::particle::{self, for_each_widened_block, Particle, ParticleBuffer, ParticleSlice};
use crate::rng::CounterRng;
use mcl_gridmap::{CellState, OccupancyGrid, Pose2};
use mcl_num::math::exp_f64;
use mcl_num::Scalar;

/// Salt XORed into the filter seed for the recovery-injection RNG stream, so
/// injected poses can never collide with the motion kernel's per-particle
/// streams (which key on the unsalted seed and the same update index).
const INJECTION_STREAM_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// KLD error bound `ε` between the sampled and the true posterior: the
/// widely used AMCL value.
const EPSILON: f32 = 0.05;

/// KLD confidence parameter `δ`: the bound holds with probability `1 − δ`
/// (the 99 % chi-square quantile, as in AMCL).
const DELTA: f32 = 0.01;

/// Side length of the square x/y occupancy bins of the KLD count, metres
/// (the AMCL default).
const BIN_XY_M: f32 = 0.5;

/// Angular size of the KLD occupancy bins, radians (30°, the AMCL default).
const BIN_THETA_RAD: f32 = core::f32::consts::PI / 6.0;

/// Short-term likelihood averaging rate `α_fast` of the Augmented-MCL
/// monitor. Retuned for the paper's short (≤ 60 s, 15 Hz) flights: 0.5
/// reacts to a kidnap within a few updates.
const ALPHA_FAST: f32 = 0.5;

/// Long-term likelihood averaging rate `α_slow` of the Augmented-MCL
/// monitor. A ~3 s horizon both anchors the long-term reference to the
/// *converged* likelihood level — the textbook 0.001 never leaves the poor
/// global-initialization level on a 300-update sequence — and lets an
/// injection episode self-terminate: injected particles drag the mean
/// likelihood down, and a slow average that tracks within ~50 updates closes
/// the feedback loop instead of injecting forever.
const ALPHA_SLOW: f32 = 0.02;

/// Cap on the fraction of one generation drawn by recovery injection,
/// keeping the filter from discarding its whole belief in a single bad
/// update (5 %, for the same self-termination reason as [`ALPHA_SLOW`]).
const MAX_INJECTION_FRACTION: f32 = 0.05;

/// Likelihood-tempering ESS floor, as a fraction of the population. When a
/// single observation would crash the effective sample size below
/// `TEMPER_ESS × population`, the log-likelihoods are annealed by the
/// exponent `β ∈ [0, 1]` that lands the post-update ESS on the floor
/// (adaptive annealing, as in sequential Monte Carlo samplers). This is the
/// weight-degeneracy fix for sharp multi-beam models: a 128-beam product is
/// so peaked that during global localization one aliased particle can take
/// essentially all the mass in a single update, and the very first resample
/// then discards the true mode forever. Tempering bounds how much of the
/// cloud one update may kill, letting evidence accumulate over several
/// updates instead. [`AdaptiveConfig::validate`] keeps it below a non-zero
/// [`AdaptiveConfig::ess_threshold`], otherwise every tempered update would
/// also skip resampling and the population could never adapt.
const TEMPER_ESS: f32 = 0.15;

/// Dead-band on the raw Augmented-MCL fraction `1 − w_fast/w_slow`:
/// recovery (injection and the population growth that accompanies it) fires
/// only when the collapse exceeds this threshold. Ordinary likelihood
/// fluctuations during a healthy flight produce small positive fractions
/// every few seconds; without a dead-band each one would grow the population
/// and seed random hypotheses for nothing.
///
/// The monitor is fed the *per-beam* likelihood (see [`LikelihoodMonitor`]),
/// which compresses the collapse relative to the raw multi-beam product: a
/// kidnap that would crash the raw ratio to nearly zero moves the per-beam
/// fraction to only ~0.1–0.15, while healthy-tracking jitter stays under
/// ~0.04. 0.06 sits between the two.
const INJECTION_TRIGGER: f32 = 0.06;

/// Configuration of the adaptive (KLD + recovery) population control: the
/// master switch, the population clamps and the ESS resampling gate. The
/// KLD bound, the monitor rates, the injection cap and dead-band and the
/// tempering floor are fixed by the module (AMCL's KLD parameterization,
/// with the likelihood averaging retuned for the paper's short flights).
/// Disabled by default — the fixed-size filter stays bit-identical to the
/// seed behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Master switch. When `false` every other field is ignored and the
    /// filter keeps its fixed `num_particles` population.
    pub enabled: bool,
    /// Lower population clamp (the filter never shrinks below this).
    pub min_particles: usize,
    /// Upper population clamp (the filter never grows beyond this).
    pub max_particles: usize,
    /// ESS resampling gate: while the effective sample size stays at or above
    /// `ess_threshold × population` (and no recovery episode is running), the
    /// update skips resampling entirely — weights keep accumulating
    /// multiplicatively and every hypothesis survives. Resampling every
    /// update is what starves multi-modal beliefs: in a symmetric world the
    /// wheel kills the competing mode within a couple of seconds, long
    /// before the sensor can disambiguate. `0.0` disables the gate
    /// (resample every update, the fixed-pipeline behaviour).
    pub ess_threshold: f32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            min_particles: 256,
            max_particles: 4096,
            ess_threshold: 0.5,
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
        if !(0.0..=1.0).contains(&self.ess_threshold) {
            return Err(MclError::InvalidConfig(
                "adaptive ess_threshold must be in [0, 1]",
            ));
        }
        if self.ess_threshold > 0.0 && self.ess_threshold <= TEMPER_ESS {
            return Err(MclError::InvalidConfig(
                "adaptive ess_threshold must be 0 or above the tempering floor (0.15)",
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

/// The FxHash multiply–rotate mix of a bin key. The keys come from the
/// filter's own particles, so SipHash's resistance to crafted collisions
/// buys nothing here and costs most of a KLD count.
#[inline]
fn bin_hash(key: [i32; 3]) -> u64 {
    let mixed = key.iter().fold(0u64, |h, &word| {
        (h.rotate_left(5) ^ u64::from(word as u32)).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    // The multiply leaves its best bits at the top; rotate them down to the
    // bits that pick the slot.
    mixed.rotate_left(26)
}

/// `v.floor() as i32` without libm: truncate toward zero, then step down
/// once when the truncation went up (negative non-integers). Equal to the
/// std expression for every `f32`, NaN (→ 0), the infinities and the
/// saturating range included; on baseline x86-64, where `f32::floor` is a
/// libm call (SSE4.1 `roundss` is not assumed), this is a convert, a
/// compare and a select.
#[inline]
fn floor_to_i32(v: f32) -> i32 {
    let t = v as i32;
    if (t as f32) > v {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Bin-occupancy statistics over the pose-space grid, feeding [`kld_bound`].
///
/// A particle's bin key is the `(x, y, θ)` triple `floor(v / bin) as i32`.
/// Negative bins stay distinct from positive ones, but the cast's
/// saturation merges the rest: every coordinate past the `i32` range (the
/// infinities included) shares the saturated bin of its sign, and a NaN
/// coordinate maps to bin 0 together with `[0, bin)`.
///
/// The keys go into a flat open-addressed table (linear probing, at most
/// half full) whose slots carry the generation of the count that wrote
/// them, so a new count starts by bumping the generation instead of
/// clearing the table. The table only grows. The occupied *count* is
/// independent of probe order, so the resulting population target is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub(crate) struct KldSampler {
    /// `(key, generation)` per slot; a slot is occupied in the current
    /// count exactly when its generation is `generation`.
    slots: Vec<([i32; 3], u32)>,
    /// Generation of the current count; never 0 while slots exist.
    generation: u32,
}

impl KldSampler {
    /// Counts the pose-space bins occupied by `particles`, stopping once the
    /// count reaches `limit` (which it then returns): callers that only
    /// compare the count's [`kld_bound`] against fixed thresholds need no
    /// more than the first count that clears them all.
    pub(crate) fn occupied_bins<S: Scalar>(
        &mut self,
        particles: ParticleSlice<'_, S>,
        limit: usize,
    ) -> usize {
        let cap = limit.min(particles.len());
        if cap == 0 {
            return 0;
        }
        // Twice the most keys this count inserts, so a probe always ends.
        let size = (2 * cap).next_power_of_two();
        if self.slots.len() < size {
            self.slots = vec![([0; 3], 0); size];
            self.generation = 0;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(([0; 3], 0));
            self.generation = 1;
        }
        let generation = self.generation;
        // Probe only the leading `size` slots, keeping small counts compact.
        let (slots, mask) = (&mut self.slots[..size], size - 1);
        let inv_xy = 1.0 / BIN_XY_M;
        let inv_theta = 1.0 / BIN_THETA_RAD;
        let mut count = 0;
        for_each_widened_block(
            [particles.x, particles.y, particles.theta],
            |[xs, ys, thetas]| {
                for ((&x, &y), &theta) in xs.iter().zip(ys).zip(thetas) {
                    if count == cap {
                        return;
                    }
                    let key = [
                        floor_to_i32(x * inv_xy),
                        floor_to_i32(y * inv_xy),
                        floor_to_i32(theta * inv_theta),
                    ];
                    let mut slot = bin_hash(key) as usize & mask;
                    loop {
                        let (slot_key, slot_generation) = &mut slots[slot];
                        if *slot_generation != generation {
                            (*slot_key, *slot_generation) = (key, generation);
                            count += 1;
                            break;
                        }
                        if *slot_key == key {
                            break;
                        }
                        slot = (slot + 1) & mask;
                    }
                }
            },
        );
        count
    }

    /// The unclamped [`kld_bound`] for the bins `particles` occupies, with
    /// the count capped at `limit` (see [`KldSampler::occupied_bins`]). A
    /// bound at or below `min_particles` means the cloud is *concentrated* —
    /// the belief fits in a handful of bins — which is the precondition for
    /// recovery injection: a kidnapped converged filter is tight and
    /// unlikely, while a still-localizing cloud is spread and must not be
    /// perturbed.
    pub(crate) fn population_bound<S: Scalar>(
        &mut self,
        particles: ParticleSlice<'_, S>,
        limit: usize,
    ) -> usize {
        kld_bound(self.occupied_bins(particles, limit), EPSILON, DELTA)
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
/// (geometric-mean) likelihood — see the temper stage of the adaptive state.
/// The averaging rates are fixed: `α_fast = 0.5` and `α_slow = 0.02`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LikelihoodMonitor {
    w_fast: f64,
    w_slow: f64,
    primed: bool,
}

impl LikelihoodMonitor {
    /// Feeds the mean observation likelihood of one applied update.
    pub(crate) fn observe(&mut self, mean_likelihood: f64) {
        let w = mean_likelihood.max(0.0);
        if !self.primed {
            self.w_fast = w;
            self.w_slow = w;
            self.primed = true;
            return;
        }
        self.w_fast += f64::from(ALPHA_FAST) * (w - self.w_fast);
        self.w_slow += f64::from(ALPHA_SLOW) * (w - self.w_slow);
    }

    /// The raw Augmented-MCL injection fraction `max(0, 1 − w_fast/w_slow)`,
    /// in `[0, 1]`. Zero until the monitor has seen at least one update or
    /// while the short-term average keeps up with the long-term one.
    pub(crate) fn injection_fraction(&self) -> f64 {
        if !self.primed || self.w_slow <= f64::MIN_POSITIVE {
            return 0.0;
        }
        (1.0 - self.w_fast / self.w_slow).max(0.0)
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
    /// `Σ exp(l − max_log)` over the raw log-likelihoods, in `f64` with the
    /// pass association of [`temper_beta`] and [`exp_f64`]: the by-product
    /// of the β = 1 pass that the filter's per-beam mean likelihood (the
    /// Augmented-MCL monitor input) is built from.
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
    /// The four sums from pass slots `[s1, s1d, s2, s2d]`.
    fn from_slots(slots: &[f64]) -> Self {
        TemperSums {
            s1: slots[0],
            s1d: slots[1],
            s2: slots[2],
            s2d: slots[3],
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

/// Particles per block of a tempering pass: the fixed
/// [`kernel::POSE_REDUCTION_BLOCK`] geometry.
const TEMPER_BLOCK: usize = kernel::POSE_REDUCTION_BLOCK;

/// Accumulator lanes per tempering block: lane `l` sums the block's
/// indices `≡ l (mod 4)` — one 4×`f64` register in the AVX2 body.
pub(crate) const TEMPER_LANES: usize = 4;

/// Sums one tempering pass accumulates, in slot order. Every pass fills
/// slots 0–3 with the [`TemperSums`] at its `β` (`s1`, `s1d`, `s2`,
/// `s2d`). The first pass (β = 1) also fills slot 4 with the raw likelihood
/// sum `Σe^d`, slots 5–8 with the exp-free [`TemperSums`] at β = 0, and
/// slots 9 and 10 with the second moments `Σw·d²` and `Σw²·d²` that seed the
/// solve.
pub(crate) const TEMPER_SLOTS: usize = 11;

/// Slots a pass fills: all of them on the first pass, the four
/// [`TemperSums`] otherwise.
const fn temper_slots(first: bool) -> usize {
    if first {
        TEMPER_SLOTS
    } else {
        4
    }
}

/// The per-particle terms of one tempering pass at `beta`, in
/// [`TEMPER_SLOTS`] order (the first-pass slots only when `FIRST`): with
/// `d = f64(l) − max_log`, `e = exp_f64(β·d)` and `t = f64(w)·e`, the terms
/// `t`, `t·d`, `t²` and `t²·d`, then `e`, the same four with `w` for `t`,
/// `(w·d)·d` and `((w·w)·d)·d`. A slope term whose weight vanished is `+0`,
/// which keeps `0 · −∞` out of the slope sums.
#[inline]
fn temper_terms<const FIRST: bool>(w: f32, l: f32, max_log: f64, beta: f64) -> [f64; TEMPER_SLOTS] {
    let live = |weight: f64, term: f64| if weight > 0.0 { term } else { 0.0 };
    let d = f64::from(l) - max_log;
    let w = f64::from(w);
    let e = exp_f64(beta * d);
    let t = w * e;
    let tt = t * t;
    let mut terms = [0.0; TEMPER_SLOTS];
    terms[..4].copy_from_slice(&[t, live(t, t * d), tt, live(t, tt * d)]);
    if FIRST {
        let ww = w * w;
        terms[4..].copy_from_slice(&[
            e,
            w,
            live(w, w * d),
            ww,
            live(w, ww * d),
            w * d * d,
            ww * d * d,
        ]);
    }
    terms
}

/// The portable lane accumulators of one block's whole quads: lane `l` of
/// slot `s` sums `temper_terms(..)[s]` over the quad members `l`, in quad
/// order. The AVX2 body (`simd::temper_lanes`) replays it bit for bit.
fn temper_lanes<const FIRST: bool>(
    backend: KernelBackend,
    weights: &[f32],
    logs: &[f32],
    max_log: f64,
    beta: f64,
) -> [[f64; TEMPER_LANES]; TEMPER_SLOTS] {
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2 && crate::simd::available() {
        return crate::simd::temper_lanes::<FIRST>(weights, logs, max_log, beta);
    }
    let _ = backend;
    let mut lanes = [[0.0; TEMPER_LANES]; TEMPER_SLOTS];
    for (wq, lq) in weights
        .chunks_exact(TEMPER_LANES)
        .zip(logs.chunks_exact(TEMPER_LANES))
    {
        for l in 0..TEMPER_LANES {
            let terms = temper_terms::<FIRST>(wq[l], lq[l], max_log, beta);
            for (slot, term) in lanes.iter_mut().zip(terms).take(temper_slots(FIRST)) {
                slot[l] += term;
            }
        }
    }
    lanes
}

/// The [`TEMPER_SLOTS`] partial sums of one tempering block: the
/// [`TEMPER_LANES`] lane accumulators over its whole quads merged in lane
/// order 0..3, then its last `len mod 4` terms added serially.
fn temper_block<const FIRST: bool>(
    backend: KernelBackend,
    weights: &[f32],
    logs: &[f32],
    max_log: f64,
    beta: f64,
) -> [f64; TEMPER_SLOTS] {
    let quads = weights.len() - weights.len() % TEMPER_LANES;
    let lanes = temper_lanes::<FIRST>(backend, &weights[..quads], &logs[..quads], max_log, beta);
    let mut block = lanes.map(|lane| lane[0] + lane[1] + lane[2] + lane[3]);
    for (&w, &l) in weights[quads..].iter().zip(&logs[quads..]) {
        let terms = temper_terms::<FIRST>(w, l, max_log, beta);
        for (sum, term) in block.iter_mut().zip(terms).take(temper_slots(FIRST)) {
            *sum += term;
        }
    }
    block
}

/// One tempering pass at exponent `beta`: the [`TEMPER_SLOTS`] sums over the
/// population in one fixed association. The population is cut into
/// [`TEMPER_BLOCK`]-particle blocks ([`temper_block`]: four lane
/// accumulators over the whole quads, merged in lane order, then the block
/// tail added serially), and the block partials merge in block order. Every
/// backend replays that association, so the sums are bit-identical across
/// backends. The pass is serial: spreading its blocks over the pool workers
/// (the association allows it) measured slower than one thread, since a
/// pass at the largest population takes about as long as waking a worker.
fn temper_pass<const FIRST: bool>(
    backend: KernelBackend,
    weights: &[f32],
    logs: &[f32],
    max_log: f64,
    beta: f64,
) -> [f64; TEMPER_SLOTS] {
    let mut total = [0.0; TEMPER_SLOTS];
    for (wb, lb) in weights.chunks(TEMPER_BLOCK).zip(logs.chunks(TEMPER_BLOCK)) {
        let block = temper_block::<FIRST>(backend, wb, lb, max_log, beta);
        for (sum, partial) in total.iter_mut().zip(block).take(temper_slots(FIRST)) {
            *sum += partial;
        }
    }
    total
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
    backend: KernelBackend,
) -> (Tempering, usize) {
    assert_eq!(weights.len(), logs.len(), "one weight per log-likelihood");
    let max_log = f64::from(max_log);
    // Pass 1 at β = 1: the tempering sums, the raw likelihood sum, and the
    // exp-free β = 0 sums plus the second moments Σw·d² and Σw²·d² that
    // seed the solve.
    let first = temper_pass::<true>(backend, weights, logs, max_log, 1.0);
    let at_one = TemperSums::from_slots(&first[..4]);
    let raw_likelihood_sum = first[4];
    let at_zero = TemperSums::from_slots(&first[5..9]);
    let (swd2, sw2d2) = (first[9], first[10]);
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
        let sums =
            TemperSums::from_slots(&temper_pass::<false>(backend, weights, logs, max_log, beta));
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
/// below the target.
///
/// Each pass evaluates the owned [`exp_f64`] per particle and sums in `f64`
/// over fixed 256-particle blocks with four lane accumulators each, merged
/// in block order (see `temper_pass`). `backend` picks the block body
/// (4-wide AVX2 under [`KernelBackend::Avx2`], portable otherwise); every
/// body replays the same association and the passes are serial, so `β` is
/// bit-identical for every backend and worker count.
pub fn temper_beta(
    weights: &[f32],
    logs: &[f32],
    max_log: f32,
    target_ess: f64,
    backend: KernelBackend,
) -> Tempering {
    solve_temper_beta(weights, logs, max_log, target_ess, backend).0
}

/// Mode-refinement window radius for the published adaptive pose estimate,
/// metres. Must sit below half the repetition pitch of the worlds the filter
/// is expected to disambiguate (the suite's warehouse racks repeat every
/// 1.2–1.6 m), so the window can shed the losing mode instead of averaging
/// across both.
const MODE_REFINE_RADIUS_M: f32 = 0.6;

/// Maximum mean-shift iterations for the mode-refined estimate (each pass
/// recenters once; the walk converges in a few steps and exits early).
const MODE_REFINE_ITERATIONS: usize = 8;

/// Minimum fraction of the total particle mass the refined window must hold
/// before the mode-refined pose is published. Below a majority the belief is
/// still genuinely multi-modal and the refined pose would just be one live
/// hypothesis among several; the conservative full-cloud mean is published
/// instead.
const MODE_REFINE_MIN_MASS: f64 = 0.5;

/// Concentration gate for recovery episodes: a collapse may latch an episode
/// only while the unclamped KLD population bound is at most this multiple of
/// `min_particles`. A genuinely converged-but-wrong belief (kidnapped robot,
/// or a filter committed to an aliased mode in a repetitive world) sits
/// within a couple of bins of the floor; a still-localizing cloud is spread
/// far above it and must not be perturbed by injection. The factor of two
/// admits the slightly-diffuse wrong-mode clouds cluttered worlds produce —
/// requiring the exact floor misses them, while no gate at all re-seeds the
/// filter mid-convergence.
const RECOVERY_CONCENTRATION_FACTOR: usize = 2;

/// Length of one recovery episode, in applied updates (2 s at the paper's
/// 15 Hz): once a collapse latches recovery on, injection and the
/// accompanying population growth persist this long — injecting once is
/// useless (a single 5 % draw rarely lands a hypothesis near the true pose),
/// and injecting forever destroys the belief. The episode ends early the
/// moment the short-term likelihood recovers ([`RECOVERY_END_FRACTION`]).
const RECOVERY_EPISODE_UPDATES: u32 = 30;

/// Raw fraction below which a running recovery episode ends early: the
/// short-term likelihood has caught back up with the long-term reference, so
/// a re-seeded hypothesis took over and further injection would only erode
/// it. On the per-beam scale a recovered filter drops straight to ~0, while
/// an unresolved collapse holds above the 0.06 dead-band.
const RECOVERY_END_FRACTION: f64 = 0.02;

/// Per-beam collapse fraction treated as a *total* collapse when sizing the
/// recovery response. The monitor's per-beam normalization compresses even a
/// hard kidnap to a fraction of ~0.1–0.25, so using it directly would grow
/// the population only marginally and inject almost nothing; dividing by
/// this saturation point (and clamping to 1) restores full-strength recovery
/// for genuine collapses while keeping the response proportional below it.
const RECOVERY_COLLAPSE_SATURATION: f64 = 0.25;

/// The saturation bin count of `config`: the smallest `k` whose
/// [`kld_bound`] exceeds both the population ceiling and the recovery
/// concentration gate, `max(max_particles, min_particles ×
/// RECOVERY_CONCENTRATION_FACTOR)`. The bound never falls as `k` grows, so
/// every count from here up clamps to `max_particles` and reads as spread:
/// [`AdaptiveState::decide`] gives the same answer as for the exact count.
/// That is ≈ 347 bins for the default 256–4096 range, which the spread
/// clouds of the largest populations pass well before their last particle.
/// `usize::MAX` when no count saturates.
fn kld_saturation(config: &AdaptiveConfig) -> usize {
    let cap = config.max_particles.max(
        config
            .min_particles
            .saturating_mul(RECOVERY_CONCENTRATION_FACTOR),
    );
    let exceeds = |k: usize| kld_bound(k, EPSILON, DELTA) > cap;
    // Double to a count that exceeds, then bisect: exceeds(hi) holds, and
    // exceeds(lo) fails (or lo = 0).
    let mut hi = 1usize;
    while !exceeds(hi) {
        if hi > usize::MAX / 2 {
            return usize::MAX;
        }
        hi *= 2;
    }
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if exceeds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The per-filter adaptive state and policy: bin statistics, the likelihood
/// monitor, the recovery-episode latch, the free space recovery injects into
/// and the mode-refinement scratch. The filter calls [`AdaptiveState::temper`],
/// [`AdaptiveState::decide`], [`AdaptiveState::inject`] and
/// [`AdaptiveState::refine`] in that order on every applied update.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveState {
    config: AdaptiveConfig,
    kld: KldSampler,
    /// The KLD bin count past which [`AdaptiveState::decide`] cannot change
    /// its answer ([`kld_saturation`]); the bin count stops there.
    kld_saturation: usize,
    monitor: LikelihoodMonitor,
    /// Applied updates remaining in the current recovery episode
    /// (0 = not recovering). See [`RECOVERY_EPISODE_UPDATES`].
    recovery_updates_left: u32,
    /// World coordinates of the map's free-cell centres, captured by
    /// [`AdaptiveState::capture_free_space`] for recovery injection. Empty
    /// when unknown (e.g. Gaussian initialization), in which case the
    /// population neither grows for recovery nor receives injected particles.
    free_space: Vec<(f32, f32)>,
    /// Half the map resolution: injected poses jitter inside their cell
    /// exactly like the uniform initialization.
    free_space_jitter: f32,
    mode_refine: ModeRefineScratch,
}

impl AdaptiveState {
    /// Creates the state for one filter instance.
    pub(crate) fn new(config: AdaptiveConfig) -> Self {
        AdaptiveState {
            config,
            kld: KldSampler::default(),
            kld_saturation: kld_saturation(&config),
            monitor: LikelihoodMonitor::default(),
            recovery_updates_left: 0,
            free_space: Vec::new(),
            free_space_jitter: 0.0,
            mode_refine: ModeRefineScratch::default(),
        }
    }

    /// Captures the free space of `map` for recovery injection: the filter
    /// only holds the distance field afterwards, which has no notion of
    /// "free", so the table is built once at uniform initialization.
    pub(crate) fn capture_free_space(&mut self, map: &OccupancyGrid) {
        self.free_space = map
            .indices()
            .filter(|&i| map.state(i) == CellState::Free)
            .map(|i| {
                let centre = map.cell_to_world(i);
                (centre.x, centre.y)
            })
            .collect();
        self.free_space_jitter = map.resolution() * 0.5;
    }

    /// The temper stage, on the raw log-likelihoods of one update before the
    /// reweight kernels consume them. `weights` are the incoming stored
    /// weights (widened into `scratch` below fp32) and `evidence` the number
    /// of in-range beams plus usable anchor ranges that scored `logs`.
    ///
    /// * It feeds the Augmented-MCL monitor the **per-beam** mean likelihood
    ///   of the *raw* logs, `exp(ln(mean_i exp(l_i)) / evidence)`: the raw
    ///   multi-beam product scales exponentially with how many beams are in
    ///   range and how cluttered the viewpoint is, so an unnormalized
    ///   short/long-term ratio tracks observation hardness instead of
    ///   localization quality (and its `exp(l)` terms underflow outright for
    ///   harsh scenes). The per-beam root makes the signal comparable across
    ///   viewpoints; the shift by `max_log` keeps the sum finite.
    /// * When this observation alone would collapse the effective sample
    ///   size below `TEMPER_ESS × n`, it anneals `logs` in place by the `β`
    ///   of [`temper_beta`] that lands the post-update ESS on that floor, and
    ///   returns the annealed `max_log`. The floor is halved while a
    ///   recovery episode runs: the episode exists to let freshly injected
    ///   hypotheses seize mass from a wrong mode quickly, which is exactly
    ///   the weight concentration tempering suppresses. Keeping half the
    ///   floor still bounds how much of the cloud a single garbage
    ///   observation — a noise burst that itself triggered the episode — can
    ///   hand to one lucky particle.
    ///
    /// Returns `None` when the logs were left untouched. Serial and a pure
    /// function of the weights and logs — `backend` only picks the body of
    /// the solve's pass blocks, which all return the same bits — so the
    /// outcome is schedule- and backend-independent.
    pub(crate) fn temper<S: Scalar>(
        &mut self,
        weights: &[S],
        scratch: &mut Vec<f32>,
        logs: &mut [f32],
        max_log: f32,
        evidence: usize,
        backend: KernelBackend,
    ) -> Option<f32> {
        if !max_log.is_finite() {
            self.monitor.observe(0.0);
            return None;
        }
        let n = logs.len() as f64;
        let mut floor = f64::from(TEMPER_ESS);
        if self.recovery_updates_left > 0 {
            floor *= 0.5;
        }
        let weights = particle::weights_as_f32(weights, scratch);
        // The solve's β = 1 pass also sums the raw relative likelihoods for
        // the monitor.
        let tempering = temper_beta(weights, logs, max_log, floor * n, backend);
        let mean_rel = tempering.raw_likelihood_sum / n;
        let beams = evidence.max(1) as f64;
        self.monitor
            .observe(exp_f64((f64::from(max_log) + mean_rel.ln()) / beams));
        let beta = tempering.beta;
        if beta >= 1.0 {
            return None;
        }
        for l in logs {
            *l = (f64::from(*l) * beta) as f32;
        }
        Some((f64::from(max_log) * beta) as f32)
    }

    /// The decide stage, on the normalized `weights` of the predicted cloud
    /// `particles`: picks the next population from the KLD bin statistics,
    /// runs the recovery latch on the monitor's collapse fraction, and sizes
    /// the recovery growth and injection. Returns `Some((target, injected))`
    /// — resample `target − injected` particles and inject `injected` — or
    /// `None` when the ESS gate skips resampling.
    pub(crate) fn decide<S: Scalar>(
        &mut self,
        particles: ParticleSlice<'_, S>,
        weights: &[f32],
    ) -> Option<(usize, usize)> {
        let (min, max) = (self.config.min_particles, self.config.max_particles);
        let bound = self.kld.population_bound(particles, self.kld_saturation);
        let kld_target = bound.clamp(min, max);
        // Recovery latches on only when the belief is concentrated (the
        // unclamped bound sits near the population floor) AND the likelihood
        // collapse clears the dead-band. A kidnapped or aliased-but-committed
        // filter is exactly that: tight and suddenly unlikely. A
        // still-localizing cloud is spread — injecting into it would only
        // perturb global convergence — and small fractions are ordinary
        // likelihood noise. Once latched, the episode persists for up to
        // RECOVERY_EPISODE_UPDATES (the first injection spreads the cloud, so
        // the concentration gate alone would make recovery a useless single
        // shot), ending early as soon as the short-term likelihood catches
        // back up.
        let concentrated = bound <= min * RECOVERY_CONCENTRATION_FACTOR;
        let trigger = f64::from(INJECTION_TRIGGER);
        let raw_fraction = self.monitor.injection_fraction();
        if self.recovery_updates_left > 0 {
            self.recovery_updates_left -= 1;
            // Ending early needs more than a recovered likelihood: right
            // after injection the cloud holds several competing hypotheses,
            // and an aliased competitor can score well for a few updates.
            // Only a likelihood that has caught up *and* a belief that has
            // re-concentrated onto a single mode mean the episode did its
            // job; stopping before consolidation lets the next resample hand
            // the cloud to whichever mode happened to win that round.
            if raw_fraction < RECOVERY_END_FRACTION && concentrated {
                self.recovery_updates_left = 0;
            }
        } else if concentrated && raw_fraction >= trigger {
            self.recovery_updates_left = RECOVERY_EPISODE_UPDATES;
        }
        let recovering = self.recovery_updates_left > 0;
        let can_inject = !self.free_space.is_empty();
        // A likelihood collapse means the belief is concentrated on a wrong
        // mode — a situation the bin statistics cannot see (a confidently
        // wrong cloud occupies as few bins as a correct one). Grow toward the
        // population ceiling in proportion to the collapse so the re-seeded
        // hypotheses get the resolution global re-localization needs. The
        // collapse is held at the trigger floor while latched, so the
        // population stays grown for the whole episode even as the slow
        // average decays toward the collapsed level; the per-beam fraction
        // is compressed relative to the underlying likelihood collapse, so
        // it is rescaled by the saturation point first.
        let target = if recovering && can_inject {
            let collapse = (raw_fraction.max(trigger) / RECOVERY_COLLAPSE_SATURATION).min(1.0);
            (kld_target as f64 + collapse * (max - kld_target) as f64).round() as usize
        } else {
            kld_target
        };
        // Injection follows the *current* mismatch (the classic
        // Augmented-MCL `1 − w_fast/w_slow` rule), not the latched collapse:
        // the latch keeps the population grown for the whole episode, but
        // pouring uniform poses into a cloud whose observations already
        // match again only dilutes the surviving hypotheses and stalls
        // re-convergence. Fractions under the trigger dead-band are
        // likelihood noise, not evidence of a bad hypothesis set. At least
        // one slot always comes from the wheel, so the surviving belief is
        // never discarded outright.
        let injected = if recovering && can_inject && raw_fraction >= trigger {
            let fraction = raw_fraction.min(f64::from(MAX_INJECTION_FRACTION));
            ((target as f64 * fraction).round() as usize).min(target - 1)
        } else {
            0
        };
        // ESS resampling gate: while the weights are still healthy and no
        // recovery episode is running, skip resampling entirely. The reweight
        // kernels multiply new likelihoods into the surviving weights, so
        // skipped updates accumulate the Bayesian product instead of being
        // thrown away — which is what keeps low-weight-but-alive competitor
        // modes (symmetric aisles, repeated rooms) from being starved out by
        // per-update resampling noise.
        let ess_threshold = f64::from(self.config.ess_threshold);
        let healthy = || {
            let ess = f64::from(particle::effective_sample_size_of(weights.iter().copied()));
            ess >= ess_threshold * weights.len() as f64
        };
        if !recovering && ess_threshold > 0.0 && healthy() {
            None
        } else {
            Some((target, injected))
        }
    }

    /// The inject stage: fills slots `kept..` of the freshly resampled
    /// `particles` (whose length is the new population) with uniform poses
    /// over the captured free space, drawn from a salted per-slot RNG stream
    /// (independent of worker count and of the motion kernel's streams).
    pub(crate) fn inject<S: Scalar>(
        &self,
        particles: &mut ParticleBuffer<S>,
        kept: usize,
        seed: u64,
        update_index: u64,
    ) {
        let target = particles.len();
        let jitter = self.free_space_jitter;
        let weight = 1.0 / target as f32;
        let cells = self.free_space.len() as u64;
        for slot in kept..target {
            let mut rng = injection_rng(seed, update_index, slot as u64);
            let (cx, cy) = self.free_space[(rng.next_u64() % cells) as usize];
            let pose = Pose2::new(
                cx + rng.uniform_range(-jitter, jitter),
                cy + rng.uniform_range(-jitter, jitter),
                rng.uniform_range(0.0, core::f32::consts::TAU),
            );
            particles.set(slot, Particle::from_pose(&pose, weight));
        }
    }

    /// Refines the published `estimate` of the first `kept` particles onto
    /// the dominant mode. A multi-modal belief — exactly what the ESS gate
    /// is designed to preserve in symmetric worlds — puts the plain weighted
    /// average *between* the modes; the mean-shift pass reports the heaviest
    /// one instead, the convention of deployed MCL stacks. The refined pose
    /// is published only once the dominant mode holds a majority of the
    /// mass: while several hypotheses are still live, confidently reporting
    /// one of them makes the estimate jump between modes (false convergence,
    /// lost-tracking flags); the conservative full-cloud mean stays far from
    /// every mode and honestly signals "not converged yet".
    pub(crate) fn refine<S: Scalar>(
        &mut self,
        particles: &ParticleBuffer<S>,
        kept: usize,
        estimate: &mut PoseEstimate,
        backend: KernelBackend,
    ) {
        let (pose, mass) = kernel::refine_mode_estimate(
            particles,
            kept,
            estimate.pose,
            MODE_REFINE_RADIUS_M,
            MODE_REFINE_ITERATIONS,
            backend,
            &mut self.mode_refine,
        );
        if mass >= MODE_REFINE_MIN_MASS {
            estimate.pose = pose;
        }
    }
}

/// The deterministic RNG stream for recovery-injected particle `slot` of
/// update `update_index` — salted so it cannot collide with the motion
/// kernel's per-particle streams of the same update, and keyed on the slot so
/// the draw is independent of worker count and dispatch schedule.
fn injection_rng(seed: u64, update_index: u64, slot: u64) -> CounterRng {
    CounterRng::for_particle(seed ^ INJECTION_STREAM_SALT, update_index, slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::{Particle, ParticleBuffer};
    use mcl_gridmap::Pose2;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The bin count as a SipHash set of std-floored bin tuples computes it:
    /// the reference the sampler's stamped table and owned floor must match.
    #[allow(clippy::disallowed_methods)]
    fn reference_bins(particles: &ParticleBuffer<f32>) -> usize {
        let inv_xy = 1.0 / BIN_XY_M;
        let inv_theta = 1.0 / BIN_THETA_RAD;
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
            let mut sampler = KldSampler::default();
            for raw in &clouds {
                let particles = cloud(raw);
                let exact = reference_bins(&particles);
                prop_assert_eq!(sampler.occupied_bins(particles.as_slice(), usize::MAX), exact);
                // A capped count stops at the cap.
                for limit in [0, 1, exact / 2, exact, exact + 1] {
                    prop_assert_eq!(
                        sampler.occupied_bins(particles.as_slice(), limit),
                        exact.min(limit)
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn compact_bin_count_matches_a_sip_hash_set(
            clouds in prop::collection::vec(
                prop::collection::vec((-12.0f32..12.0, -9.0f32..9.0, -7.0f32..7.0), 0..900),
                1..5,
            ),
            scale in 0.05f32..1.5,
        ) {
            // Clouds inside a small box, where many particles share a bin
            // and the cap cuts the insertion short; the scale varies how
            // many share each bin.
            let mut sampler = KldSampler::default();
            for raw in &clouds {
                let particles: ParticleBuffer<f32> = raw
                    .iter()
                    .map(|&(x, y, theta)| Particle {
                        x: x * scale,
                        y: y * scale,
                        theta: theta * scale,
                        weight: 1.0,
                    })
                    .collect();
                let exact = reference_bins(&particles);
                for limit in [usize::MAX, 0, 1, exact / 2, exact] {
                    prop_assert_eq!(
                        sampler.occupied_bins(particles.as_slice(), limit),
                        exact.min(limit)
                    );
                }
            }
        }
    }

    #[test]
    fn bin_set_allocates_on_first_count_and_survives_regrowth() {
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
        let mut sampler = KldSampler::default();
        // A fresh sampler owns no bin storage until its first count.
        assert_eq!(sampler.slots.capacity(), 0);
        for cloud in [&b, &a, &b, &c, &a] {
            assert_eq!(
                sampler.occupied_bins(cloud.as_slice(), usize::MAX),
                reference_bins(cloud)
            );
        }
        // Wrapping the generation stamp clears the table once instead of
        // reading the previous counts' slots as occupied.
        sampler.generation = u32::MAX - 1;
        for cloud in [&a, &c, &b, &a] {
            assert_eq!(
                sampler.occupied_bins(cloud.as_slice(), usize::MAX),
                reference_bins(cloud)
            );
        }
        assert_eq!(sampler.generation, 3);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // std floor as the reference
    fn floor_to_i32_matches_the_std_floor_cast() {
        let check = |v: f32| {
            assert_eq!(
                floor_to_i32(v),
                v.floor() as i32,
                "v = {v:e} ({:#010x})",
                v.to_bits()
            );
        };
        let two_31 = 2147483648.0f32;
        for v in [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.5,
            0.5,
            -1.0,
            -1.5,
            two_31,
            -two_31,
            f32::from_bits(two_31.to_bits() - 1),
            f32::from_bits((-two_31).to_bits() + 1),
            f32::from_bits((-two_31).to_bits() + 1) - 1.0,
            f32::from_bits((-two_31).to_bits() + 1),
            -two_31 - 256.0,
            1e10,
            -1e10,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
        ] {
            check(v);
        }
        // A strided walk over every bit pattern, and a dense walk over the
        // bin range of the filter's poses.
        for bits in (0..=u32::MAX).step_by(4099) {
            check(f32::from_bits(bits));
        }
        let mut v = -300.0f32;
        while v < 300.0 {
            check(v);
            v += 0.007_3;
        }
    }

    /// A cloud of `n` particles spread `spread` metres (and radians) around
    /// a centre, drawn from a seeded stream.
    fn spread_cloud(n: usize, spread: f32, seed: u64) -> ParticleBuffer<f32> {
        let mut rng = CounterRng::for_update(seed, 0);
        (0..n)
            .map(|_| {
                let pose = Pose2::new(
                    3.0 + spread * rng.uniform(),
                    -2.0 + spread * rng.uniform(),
                    spread * (rng.uniform() - 0.5),
                );
                Particle::from_pose(&pose, 1.0 / n as f32)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn capped_bin_count_decides_like_the_exact_count(
            n in 1usize..1500,
            spread in 0.01f32..60.0,
            seed in 0u64..1_000_000,
            min in 1usize..700,
            extra in 0usize..4000,
            fraction in 0.0f64..0.3,
            kind in 0u8..6,
        ) {
            let config = AdaptiveConfig::enabled().with_population_range(min, min + extra);
            let mut capped = AdaptiveState::new(config);
            let cap = capped.kld_saturation;
            // The saturation count is the first one past both thresholds.
            let gate = (min + extra).max(min * RECOVERY_CONCENTRATION_FACTOR);
            prop_assert!(kld_bound(cap, EPSILON, DELTA) > gate);
            prop_assert!(kld_bound(cap - 1, EPSILON, DELTA) <= gate);
            capped.free_space = vec![(1.0, 1.0)];
            // Some draws start inside a recovery episode.
            capped.recovery_updates_left = if kind >= 4 { 1 + u32::from(kind) } else { 0 };
            script(&mut capped, fraction);
            let mut exact = capped.clone();
            exact.kld_saturation = usize::MAX;
            let cloud = spread_cloud(n, spread, seed);
            let weights: Vec<f32> = (0..n)
                .map(|i| if kind % 2 == 0 || i == 0 { 1.0 / n as f32 } else { 0.0 })
                .collect();
            for _ in 0..2 {
                prop_assert_eq!(
                    capped.decide(cloud.as_slice(), &weights),
                    exact.decide(cloud.as_slice(), &weights)
                );
                prop_assert_eq!(capped.recovery_updates_left, exact.recovery_updates_left);
            }
        }
    }

    #[test]
    fn default_range_saturates_near_347_bins() {
        let k = kld_saturation(&AdaptiveConfig::enabled());
        assert!((330..370).contains(&k), "k_sat = {k}");
        assert_eq!(
            kld_saturation(&AdaptiveConfig::enabled().with_population_range(1, usize::MAX)),
            usize::MAX
        );
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
        let mut sampler = KldSampler::default();
        // A converged cloud: every particle in the same 0.5 m / 30° bin.
        let tight: ParticleBuffer<f32> = (0..100)
            .map(|i| Particle::from_pose(&Pose2::new(1.01 + 1e-4 * i as f32, 1.01, 0.1), 0.01))
            .collect();
        assert_eq!(sampler.occupied_bins(tight.as_slice(), usize::MAX), 1);
        assert_eq!(sampler.population_bound(tight.as_slice(), usize::MAX), 1);
        // A spread cloud: one particle per bin.
        let spread: ParticleBuffer<f32> = (0..100)
            .map(|i| Particle::from_pose(&Pose2::new(i as f32, 10.0 + i as f32, 0.0), 0.01))
            .collect();
        assert_eq!(sampler.occupied_bins(spread.as_slice(), usize::MAX), 100);
        // 100 bins ask for ~1350 particles.
        let bound = sampler.population_bound(spread.as_slice(), usize::MAX);
        assert!((1300..1420).contains(&bound), "bound = {bound}");
        // Reuse keeps no stale state.
        assert_eq!(sampler.occupied_bins(tight.as_slice(), usize::MAX), 1);
    }

    #[test]
    fn likelihood_collapse_triggers_injection() {
        let mut monitor = LikelihoodMonitor::default();
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
        assert!(monitor.w_fast < monitor.w_slow);
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
        c.ess_threshold = -0.1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.ess_threshold = f32::NAN;
        assert!(c.validate().is_err());
        // A non-zero resampling gate must sit above the tempering floor,
        // otherwise every tempered update would skip resampling.
        let mut c = ok;
        c.ess_threshold = TEMPER_ESS;
        assert!(c.validate().is_err());
        c.ess_threshold = 0.0;
        assert!(c.validate().is_ok());
    }

    /// The backend the `MCL_KERNEL_BACKEND` leg of the test run selects.
    fn backend() -> KernelBackend {
        crate::config::MclConfig::default().kernel_backend
    }

    /// `Σ f(i)` over `0..n` in the documented pass association, written out
    /// independently of `temper_pass`: 256-index blocks; in each, four lane
    /// accumulators over the whole quads (lane `l` takes the block indices
    /// `≡ l (mod 4)`) merged in order 0..3, then the block tail added
    /// serially; the block partials merged in block order.
    fn block_lane_sum(n: usize, f: impl Fn(usize) -> f64) -> f64 {
        let mut total = 0.0;
        let mut start = 0;
        while start < n {
            let end = (start + 256).min(n);
            let quads = start + (end - start) / 4 * 4;
            let mut lanes = [0.0f64; 4];
            for i in start..quads {
                lanes[(i - start) % 4] += f(i);
            }
            let mut block = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for i in quads..end {
                block += f(i);
            }
            total += block;
            start = end;
        }
        total
    }

    /// The effective sample size of `weights · exp(β·(logs − max_log))`,
    /// with `d` formed in `f64` exactly as the solver forms it, summed
    /// serially with libm `exp` as an independent check.
    #[allow(clippy::disallowed_methods)]
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
        let (tempering, passes) = solve_temper_beta(weights, logs, max_log, target, backend());
        let beta = tempering.beta;
        let reference = bisection_reference(weights, logs, max_log, target);
        assert!(passes <= TEMPER_MAX_PASSES, "{label}: {passes} passes");
        assert!((0.0..=1.0).contains(&beta), "{label}: beta = {beta}");
        let raw = block_lane_sum(logs.len(), |i| {
            exp_f64(f64::from(logs[i]) - f64::from(max_log))
        });
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
        assert_eq!(
            temper_beta(&weights, &logs, -0.05, 2.0, backend()).beta,
            1.0
        );
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
        let beta = temper_beta(&weights, &logs, 0.0, target, backend()).beta;
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
        let (tempering, passes) = solve_temper_beta(&uniform, &one_hot, 0.0, 0.0, backend());
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

    /// Weights and logs of length `n` with every kind of term: healthy
    /// particles, vanished weights, logs far enough below the maximum that
    /// the tempered term underflows, and subnormal weights.
    fn temper_inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let weights = (0..n)
            .map(|i| match i % 11 {
                0 => 0.0,
                1 => 1e-40,
                _ => (1 + i % 7) as f32 / (3 * n) as f32,
            })
            .collect();
        let logs = (0..n)
            .map(|i| match i % 13 {
                0 => -900.0,
                1 => -1.0e30,
                _ => -0.37 * (i % 97) as f32 - 0.001 * i as f32,
            })
            .collect();
        (weights, logs)
    }

    #[test]
    fn temper_pass_sums_follow_the_block_lane_association_on_every_backend() {
        for n in [0usize, 1, 3, 4, 7, 255, 256, 257, 515, 1024, 4099] {
            let (weights, logs) = temper_inputs(n);
            let max_log = -0.25;
            for beta in [1.0, 0.5, 0.031_25, 1e-3] {
                let want: [f64; TEMPER_SLOTS] = core::array::from_fn(|slot| {
                    block_lane_sum(n, |i| {
                        temper_terms::<true>(weights[i], logs[i], max_log, beta)[slot]
                    })
                });
                for backend in KernelBackend::ALL {
                    let label = format!("n = {n}, beta = {beta}, {}", backend.name());
                    let first = temper_pass::<true>(backend, &weights, &logs, max_log, beta);
                    let later = temper_pass::<false>(backend, &weights, &logs, max_log, beta);
                    assert_eq!(first.map(f64::to_bits), want.map(f64::to_bits), "{label}");
                    assert_eq!(
                        later[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn temper_beta_is_bit_identical_across_backends() {
        let mut interior = 0;
        for n in [5usize, 64, 300, 2048, 4097] {
            let (weights, mut logs) = temper_inputs(n);
            // One sharp particle, so the solve has to temper.
            logs[n / 2] = 0.0;
            for fraction in [0.05, 0.15, 0.4] {
                let target = fraction * n as f64;
                let (reference, reference_passes) =
                    solve_temper_beta(&weights, &logs, 0.0, target, KernelBackend::Scalar);
                for backend in KernelBackend::ALL {
                    let (tempering, passes) =
                        solve_temper_beta(&weights, &logs, 0.0, target, backend);
                    let label = format!("n = {n}, target = {target}, {}", backend.name());
                    assert_eq!(
                        tempering.beta.to_bits(),
                        reference.beta.to_bits(),
                        "{label}"
                    );
                    assert_eq!(
                        tempering.raw_likelihood_sum.to_bits(),
                        reference.raw_likelihood_sum.to_bits(),
                        "{label}"
                    );
                    assert_eq!(passes, reference_passes, "{label}");
                }
                interior += usize::from(reference.beta > 0.0 && reference.beta < 1.0);
            }
        }
        assert!(interior >= 10, "only {interior} solves tempered");
    }

    #[test]
    fn population_range_builder() {
        let c = AdaptiveConfig::enabled().with_population_range(128, 2048);
        assert!(c.enabled);
        assert_eq!(c.min_particles, 128);
        assert_eq!(c.max_particles, 2048);
    }

    /// A cloud of `n` particles in one KLD bin (concentrated) or spread one
    /// per bin over the plane.
    fn decide_cloud(n: usize, concentrated: bool) -> ParticleBuffer<f32> {
        (0..n)
            .map(|i| {
                let pose = if concentrated {
                    Pose2::new(1.01 + 1e-4 * i as f32, 1.01, 0.1)
                } else {
                    Pose2::new(i as f32, 10.0 + i as f32, 0.0)
                };
                Particle::from_pose(&pose, 1.0 / n as f32)
            })
            .collect()
    }

    /// Scripts the monitor so its collapse fraction reads `fraction` (up to
    /// the rounding of `1 − (1 − fraction)`).
    fn script(state: &mut AdaptiveState, fraction: f64) {
        state.monitor = LikelihoodMonitor {
            w_fast: 1.0 - fraction,
            w_slow: 1.0,
            primed: true,
        };
    }

    /// An enabled state over the default population range `[256, 4096]`
    /// with one free cell to inject into.
    fn decide_state() -> AdaptiveState {
        let mut state = AdaptiveState::new(AdaptiveConfig::enabled());
        state.free_space = vec![(1.0, 1.0)];
        state
    }

    const N: usize = 256;

    /// Runs one decide on the tight or spread cloud with uniform weights
    /// (healthy ESS) or one-hot weights (collapsed ESS).
    fn decide_on(
        state: &mut AdaptiveState,
        concentrated: bool,
        healthy: bool,
    ) -> Option<(usize, usize)> {
        let cloud = decide_cloud(N, concentrated);
        let weights: Vec<f32> = (0..N)
            .map(|i| match (healthy, i) {
                (true, _) => 1.0 / N as f32,
                (false, 0) => 1.0,
                (false, _) => 0.0,
            })
            .collect();
        state.decide(cloud.as_slice(), &weights)
    }

    #[test]
    fn decide_latches_only_on_a_concentrated_cloud_at_the_trigger() {
        let trigger = f64::from(INJECTION_TRIGGER);
        // Below the dead-band: likelihood noise, no episode.
        let mut state = decide_state();
        script(&mut state, 0.05);
        assert_eq!(decide_on(&mut state, true, false), Some((256, 0)));
        assert_eq!(state.recovery_updates_left, 0);
        // A spread (still-localizing) cloud is never perturbed, however hard
        // the collapse.
        script(&mut state, 0.2);
        let spread = kld_bound(N, EPSILON, DELTA).clamp(256, 4096);
        assert_eq!(decide_on(&mut state, false, false), Some((spread, 0)));
        assert_eq!(state.recovery_updates_left, 0);
        // Concentrated and exactly at the trigger: the episode latches.
        script(&mut state, trigger);
        assert_eq!(state.monitor.injection_fraction(), trigger);
        let (target, injected) = decide_on(&mut state, true, true).expect("recovering");
        assert_eq!(state.recovery_updates_left, RECOVERY_EPISODE_UPDATES);
        assert!(target > 256 && injected > 0, "{target} {injected}");
    }

    #[test]
    fn decide_runs_a_thirty_update_episode() {
        let mut state = decide_state();
        script(&mut state, 0.2);
        assert!(decide_on(&mut state, true, true).is_some());
        // Above the end fraction but under the trigger: the episode holds the
        // population grown (and the ESS gate open) without injecting.
        script(&mut state, 0.05);
        let mut recovering = 1;
        while let Some((target, injected)) = decide_on(&mut state, true, true) {
            assert!(target > 256, "update {recovering}: target {target}");
            assert_eq!(injected, 0, "update {recovering}");
            recovering += 1;
        }
        assert_eq!(recovering, RECOVERY_EPISODE_UPDATES);
        assert_eq!(state.recovery_updates_left, 0);
    }

    #[test]
    fn decide_ends_an_episode_early_only_when_recovered_and_concentrated() {
        let mut state = decide_state();
        script(&mut state, 0.2);
        assert!(decide_on(&mut state, true, true).is_some());
        // Recovered likelihood, but the cloud is still spread over the
        // competing hypotheses: keep going.
        script(&mut state, 0.0);
        assert!(decide_on(&mut state, false, true).is_some());
        assert_eq!(state.recovery_updates_left, RECOVERY_EPISODE_UPDATES - 1);
        // Concentrated again, but the likelihood has not caught up.
        script(&mut state, 0.03);
        assert!(decide_on(&mut state, true, true).is_some());
        assert_eq!(state.recovery_updates_left, RECOVERY_EPISODE_UPDATES - 2);
        // Both: the episode ends and the ESS gate skips this resample.
        script(&mut state, 0.0);
        assert_eq!(decide_on(&mut state, true, true), None);
        assert_eq!(state.recovery_updates_left, 0);
    }

    #[test]
    fn decide_neither_grows_nor_injects_without_free_space() {
        let mut with_space = decide_state();
        script(&mut with_space, 0.2);
        // collapse 0.8: 256 + 0.8 · (4096 − 256) = 3328, 5 % of it injected.
        assert_eq!(decide_on(&mut with_space, true, false), Some((3328, 166)));
        let mut without = AdaptiveState::new(AdaptiveConfig::enabled());
        script(&mut without, 0.2);
        assert_eq!(decide_on(&mut without, true, false), Some((256, 0)));
        // The episode still latches, so the ESS gate stays open.
        assert_eq!(without.recovery_updates_left, RECOVERY_EPISODE_UPDATES);
        assert_eq!(decide_on(&mut without, true, true), Some((256, 0)));
    }

    #[test]
    fn decide_skips_resampling_only_outside_an_episode() {
        let mut state = decide_state();
        script(&mut state, 0.0);
        assert_eq!(decide_on(&mut state, true, true), None);
        assert_eq!(decide_on(&mut state, true, false), Some((256, 0)));
        script(&mut state, 0.2);
        assert!(decide_on(&mut state, true, true).is_some());
        // A disabled gate resamples healthy weights too.
        let mut ungated = AdaptiveState::new(AdaptiveConfig {
            ess_threshold: 0.0,
            ..AdaptiveConfig::enabled()
        });
        script(&mut ungated, 0.0);
        assert_eq!(decide_on(&mut ungated, true, true), Some((256, 0)));
    }
}
