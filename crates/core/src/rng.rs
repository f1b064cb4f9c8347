//! Counter-based random number generation for reproducible, parallel sampling.
//!
//! The motion model needs three Gaussian samples per particle per update (two
//! Box–Muller pairs, four uniforms) and the resampler needs a single uniform
//! draw per update. On the GAP9 cluster the
//! particles are split across eight worker cores; a shared sequential RNG would
//! either serialize the workers or make results depend on the scheduling order.
//! The paper's implementation sidesteps this by giving every particle its own
//! deterministic stream; we do the same with a counter-based generator: the
//! random numbers for particle `i` at update `t` are a pure function of
//! `(seed, t, i)`, so sequential and parallel execution produce bit-identical
//! particle sets (a property the test-suite checks).

/// Multiplier mixing the particle index into a stream's start state.
pub(crate) const PARTICLE_MIX: u64 = 0x1656_67B1_9E37_79F9;
/// The SplitMix64 state increment (the golden-ratio "gamma").
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// The two multipliers of the SplitMix64 output scrambler.
pub(crate) const SCRAMBLE: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// A counter-based pseudo random number generator (SplitMix64 over a hashed
/// counter), giving an independent stream per `(seed, update, particle)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Creates the stream for `(seed, update_index, particle_index)`.
    pub fn for_particle(seed: u64, update_index: u64, particle_index: u64) -> Self {
        // Mix the three inputs with distinct large odd constants before the
        // SplitMix64 scrambler so neighbouring particles get unrelated streams.
        let mixed = Self::stream_base(seed, update_index)
            .wrapping_add(particle_index.wrapping_mul(PARTICLE_MIX));
        CounterRng { state: mixed }
    }

    /// The part of a stream's start state shared by every particle of one
    /// `(seed, update)`: particle `i`'s stream starts at
    /// `base + i·PARTICLE_MIX` (wrapping), which is how the AVX2 motion body
    /// seeds eight streams at once.
    pub(crate) fn stream_base(seed: u64, update_index: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(update_index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(0x2545_F491_4F6C_DD1D)
    }

    /// Creates the stream for a per-update (not per-particle) draw, such as the
    /// single random offset of the systematic resampling wheel.
    pub fn for_update(seed: u64, update_index: u64) -> Self {
        Self::for_particle(seed, update_index, u64::MAX)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(SCRAMBLE[0]);
        z = (z ^ (z >> 27)).wrapping_mul(SCRAMBLE[1]);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform `f32` in `[low, high)`.
    pub fn uniform_range(&mut self, low: f32, high: f32) -> f32 {
        low + (high - low) * self.uniform()
    }

    /// Two independent samples from `N(0, 1)`: one Box–Muller transform of
    /// the next two uniforms (see [`box_muller`]).
    pub fn standard_normal_pair(&mut self) -> (f32, f32) {
        let u1 = self.uniform();
        let u2 = self.uniform();
        box_muller(u1, u2)
    }

    /// One sample from `N(0, 1)`: the first half of
    /// [`CounterRng::standard_normal_pair`] (two uniforms are consumed).
    pub fn standard_normal(&mut self) -> f32 {
        self.standard_normal_pair().0
    }

    /// One sample from `N(mean, std²)`; `std == 0` returns `mean` exactly.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        if std <= 0.0 {
            mean
        } else {
            mean + std * self.standard_normal()
        }
    }
}

/// The Box–Muller transform of two uniform draws in `[0, 1)` into two
/// independent standard normals:
/// `ρ = √(−2·ln(1 − u1))`, `(sin φ, cos φ) = sin_cos(2π·u2)`, result
/// `(ρ·cos φ, ρ·sin φ)`.
///
/// `1 − u1` is exact and lies in `[2⁻²⁴, 1]` for the 24-bit uniforms of
/// [`CounterRng::uniform`], so the logarithm is always finite. The
/// transcendentals are the owned [`mcl_num::math`] functions, so the normals
/// are the same bits on every host and in every kernel backend.
#[inline]
pub fn box_muller(u1: f32, u2: f32) -> (f32, f32) {
    let radius = (-2.0 * mcl_num::math::ln(1.0 - u1)).sqrt();
    let (sin_phi, cos_phi) = mcl_num::math::sin_cos(core::f32::consts::TAU * u2);
    (radius * cos_phi, radius * sin_phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_num::RunningStats;

    #[test]
    fn streams_are_deterministic() {
        let mut a = CounterRng::for_particle(1, 2, 3);
        let mut b = CounterRng::for_particle(1, 2, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_particles_get_different_streams() {
        let mut a = CounterRng::for_particle(1, 2, 3);
        let mut b = CounterRng::for_particle(1, 2, 4);
        let mut c = CounterRng::for_particle(1, 3, 3);
        let mut d = CounterRng::for_particle(2, 2, 3);
        let a0 = a.next_u64();
        assert_ne!(a0, b.next_u64());
        assert_ne!(a0, c.next_u64());
        assert_ne!(a0, d.next_u64());
    }

    #[test]
    fn uniform_is_in_range_and_roughly_uniform() {
        let mut stats = RunningStats::new();
        for i in 0..4000u64 {
            let mut rng = CounterRng::for_particle(7, 0, i);
            let v = rng.uniform();
            assert!((0.0..1.0).contains(&v));
            stats.push(f64::from(v));
        }
        assert!((stats.mean() - 0.5).abs() < 0.02);
        // Variance of U(0,1) is 1/12 ≈ 0.0833.
        assert!((stats.sample_variance() - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn normal_has_requested_moments() {
        let mut stats = RunningStats::new();
        for i in 0..8000u64 {
            let mut rng = CounterRng::for_particle(11, 1, i);
            stats.push(f64::from(rng.normal(2.0, 0.3)));
        }
        assert!((stats.mean() - 2.0).abs() < 0.02);
        assert!((stats.stddev() - 0.3).abs() < 0.02);
    }

    /// 2¹⁶ pairs from consecutive particle streams: `(first, second)` halves.
    fn pair_sample() -> (Vec<f64>, Vec<f64>) {
        (0..1u64 << 16)
            .map(|i| {
                let (a, b) = CounterRng::for_particle(17, 3, i).standard_normal_pair();
                (f64::from(a), f64::from(b))
            })
            .unzip()
    }

    /// `(mean, variance, skewness, excess kurtosis)` of a sample.
    fn moments(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let central = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let var = central(2);
        (
            mean,
            var,
            central(3) / var.powf(1.5),
            central(4) / (var * var) - 3.0,
        )
    }

    /// Standard normal CDF through the Abramowitz–Stegun 7.1.26 erf fit
    /// (absolute error below 1.5·10⁻⁷, far under the KS tolerance), on libm
    /// as an independent reference.
    #[allow(clippy::disallowed_methods)]
    fn phi(x: f64) -> f64 {
        let z = x.abs() / core::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    #[test]
    fn normal_pairs_have_standard_normal_moments() {
        // Standard errors at n = 2¹⁶: mean 0.0039, variance 0.0055, skewness
        // 0.0096, excess kurtosis 0.019. The bounds sit at about five of them.
        let (first, second) = pair_sample();
        for (half, xs) in [("first", &first), ("second", &second)] {
            let (mean, var, skew, kurt) = moments(xs);
            assert!(mean.abs() < 0.02, "{half}: mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "{half}: variance {var}");
            assert!(skew.abs() < 0.05, "{half}: skewness {skew}");
            assert!(kurt.abs() < 0.1, "{half}: excess kurtosis {kurt}");
        }
    }

    #[test]
    fn normal_pairs_pass_a_kolmogorov_smirnov_test_against_phi() {
        // One-sample KS statistic: the 1 % critical value is 1.628/√n.
        let (first, second) = pair_sample();
        for (half, mut xs) in [("first", first), ("second", second)] {
            xs.sort_by(f64::total_cmp);
            let n = xs.len() as f64;
            let d = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let cdf = phi(x);
                    (cdf - i as f64 / n)
                        .abs()
                        .max((((i + 1) as f64) / n - cdf).abs())
                })
                .fold(0.0f64, f64::max);
            let critical = 1.628 / n.sqrt();
            assert!(d < critical, "{half}: KS D = {d}, critical {critical}");
        }
    }

    #[test]
    fn the_halves_of_a_pair_are_uncorrelated() {
        let (first, second) = pair_sample();
        let n = first.len() as f64;
        let (ma, va, _, _) = moments(&first);
        let (mb, vb, _, _) = moments(&second);
        let cov = first
            .iter()
            .zip(&second)
            .map(|(a, b)| (a - ma) * (b - mb))
            .sum::<f64>()
            / n;
        let rho = cov / (va * vb).sqrt();
        // Standard error 1/√n ≈ 0.0039.
        assert!(rho.abs() < 0.02, "correlation {rho}");
        // Their squares too: Box–Muller halves share a radius, so a broken
        // angle would show up as dependence between the magnitudes.
        let sq = |xs: &[f64]| xs.iter().map(|x| x * x).collect::<Vec<_>>();
        let (sa, sb) = (sq(&first), sq(&second));
        let (msa, vsa, _, _) = moments(&sa);
        let (msb, vsb, _, _) = moments(&sb);
        let cov_sq = sa
            .iter()
            .zip(&sb)
            .map(|(a, b)| (a - msa) * (b - msb))
            .sum::<f64>()
            / n;
        let rho_sq = cov_sq / (vsa * vsb).sqrt();
        assert!(rho_sq.abs() < 0.02, "correlation of squares {rho_sq}");
    }

    #[test]
    fn standard_normal_is_the_first_half_of_the_pair() {
        let mut a = CounterRng::for_particle(4, 5, 6);
        let mut b = a;
        assert_eq!(a.standard_normal(), b.standard_normal_pair().0);
        // Both consumed exactly two uniforms.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn box_muller_extremes_stay_finite() {
        // u1 = 0 gives radius 0; the largest u1 gives the 2⁻²⁴ tail.
        assert_eq!(box_muller(0.0, 0.3).0.abs(), 0.0);
        let largest = 1.0 - 1.0 / (1u32 << 24) as f32;
        let (a, b) = box_muller(largest, 0.0);
        assert!(
            (a - (-2.0 * (2f32).powi(-24).ln()).sqrt()).abs() < 1e-5,
            "{a}"
        );
        assert_eq!(b, 0.0);
    }

    #[test]
    fn zero_std_normal_is_exact() {
        let mut rng = CounterRng::for_particle(0, 0, 0);
        assert_eq!(rng.normal(1.25, 0.0), 1.25);
    }

    #[test]
    fn uniform_range_spans_the_interval() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..2000u64 {
            let mut rng = CounterRng::for_particle(3, 5, i);
            let v = rng.uniform_range(-2.0, 4.0);
            assert!((-2.0..4.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(
            lo < -1.5 && hi > 3.5,
            "samples should cover most of the range"
        );
    }

    #[test]
    fn update_stream_differs_from_particle_streams() {
        let mut u = CounterRng::for_update(5, 9);
        let mut p = CounterRng::for_particle(5, 9, 0);
        assert_ne!(u.next_u64(), p.next_u64());
    }
}
