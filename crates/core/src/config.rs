//! Filter configuration and error type.

use crate::adaptive::AdaptiveConfig;
use crate::kernel::KernelBackend;
use serde::{Deserialize, Serialize};

/// Configuration of the Monte Carlo localization filter.
///
/// The defaults are the parameters the paper uses in its experimental
/// evaluation (§IV-A): `σ_odom = (0.1 m, 0.1 m, 0.1 rad)`, `r_max = 1.5 m`,
/// `d_xy = 0.1 m`, `d_θ = 0.1 rad`, and 4096 particles (the particle count the
/// convergence figure is reported for). The paper quotes `σ_obs = 2.0` in map
/// cells; this crate keeps all distances in metres and defaults to 0.2 m.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MclConfig {
    /// Number of particles `N`.
    pub num_particles: usize,
    /// Odometry noise standard deviations `(σ_x, σ_y, σ_θ)` applied per gated
    /// motion update, in metres / metres / radians.
    pub sigma_odom: [f32; 3],
    /// Observation-model standard deviation `σ_obs` of Eq. 1, in metres.
    /// The paper quotes 2.0 in map-cell units; the 0.2 m default here covers
    /// that value (0.1 m at the 0.05 m resolution) plus the hand-measured map
    /// inaccuracy the paper mentions.
    pub sigma_obs: f32,
    /// UWB anchor-range standard deviation `σ_uwb` of the fusion pipeline's
    /// [`AnchorRangeModel`](crate::observation::AnchorRangeModel), in metres.
    /// Matches the ranging noise of the UWB trilateration baseline (0.15 m,
    /// the figure the Land & Localize line of work reports for nano-UAV UWB
    /// decks). Only consulted when an update carries anchor ranges; beam-only
    /// updates never read it.
    pub sigma_uwb: f32,
    /// Truncation distance of the Euclidean distance transform, metres.
    pub r_max: f32,
    /// Translation gate: observations are only processed once the drone moved at
    /// least this far since the previous update, metres.
    pub d_xy: f32,
    /// Rotation gate: observations are also processed when the drone rotated at
    /// least this much since the previous update, radians.
    pub d_theta: f32,
    /// Number of worker cores the parallel steps are distributed over
    /// (8 on the GAP9 cluster; 1 reproduces the single-core baseline).
    pub workers: usize,
    /// Random seed for the filter's internal (counter-based) noise generator.
    pub seed: u64,
    /// Which kernel implementations the filter dispatches. All backends are
    /// bit-identical (see the `mcl_core::kernel` backend contract);
    /// [`MclConfig::default`] honours the `MCL_KERNEL_BACKEND` environment
    /// override so whole test/bench runs can be flipped, and otherwise
    /// resolves [`KernelBackend::detect`] — [`KernelBackend::Avx2`] on
    /// AVX2-capable x86-64 hosts, [`KernelBackend::Lanes`] everywhere else.
    pub kernel_backend: KernelBackend,
    /// Adaptive (KLD-sampling + recovery-injection) population control.
    /// Disabled by default, in which case the filter keeps the fixed
    /// `num_particles` population and is bit-identical to the seed
    /// behaviour. [`MclConfig::default`] honours the `MCL_ADAPTIVE`,
    /// `MCL_ADAPTIVE_MIN` and `MCL_ADAPTIVE_MAX` environment overrides
    /// (see [`AdaptiveConfig::from_env`]).
    pub adaptive: AdaptiveConfig,
}

impl Default for MclConfig {
    fn default() -> Self {
        MclConfig {
            num_particles: 4096,
            sigma_odom: [0.1, 0.1, 0.1],
            sigma_obs: 0.2,
            sigma_uwb: 0.15,
            r_max: 1.5,
            d_xy: 0.1,
            d_theta: 0.1,
            workers: 1,
            seed: 0,
            kernel_backend: KernelBackend::from_env().unwrap_or_else(KernelBackend::detect),
            adaptive: AdaptiveConfig::from_env(),
        }
    }
}

impl MclConfig {
    /// Returns a copy with a different particle count.
    pub fn with_particles(mut self, n: usize) -> Self {
        self.num_particles = n;
        self
    }

    /// Returns a copy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different UWB anchor-range standard deviation.
    pub fn with_sigma_uwb(mut self, sigma_uwb: f32) -> Self {
        self.sigma_uwb = sigma_uwb;
        self
    }

    /// Returns a copy with a different kernel backend (overriding both the
    /// default and the `MCL_KERNEL_BACKEND` environment resolution).
    pub fn with_kernel_backend(mut self, backend: KernelBackend) -> Self {
        self.kernel_backend = backend;
        self
    }

    /// Returns a copy with a different adaptive population configuration
    /// (overriding both the default and the `MCL_ADAPTIVE*` environment
    /// resolution).
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MclError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), MclError> {
        if self.num_particles == 0 {
            return Err(MclError::InvalidConfig("num_particles must be > 0"));
        }
        if self.sigma_odom.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(MclError::InvalidConfig(
                "sigma_odom components must be finite and non-negative",
            ));
        }
        if !(self.sigma_obs.is_finite() && self.sigma_obs > 0.0) {
            return Err(MclError::InvalidConfig("sigma_obs must be positive"));
        }
        if !(self.sigma_uwb.is_finite() && self.sigma_uwb > 0.0) {
            return Err(MclError::InvalidConfig("sigma_uwb must be positive"));
        }
        if !(self.r_max.is_finite() && self.r_max > 0.0) {
            return Err(MclError::InvalidConfig("r_max must be positive"));
        }
        if !(self.d_xy.is_finite() && self.d_xy >= 0.0) {
            return Err(MclError::InvalidConfig("d_xy must be non-negative"));
        }
        if !(self.d_theta.is_finite() && self.d_theta >= 0.0) {
            return Err(MclError::InvalidConfig("d_theta must be non-negative"));
        }
        if self.workers == 0 {
            return Err(MclError::InvalidConfig("workers must be > 0"));
        }
        if self.adaptive.enabled {
            self.adaptive.validate()?;
        }
        Ok(())
    }
}

/// Errors returned by the localization filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MclError {
    /// The configuration violates a constraint (the message names it).
    InvalidConfig(&'static str),
    /// The filter was asked to act before its particles were initialized.
    NotInitialized,
    /// The map contains no free cell to place particles in.
    NoFreeSpace,
}

impl core::fmt::Display for MclError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MclError::InvalidConfig(msg) => write!(f, "invalid MCL configuration: {msg}"),
            MclError::NotInitialized => write!(f, "particle set has not been initialized"),
            MclError::NoFreeSpace => write!(f, "map has no free cells to initialize particles in"),
        }
    }
}

impl std::error::Error for MclError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = MclConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_particles, 4096);
        assert_eq!(cfg.sigma_odom, [0.1, 0.1, 0.1]);
        // The paper quotes σ_obs = 2.0 (map cells); in metres we default to
        // 0.2 m, which also absorbs the hand-measured map error it mentions.
        assert_eq!(cfg.sigma_obs, 0.2);
        // The UWB fusion sigma matches the trilateration baseline's ranging
        // noise (not a paper parameter — the paper is ToF-only).
        assert_eq!(cfg.sigma_uwb, 0.15);
        assert_eq!(cfg.r_max, 1.5);
        assert_eq!(cfg.d_xy, 0.1);
        assert_eq!(cfg.d_theta, 0.1);
    }

    #[test]
    fn builder_helpers() {
        let cfg = MclConfig::default()
            .with_particles(64)
            .with_workers(8)
            .with_seed(99)
            .with_kernel_backend(KernelBackend::Scalar);
        assert_eq!(cfg.num_particles, 64);
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.kernel_backend, KernelBackend::Scalar);
    }

    #[test]
    fn default_backend_is_the_env_resolution() {
        // Without an override the production default is the host-detected
        // backend (AVX2 where available, the portable lane backend
        // otherwise); under the CI matrix the override wins. Either way the
        // default must equal the documented resolution rule.
        let expected = KernelBackend::from_env().unwrap_or_else(KernelBackend::detect);
        assert_eq!(MclConfig::default().kernel_backend, expected);
        assert_eq!(KernelBackend::default(), KernelBackend::Lanes);
    }

    #[test]
    fn each_constraint_is_validated() {
        let ok = MclConfig::default();
        assert!(ok.validate().is_ok());
        let mut c = ok;
        c.num_particles = 0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.sigma_odom = [0.1, -0.1, 0.1];
        assert!(c.validate().is_err());
        let mut c = ok;
        c.sigma_obs = 0.0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.sigma_uwb = -0.1;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.sigma_uwb = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.r_max = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.d_xy = -1.0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.d_theta = f32::INFINITY;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.workers = 0;
        assert!(c.validate().is_err());
        // Adaptive constraints are only enforced when the switch is on.
        let mut c = ok;
        c.adaptive.min_particles = 0;
        assert!(c.validate().is_ok());
        c.adaptive.enabled = true;
        assert!(c.validate().is_err());
    }

    #[test]
    fn adaptive_builder_and_default() {
        // The default keeps adaptive off unless MCL_ADAPTIVE is set in the
        // environment (never set inside the test suite).
        let cfg = MclConfig::default();
        assert_eq!(cfg.adaptive, AdaptiveConfig::from_env());
        let cfg = cfg.with_adaptive(AdaptiveConfig::enabled().with_population_range(64, 512));
        assert!(cfg.adaptive.enabled);
        assert_eq!(cfg.adaptive.min_particles, 64);
        assert_eq!(cfg.adaptive.max_particles, 512);
        cfg.validate().unwrap();
    }

    #[test]
    fn errors_display_meaningful_messages() {
        assert!(MclError::InvalidConfig("x").to_string().contains("x"));
        assert!(MclError::NotInitialized.to_string().contains("initialized"));
        assert!(MclError::NoFreeSpace.to_string().contains("free cells"));
    }
}
