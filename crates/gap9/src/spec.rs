//! Static parameters of the GAP9 SoC (paper §III-B).

/// The GAP9 resources relevant to the localization pipeline.
///
/// GAP9 is a PULP-family SoC with a fabric controller (FC) and a 9-core compute
/// cluster (one orchestrator plus eight workers), 128 kB of shared L1 inside the
/// cluster, 1.5 MB of interleaved L2, 2 MB of flash and an adjustable clock of up
/// to 400 MHz on both the FC and the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gap9Spec {
    /// Shared cluster L1 memory in bytes (128 kB).
    pub l1_bytes: usize,
    /// Interleaved L2 memory in bytes (1.5 MB).
    pub l2_bytes: usize,
    /// On-chip flash in bytes (2 MB).
    pub flash_bytes: usize,
    /// Fabric-controller RAM in bytes (64 kB).
    pub fc_ram_bytes: usize,
    /// Number of cluster cores usable as data-parallel workers (8).
    pub worker_cores: usize,
    /// Total cluster cores including the orchestrator (9).
    pub cluster_cores: usize,
    /// Maximum clock frequency in hertz (400 MHz).
    pub max_frequency_hz: f64,
    /// Minimum practical clock frequency in hertz used by the paper (12 MHz).
    pub min_frequency_hz: f64,
}

impl Default for Gap9Spec {
    fn default() -> Self {
        Gap9Spec {
            l1_bytes: 128 * 1024,
            l2_bytes: 1536 * 1024,
            flash_bytes: 2 * 1024 * 1024,
            fc_ram_bytes: 64 * 1024,
            worker_cores: 8,
            cluster_cores: 9,
            max_frequency_hz: 400e6,
            min_frequency_hz: 12e6,
        }
    }
}

impl Gap9Spec {
    /// Seconds per clock cycle at the maximum frequency.
    pub fn cycle_time_s(&self) -> f64 {
        1.0 / self.max_frequency_hz
    }

    /// The real-time budget per MCL update at the paper's 15 Hz sensor rate,
    /// in seconds (the paper states processing must finish in less than 67 ms).
    pub const REAL_TIME_BUDGET_S: f64 = 1.0 / 15.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_the_paper() {
        let spec = Gap9Spec::default();
        assert_eq!(spec.l1_bytes, 131_072);
        assert_eq!(spec.l2_bytes, 1_572_864);
        assert_eq!(spec.flash_bytes, 2_097_152);
        assert_eq!(spec.fc_ram_bytes, 65_536);
        assert_eq!(spec.worker_cores, 8);
        assert_eq!(spec.cluster_cores, 9);
        assert_eq!(spec.max_frequency_hz, 400e6);
        assert_eq!(spec.min_frequency_hz, 12e6);
    }

    #[test]
    fn cycle_time_and_budget() {
        let spec = Gap9Spec::default();
        assert!((spec.cycle_time_s() - 2.5e-9).abs() < 1e-15);
        assert!((Gap9Spec::REAL_TIME_BUDGET_S - 0.0667).abs() < 1e-3);
    }
}
