//! Sample summaries and result digests.

use std::time::Instant;

/// Microseconds elapsed since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Consecutive windows a timing series is cut into; see [`Summary::of`].
pub const WINDOWS: usize = 10;

/// Applies `f` to each of `windows` consecutive windows of `samples`.
pub fn per_window(samples: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let size = (samples.len() / windows).max(1);
    samples.chunks(size).take(windows).map(f).collect()
}

/// The value of the least-disturbed windows: the lower quartile of
/// per-window times. The benchmark runs on shared virtual CPUs, where other
/// tenants steal time in bursts; a burst slows the windows it overlaps, and
/// the lower quartile reports the windows it missed.
pub fn fast_time(window_values: &[f64]) -> f64 {
    percentile(window_values, 0.25)
}

/// The upper quartile of per-window rates (see [`fast_time`]).
pub fn fast_rate(window_rates: &[f64]) -> f64 {
    percentile(window_rates, 0.75)
}

/// The timing summary the benchmark reports: the median and the 99th
/// percentile within each of [`WINDOWS`] (or `windows`) consecutive windows
/// of the series, each reduced over the windows by [`fast_time`]. A
/// window's 99th percentile has at least ten samples beyond it from 1000
/// samples per window on; `tail_ok` says whether that holds.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    windows: usize,
    per_window: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Self::windowed(samples, WINDOWS)
    }

    pub fn windowed(samples: &[f64], windows: usize) -> Self {
        Summary {
            n: samples.len(),
            p50: fast_time(&per_window(samples, windows, median)),
            p99: fast_time(&per_window(samples, windows, |w| percentile(w, 0.99))),
            windows,
            per_window: (samples.len() / windows).max(1),
        }
    }

    pub fn tail_ok(&self) -> bool {
        self.per_window >= 1000
    }

    /// One human-readable line: `label p50 p99 (n samples)`.
    pub fn line(&self, label: &str, unit: &str) -> String {
        format!(
            "{label}: p50 {:.3} {unit}, p99 {:.3} {unit} ({} windows of {} of {} samples){}",
            self.p50,
            self.p99,
            self.windows,
            self.per_window,
            self.n,
            if self.tail_ok() {
                ""
            } else {
                "; fewer than 10 samples beyond each window's p99"
            }
        )
    }
}

/// A well-mixed seed for stream `index` of a run seeded with `seed`
/// (SplitMix64). The filters key their noise streams linearly on the seed,
/// so nearby seeds would replay shifted copies of each other's draws;
/// mixed seeds keep flights and drones independent.
pub fn mixed_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of published poses: two replays agree
/// exactly when their digests do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, value: f32) {
        self.push_bytes(&value.to_bits().to_le_bytes());
    }

    pub fn push_u64(&mut self, value: u64) {
        self.push_bytes(&value.to_le_bytes());
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_tells_bit_patterns_apart() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(0.0);
        b.push(-0.0);
        assert_ne!(a, b);
    }
}
