//! Static configuration of the VL53L5CX sensor model.

/// Electrical power drawn by one VL53L5CX while ranging, in milliwatts.
///
/// The paper budgets 320 mW per sensor when summing the total sensing and
/// processing power (§IV-E).
pub const SENSOR_POWER_MW: f32 = 320.0;

/// Zone-matrix resolution of the sensor.
///
/// The VL53L5CX can range either an 8×8 matrix at up to 15 Hz or a 4×4 matrix at
/// up to 60 Hz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ZoneMode {
    /// 8×8 zones, maximum 15 Hz frame rate (the configuration used in the paper's
    /// experiments — its MCL update rate is limited by this 15 Hz).
    #[default]
    Grid8x8,
    /// 4×4 zones, maximum 60 Hz frame rate.
    Grid4x4,
}

impl ZoneMode {
    /// Number of zone columns (horizontal direction).
    pub fn columns(self) -> usize {
        match self {
            ZoneMode::Grid8x8 => 8,
            ZoneMode::Grid4x4 => 4,
        }
    }

    /// Number of zone rows (vertical direction).
    pub fn rows(self) -> usize {
        match self {
            ZoneMode::Grid8x8 => 8,
            ZoneMode::Grid4x4 => 4,
        }
    }

    /// Total number of zones in a frame.
    pub fn zone_count(self) -> usize {
        self.columns() * self.rows()
    }

    /// Maximum frame rate in hertz for this mode.
    pub fn max_rate_hz(self) -> f32 {
        match self {
            ZoneMode::Grid8x8 => 15.0,
            ZoneMode::Grid4x4 => 60.0,
        }
    }

    /// Frame period in seconds at the maximum rate.
    pub fn frame_period_s(self) -> f32 {
        1.0 / self.max_rate_hz()
    }
}

/// Configuration of one simulated VL53L5CX.
///
/// The defaults reproduce the sensor as used in the paper: 8×8 zones at 15 Hz, a
/// 45° square field of view, ~4 m maximum range and centimetre-level range noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Zone matrix mode.
    pub mode: ZoneMode,
    /// Full horizontal field of view in radians (45° for the VL53L5CX).
    pub fov_horizontal_rad: f32,
    /// Full vertical field of view in radians (45° for the VL53L5CX).
    pub fov_vertical_rad: f32,
    /// Maximum measurable range in metres (~4 m for the VL53L5CX indoors).
    pub max_range_m: f32,
    /// Minimum measurable range in metres.
    pub min_range_m: f32,
    /// Standard deviation of the additive Gaussian range noise, in metres.
    pub range_noise_std_m: f32,
    /// Probability that a zone measurement is dropped due to interference or low
    /// signal, raising the error flag.
    pub interference_probability: f64,
    /// Frame rate in hertz; clamped to the mode's maximum when the sensor runs.
    pub frame_rate_hz: f32,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            mode: ZoneMode::Grid8x8,
            fov_horizontal_rad: 45f32.to_radians(),
            fov_vertical_rad: 45f32.to_radians(),
            max_range_m: 4.0,
            min_range_m: 0.02,
            range_noise_std_m: 0.02,
            interference_probability: 0.02,
            frame_rate_hz: 15.0,
        }
    }
}

impl SensorConfig {
    /// The effective frame rate: the requested rate clamped to the mode maximum.
    pub fn effective_rate_hz(&self) -> f32 {
        self.frame_rate_hz.min(self.mode.max_rate_hz())
    }

    /// Returns a copy configured for the 4×4 / 60 Hz mode.
    pub fn with_mode(mut self, mode: ZoneMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns a copy with a different range-noise standard deviation.
    pub fn with_range_noise(mut self, std_m: f32) -> Self {
        self.range_noise_std_m = std_m;
        self
    }

    /// Returns a copy with a different interference probability.
    pub fn with_interference_probability(mut self, p: f64) -> Self {
        self.interference_probability = p;
        self
    }

    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.fov_horizontal_rad > 0.0 && self.fov_horizontal_rad < core::f32::consts::PI) {
            return Err("horizontal field of view must be in (0, π)".to_owned());
        }
        if !(self.fov_vertical_rad > 0.0 && self.fov_vertical_rad < core::f32::consts::PI) {
            return Err("vertical field of view must be in (0, π)".to_owned());
        }
        if !(self.max_range_m > self.min_range_m && self.max_range_m.is_finite()) {
            return Err("max range must exceed min range".to_owned());
        }
        if self.min_range_m < 0.0 {
            return Err("min range must be non-negative".to_owned());
        }
        if self.range_noise_std_m < 0.0 || !self.range_noise_std_m.is_finite() {
            return Err("range noise must be non-negative and finite".to_owned());
        }
        if !(0.0..=1.0).contains(&self.interference_probability) {
            return Err("interference probability must be in [0, 1]".to_owned());
        }
        // NaN must fail validation too, hence the explicit is_nan check.
        if self.frame_rate_hz <= 0.0 || self.frame_rate_hz.is_nan() {
            return Err("frame rate must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_modes_have_paper_parameters() {
        assert_eq!(ZoneMode::Grid8x8.zone_count(), 64);
        assert_eq!(ZoneMode::Grid4x4.zone_count(), 16);
        assert_eq!(ZoneMode::Grid8x8.max_rate_hz(), 15.0);
        assert_eq!(ZoneMode::Grid4x4.max_rate_hz(), 60.0);
        assert!((ZoneMode::Grid8x8.frame_period_s() - 1.0 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn default_config_is_valid_and_matches_the_paper() {
        let cfg = SensorConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.mode, ZoneMode::Grid8x8);
        assert_eq!(cfg.effective_rate_hz(), 15.0);
        assert!((cfg.fov_horizontal_rad.to_degrees() - 45.0).abs() < 1e-4);
        assert_eq!(SENSOR_POWER_MW, 320.0);
    }

    #[test]
    fn effective_rate_is_clamped_by_mode() {
        let cfg = SensorConfig {
            frame_rate_hz: 100.0,
            ..SensorConfig::default()
        };
        assert_eq!(cfg.effective_rate_hz(), 15.0);
        let cfg = cfg.with_mode(ZoneMode::Grid4x4);
        assert_eq!(cfg.effective_rate_hz(), 60.0);
        let mut slow = cfg;
        slow.frame_rate_hz = 5.0;
        assert_eq!(slow.effective_rate_hz(), 5.0);
    }

    #[test]
    fn validation_catches_each_invalid_field() {
        let base = SensorConfig::default();
        let mut c = base;
        c.fov_horizontal_rad = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.fov_vertical_rad = 4.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.max_range_m = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.min_range_m = -0.1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.range_noise_std_m = f32::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.interference_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = base;
        c.frame_rate_hz = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_style_setters() {
        let cfg = SensorConfig::default()
            .with_range_noise(0.05)
            .with_interference_probability(0.1)
            .with_mode(ZoneMode::Grid4x4);
        assert_eq!(cfg.range_noise_std_m, 0.05);
        assert_eq!(cfg.interference_probability, 0.1);
        assert_eq!(cfg.mode, ZoneMode::Grid4x4);
    }
}
