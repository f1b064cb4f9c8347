//! DVFS power model and the whole-drone power budget (§IV-E, Table II).
//!
//! The paper measures the average power of GAP9 while running the MCL at four
//! operating points and reports that all sensing and processing — two ToF
//! sensors at 320 mW each, the remaining Crazyflie electronics at 280 mW, plus
//! GAP9 — sums to 981 mW, about 7 % of the drone's overall power consumption.
//!
//! [`PowerModel`] is a static-plus-dynamic model `P(f) = P_static + k·f` fitted
//! to the published measurements (61 mW @ 400 MHz, 38 mW @ 200 MHz,
//! 13 mW @ 12 MHz); [`SystemPowerBudget`] reassembles the drone-level budget.

use crate::cost::StepBreakdown;

/// A DVFS operating point of the GAP9 cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    frequency_hz: f64,
}

impl OperatingPoint {
    /// The maximum-performance point used in the paper: 400 MHz.
    pub const MAX_400MHZ: OperatingPoint = OperatingPoint {
        frequency_hz: 400e6,
    };
    /// The 200 MHz point of Table II.
    pub const MID_200MHZ: OperatingPoint = OperatingPoint {
        frequency_hz: 200e6,
    };
    /// The minimum real-time point for 1024 particles: 12 MHz.
    pub const MIN_12MHZ: OperatingPoint = OperatingPoint { frequency_hz: 12e6 };

    /// Creates an operating point at an arbitrary frequency.
    ///
    /// # Panics
    ///
    /// Panics when the frequency is not positive and finite.
    pub fn new(frequency_hz: f64) -> Self {
        assert!(
            frequency_hz.is_finite() && frequency_hz > 0.0,
            "frequency must be positive"
        );
        OperatingPoint { frequency_hz }
    }

    /// The clock frequency in hertz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// The clock frequency in megahertz.
    pub fn frequency_mhz(&self) -> f64 {
        self.frequency_hz / 1e6
    }
}

/// Average-power model of GAP9 while executing the MCL workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static (leakage + always-on) power in milliwatts.
    pub static_mw: f64,
    /// Dynamic power per megahertz of clock, in milliwatts (activity-weighted).
    pub dynamic_mw_per_mhz: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Fitted to Table II: 13 mW @ 12 MHz and 61 mW @ 400 MHz
        // (the 200 MHz row, 38 mW, falls on the fitted line within 5 %).
        PowerModel {
            static_mw: 11.5,
            dynamic_mw_per_mhz: 0.1237,
        }
    }
}

impl PowerModel {
    /// Average power while running the MCL at the given operating point, mW.
    pub fn average_power_mw(&self, point: OperatingPoint) -> f64 {
        self.static_mw + self.dynamic_mw_per_mhz * point.frequency_mhz()
    }

    /// Energy of one MCL update at the given operating point, in microjoules.
    pub fn update_energy_uj(&self, breakdown: &StepBreakdown, point: OperatingPoint) -> f64 {
        let time_s = breakdown.total_time_s(point.frequency_hz());
        self.average_power_mw(point) * time_s * 1e3
    }

    /// The lowest frequency (hertz) at which an update of `breakdown.total_cycles`
    /// cycles still finishes within `budget_s` seconds — how the paper picks its
    /// 12 MHz / 200 MHz minimum-power operating points.
    pub fn min_realtime_frequency_hz(&self, breakdown: &StepBreakdown, budget_s: f64) -> f64 {
        breakdown.total_cycles as f64 / budget_s
    }
}

/// The drone-level power budget of §IV-E.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPowerBudget {
    /// Number of ToF sensors mounted (2 in the paper's main configuration).
    pub sensor_count: usize,
    /// Power of one ToF sensor, mW (320 mW).
    pub sensor_power_mw: f64,
    /// Remaining Crazyflie electronics besides the motors, mW (280 mW).
    pub electronics_power_mw: f64,
    /// GAP9 average power at the chosen operating point, mW.
    pub gap9_power_mw: f64,
    /// Total drone power including the motors, mW (a Crazyflie 2.1 in hover
    /// draws roughly 14 W; the paper states sensing + processing is ~7 % of the
    /// overall consumption, which matches).
    pub total_drone_power_mw: f64,
}

impl SystemPowerBudget {
    /// The paper's configuration: two sensors, 280 mW electronics, GAP9 at the
    /// given power, 14 W total drone power.
    pub fn paper(gap9_power_mw: f64) -> Self {
        SystemPowerBudget {
            sensor_count: 2,
            sensor_power_mw: f64::from(mcl_sensor::SENSOR_POWER_MW),
            electronics_power_mw: 280.0,
            gap9_power_mw,
            total_drone_power_mw: 14_000.0,
        }
    }

    /// Total sensing + processing power, mW.
    pub fn sensing_and_processing_mw(&self) -> f64 {
        self.sensor_count as f64 * self.sensor_power_mw
            + self.electronics_power_mw
            + self.gap9_power_mw
    }

    /// Sensing + processing as a percentage of the whole drone's power.
    pub fn sensing_and_processing_percent(&self) -> f64 {
        100.0 * self.sensing_and_processing_mw() / self.total_drone_power_mw
    }

    /// The increase of the drone's power consumption caused by adding the
    /// localization payload (GAP9 + the two ToF sensors), in percent — the
    /// "3–7 %" figure of the abstract.
    pub fn payload_increase_percent(&self) -> f64 {
        let payload = self.sensor_count as f64 * self.sensor_power_mw + self.gap9_power_mw;
        100.0 * payload / self.total_drone_power_mw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn fitted_model_matches_table_two_points() {
        let model = PowerModel::default();
        let p400 = model.average_power_mw(OperatingPoint::MAX_400MHZ);
        let p200 = model.average_power_mw(OperatingPoint::MID_200MHZ);
        let p12 = model.average_power_mw(OperatingPoint::MIN_12MHZ);
        assert!((p400 - 61.0).abs() < 2.0, "400 MHz: {p400} mW");
        assert!((p200 - 38.0).abs() < 3.0, "200 MHz: {p200} mW");
        assert!((p12 - 13.0).abs() < 1.0, "12 MHz: {p12} mW");
        // Monotone in frequency.
        assert!(p400 > p200 && p200 > p12);
    }

    #[test]
    fn operating_point_constructors() {
        assert_eq!(OperatingPoint::MAX_400MHZ.frequency_mhz(), 400.0);
        assert_eq!(OperatingPoint::new(50e6).frequency_mhz(), 50.0);
        assert!(std::panic::catch_unwind(|| OperatingPoint::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| OperatingPoint::new(f64::NAN)).is_err());
    }

    #[test]
    fn lower_frequency_costs_latency_but_saves_power_not_energy() {
        // Table II shows that running slower saves power but the energy per
        // update stays in the same ballpark (static power starts to dominate).
        let cost = CostModel::default();
        let breakdown = cost.update_breakdown(1024, 16, 8, false);
        let model = PowerModel::default();
        let fast = model.update_energy_uj(&breakdown, OperatingPoint::MAX_400MHZ);
        let slow = model.update_energy_uj(&breakdown, OperatingPoint::MIN_12MHZ);
        let t_fast = breakdown.total_time_s(400e6);
        let t_slow = breakdown.total_time_s(12e6);
        assert!(t_slow > 25.0 * t_fast);
        // Energy per update is within a factor of ~10 (not 33×), because the
        // static power term dominates at 12 MHz.
        assert!(slow < 10.0 * fast, "slow {slow} µJ vs fast {fast} µJ");
        assert!(fast > 0.0 && slow > 0.0);
    }

    #[test]
    fn minimum_realtime_frequency_matches_the_paper_choices() {
        // The paper runs 1024 particles at 12 MHz and 16384 particles at 200 MHz
        // while staying under the 67 ms budget; the model's minimum real-time
        // frequencies must be at or below those chosen points.
        let cost = CostModel::default();
        let model = PowerModel::default();
        let budget = crate::Gap9Spec::REAL_TIME_BUDGET_S;
        let small = cost.update_breakdown(1024, 16, 8, false);
        let large = cost.update_breakdown(16_384, 16, 8, true);
        let f_small = model.min_realtime_frequency_hz(&small, budget);
        let f_large = model.min_realtime_frequency_hz(&large, budget);
        assert!(f_small <= 12e6, "1024 particles need {f_small} Hz");
        assert!(f_large <= 200e6, "16384 particles need {f_large} Hz");
        assert!(f_large > f_small);
    }

    #[test]
    fn system_budget_reproduces_the_seven_percent_figure() {
        // GAP9 at its most powerful configuration (≈61 mW): sensing + processing
        // = 2×320 + 280 + 61 = 981 mW ≈ 7 % of the drone's 14 W.
        let gap9 = PowerModel::default().average_power_mw(OperatingPoint::MAX_400MHZ);
        let budget = SystemPowerBudget::paper(gap9);
        let total = budget.sensing_and_processing_mw();
        assert!((total - 981.0).abs() < 5.0, "total {total} mW");
        let percent = budget.sensing_and_processing_percent();
        assert!((6.0..=7.5).contains(&percent), "{percent} %");
        // The added payload alone (sensors + GAP9) is in the 3–7 % band quoted in
        // the abstract.
        let increase = budget.payload_increase_percent();
        assert!((3.0..=7.0).contains(&increase), "{increase} %");
    }

    #[test]
    fn single_sensor_budget_is_cheaper() {
        let mut budget = SystemPowerBudget::paper(61.0);
        budget.sensor_count = 1;
        assert!(budget.sensing_and_processing_mw() < 981.0 - 300.0);
    }
}
