//! Measurement types: zone readings, frames and planar beams.
//!
//! A [`ToFFrame`] is what one VL53L5CX delivers over I²C: one [`ZoneMeasurement`]
//! per zone, each with a distance and a status flag. The localization algorithm
//! does not consume frames directly; it consumes [`Beam`]s — planar (azimuth,
//! range) pairs in the drone body frame, with invalid zones already dropped.
//! [`ToFFrame::to_beams`] performs that reduction exactly like the paper's
//! firmware: zones flagged invalid are skipped, and the zones of each column are
//! collapsed onto the column's azimuth by taking their median range.

use crate::config::ZoneMode;
use crate::zones::ZoneGeometry;
use mcl_gridmap::Pose2;

/// Validity flag attached to every zone measurement.
///
/// The VL53L5CX reports a per-zone target status; the paper's firmware reduces it
/// to "error flag raised or not", raised for out-of-range measurements and
/// detected interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetStatus {
    /// The distance is a valid range measurement.
    Valid,
    /// No target within the sensor's measurable range.
    OutOfRange,
    /// The measurement was corrupted by interference / low signal.
    Interference,
}

impl TargetStatus {
    /// Returns `true` when the measurement can be used by the localization.
    pub fn is_valid(self) -> bool {
        self == TargetStatus::Valid
    }
}

/// One zone's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMeasurement {
    /// Zone column index.
    pub col: usize,
    /// Zone row index.
    pub row: usize,
    /// Measured distance in metres (meaningless when the status is not valid).
    pub distance_m: f32,
    /// Validity flag.
    pub status: TargetStatus,
}

/// A full frame from one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ToFFrame {
    /// Time the frame was captured, in seconds since sequence start.
    pub timestamp_s: f64,
    /// Zone mode the frame was captured in.
    pub mode: ZoneMode,
    /// Pose of the sensor in the drone body frame (identity = forward facing).
    pub mounting: Pose2,
    /// The zone measurements, row-major (row 0 first).
    pub zones: Vec<ZoneMeasurement>,
}

impl ToFFrame {
    /// Number of zones whose error flag is not raised.
    pub fn valid_zone_count(&self) -> usize {
        self.zones.iter().filter(|z| z.status.is_valid()).count()
    }

    /// Flags every zone of the frame with `status`, simulating a whole-sensor
    /// dropout (occlusion, multi-sensor interference, I²C stall). The distances
    /// are kept — a real frame's payload is garbage, not zeroed — but
    /// [`ToFFrame::to_beams`] will produce no beams from the frame, exactly as
    /// the firmware discards fully flagged frames.
    ///
    /// Used by the scenario suite's per-sensor dropout windows.
    pub fn invalidate_all(&mut self, status: TargetStatus) {
        for zone in &mut self.zones {
            zone.status = status;
        }
    }

    /// Reduces the frame to planar beams in the *drone body frame*.
    ///
    /// For every zone column, the valid zone distances are collected and their
    /// median becomes the beam range; columns with no valid zone produce no beam.
    /// The beam azimuth is the column azimuth rotated by the sensor's mounting
    /// yaw (π for the rear-facing sensor).
    pub fn to_beams(&self, geometry: &ZoneGeometry) -> Vec<Beam> {
        let cols = self.mode.columns();
        let azimuths = geometry.column_azimuths();
        let mut beams = Vec::with_capacity(cols);
        for (col, azimuth) in azimuths.iter().enumerate().take(cols) {
            let mut ranges: Vec<f32> = self
                .zones
                .iter()
                .filter(|z| z.col == col && z.status.is_valid())
                .map(|z| z.distance_m)
                .collect();
            if ranges.is_empty() {
                continue;
            }
            ranges.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
            let median = if ranges.len() % 2 == 1 {
                ranges[ranges.len() / 2]
            } else {
                0.5 * (ranges[ranges.len() / 2 - 1] + ranges[ranges.len() / 2])
            };
            beams.push(Beam {
                azimuth_body_rad: self.mounting.theta + azimuth,
                range_m: median,
                origin_body: self.mounting,
            });
        }
        beams
    }
}

/// A planar range measurement in the drone body frame — the unit the observation
/// model consumes (`z_t^k` in the paper's Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beam {
    /// Beam direction in the body frame, radians (0 = straight ahead).
    pub azimuth_body_rad: f32,
    /// Measured range along the beam, metres.
    pub range_m: f32,
    /// Pose of the emitting sensor in the body frame (its translation offsets the
    /// beam origin; a Crazyflie is small so this is nearly zero, but keeping it
    /// makes the rig model exact).
    pub origin_body: Pose2,
}

impl Beam {
    /// The world-frame end point of this beam for a drone at `pose`.
    pub fn end_point(&self, pose: &Pose2) -> mcl_gridmap::Point2 {
        let sensor_world = pose.compose(&self.origin_body);
        let angle = pose.theta + self.azimuth_body_rad;
        mcl_gridmap::Point2::new(
            sensor_world.x + angle.cos() * self.range_m,
            sensor_world.y + angle.sin() * self.range_m,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SensorConfig;
    use core::f32::consts::PI;

    fn frame_with(distances: &[(usize, usize, f32, TargetStatus)], mounting: Pose2) -> ToFFrame {
        ToFFrame {
            timestamp_s: 0.0,
            mode: ZoneMode::Grid4x4,
            mounting,
            zones: distances
                .iter()
                .map(|&(col, row, d, status)| ZoneMeasurement {
                    col,
                    row,
                    distance_m: d,
                    status,
                })
                .collect(),
        }
    }

    #[test]
    fn valid_zone_count_ignores_flagged_zones() {
        let f = frame_with(
            &[
                (0, 0, 1.0, TargetStatus::Valid),
                (1, 0, 2.0, TargetStatus::OutOfRange),
                (2, 0, 3.0, TargetStatus::Interference),
                (3, 0, 0.5, TargetStatus::Valid),
            ],
            Pose2::default(),
        );
        assert_eq!(f.valid_zone_count(), 2);
        assert!(TargetStatus::Valid.is_valid());
        assert!(!TargetStatus::OutOfRange.is_valid());
    }

    #[test]
    fn beams_take_the_median_of_each_column() {
        let cfg = SensorConfig::default().with_mode(ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        let f = frame_with(
            &[
                (0, 0, 1.0, TargetStatus::Valid),
                (0, 1, 1.2, TargetStatus::Valid),
                (0, 2, 5.0, TargetStatus::Valid),
                (1, 0, 2.0, TargetStatus::OutOfRange),
            ],
            Pose2::default(),
        );
        let beams = f.to_beams(&geometry);
        // Column 0 has three valid zones → median 1.2; column 1 has none valid.
        assert_eq!(beams.len(), 1);
        assert!((beams[0].range_m - 1.2).abs() < 1e-6);
        assert!((beams[0].azimuth_body_rad - geometry.column_azimuths()[0]).abs() < 1e-6);
    }

    #[test]
    fn even_number_of_valid_zones_averages_the_middle_pair() {
        let cfg = SensorConfig::default().with_mode(ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        let f = frame_with(
            &[
                (2, 0, 1.0, TargetStatus::Valid),
                (2, 1, 2.0, TargetStatus::Valid),
                (2, 2, 3.0, TargetStatus::Valid),
                (2, 3, 4.0, TargetStatus::Valid),
            ],
            Pose2::default(),
        );
        let beams = f.to_beams(&geometry);
        assert_eq!(beams.len(), 1);
        assert!((beams[0].range_m - 2.5).abs() < 1e-6);
    }

    #[test]
    fn rear_mounting_rotates_beam_azimuths_by_pi() {
        let cfg = SensorConfig::default().with_mode(ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        let rear = Pose2::new(0.0, 0.0, PI);
        let f = frame_with(&[(1, 1, 1.5, TargetStatus::Valid)], rear);
        let beams = f.to_beams(&geometry);
        assert_eq!(beams.len(), 1);
        let expected = PI + geometry.column_azimuths()[1];
        assert!((beams[0].azimuth_body_rad - expected).abs() < 1e-6);
    }

    #[test]
    fn invalidate_all_silences_the_frame_but_keeps_payload() {
        let cfg = SensorConfig::default().with_mode(ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        let mut f = frame_with(
            &[
                (0, 0, 1.0, TargetStatus::Valid),
                (1, 0, 2.0, TargetStatus::Valid),
            ],
            Pose2::default(),
        );
        assert_eq!(f.to_beams(&geometry).len(), 2);
        f.invalidate_all(TargetStatus::Interference);
        assert_eq!(f.valid_zone_count(), 0);
        assert!(f.to_beams(&geometry).is_empty());
        assert_eq!(f.zones[1].distance_m, 2.0);
    }

    #[test]
    fn frame_with_all_invalid_zones_produces_no_beams() {
        let cfg = SensorConfig::default().with_mode(ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        let f = frame_with(
            &[
                (0, 0, 1.0, TargetStatus::OutOfRange),
                (1, 0, 1.0, TargetStatus::Interference),
            ],
            Pose2::default(),
        );
        assert!(f.to_beams(&geometry).is_empty());
    }

    #[test]
    fn beam_end_point_lands_where_expected() {
        let beam = Beam {
            azimuth_body_rad: 0.0,
            range_m: 2.0,
            origin_body: Pose2::default(),
        };
        // Drone at (1, 1) facing +Y: the end point is (1, 3).
        let p = beam.end_point(&Pose2::new(1.0, 1.0, core::f32::consts::FRAC_PI_2));
        assert!((p.x - 1.0).abs() < 1e-5);
        assert!((p.y - 3.0).abs() < 1e-5);
    }
}
