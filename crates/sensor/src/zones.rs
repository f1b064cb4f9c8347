//! Angular geometry of the sensor's zone matrix.
//!
//! The VL53L5CX divides its square field of view into an N×N matrix of zones.
//! Zone `(col, row)` observes a small solid angle whose centre direction is offset
//! from the sensor's optical axis. For planar localization only the horizontal
//! (azimuth) component determines where a beam lands in the 2D map; the vertical
//! (elevation) component matters because an inclined beam measures a slightly
//! longer distance to a vertical wall (range / cos(elevation)). The simulator
//! applies that secant correction; the localization algorithm — like the paper —
//! treats every zone's range as a planar range along its azimuth.

use crate::config::{SensorConfig, ZoneMode};

/// Direction of one zone relative to the sensor optical axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneDirection {
    /// Zone column index (0 = leftmost when looking out of the sensor).
    pub col: usize,
    /// Zone row index (0 = bottom).
    pub row: usize,
    /// Horizontal angle from the optical axis in radians (positive = left/CCW).
    pub azimuth_rad: f32,
    /// Vertical angle from the optical axis in radians (positive = up).
    pub elevation_rad: f32,
}

/// The full zone-direction table for a sensor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneGeometry {
    mode: ZoneMode,
    directions: Vec<ZoneDirection>,
}

impl ZoneGeometry {
    /// Computes the zone directions for a sensor configuration.
    ///
    /// Zones are laid out on a regular grid across the field of view; the centre
    /// direction of zone `i` along one axis with `n` zones and full field of view
    /// `fov` is `fov * ((i + 0.5) / n - 0.5)`.
    pub fn new(config: &SensorConfig) -> Self {
        let cols = config.mode.columns();
        let rows = config.mode.rows();
        let mut directions = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                let azimuth_rad =
                    config.fov_horizontal_rad * ((col as f32 + 0.5) / cols as f32 - 0.5);
                let elevation_rad =
                    config.fov_vertical_rad * ((row as f32 + 0.5) / rows as f32 - 0.5);
                directions.push(ZoneDirection {
                    col,
                    row,
                    azimuth_rad,
                    elevation_rad,
                });
            }
        }
        ZoneGeometry {
            mode: config.mode,
            directions,
        }
    }

    /// The zone mode this geometry was computed for.
    pub fn mode(&self) -> ZoneMode {
        self.mode
    }

    /// All zone directions in row-major order (row 0 first).
    pub fn directions(&self) -> &[ZoneDirection] {
        &self.directions
    }

    /// The direction of zone `(col, row)`.
    pub fn direction(&self, col: usize, row: usize) -> Option<&ZoneDirection> {
        if col >= self.mode.columns() || row >= self.mode.rows() {
            return None;
        }
        self.directions.get(row * self.mode.columns() + col)
    }

    /// The distinct azimuth angles of the zone columns (one per column), in
    /// radians, ordered by column index.
    ///
    /// The 2D observation model collapses the zone matrix onto these azimuths:
    /// every zone in a column shares the same planar beam direction.
    pub fn column_azimuths(&self) -> Vec<f32> {
        (0..self.mode.columns())
            .map(|col| self.directions[col].azimuth_rad)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_count_matches_mode() {
        let g8 = ZoneGeometry::new(&SensorConfig::default());
        assert_eq!(g8.directions().len(), 64);
        let g4 = ZoneGeometry::new(&SensorConfig::default().with_mode(ZoneMode::Grid4x4));
        assert_eq!(g4.directions().len(), 16);
    }

    #[test]
    fn directions_are_symmetric_about_the_optical_axis() {
        let g = ZoneGeometry::new(&SensorConfig::default());
        let cols = 8;
        for row in 0..8 {
            for col in 0..cols {
                let a = g.direction(col, row).unwrap();
                let b = g.direction(cols - 1 - col, row).unwrap();
                assert!(
                    (a.azimuth_rad + b.azimuth_rad).abs() < 1e-6,
                    "columns {col} and {} must mirror",
                    cols - 1 - col
                );
            }
        }
        // Mean azimuth over a row is zero.
        let mean: f32 = g.directions()[..8]
            .iter()
            .map(|d| d.azimuth_rad)
            .sum::<f32>()
            / 8.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn directions_stay_inside_the_field_of_view() {
        let cfg = SensorConfig::default();
        let g = ZoneGeometry::new(&cfg);
        for d in g.directions() {
            assert!(d.azimuth_rad.abs() < cfg.fov_horizontal_rad / 2.0);
            assert!(d.elevation_rad.abs() < cfg.fov_vertical_rad / 2.0);
        }
    }

    #[test]
    fn adjacent_columns_are_evenly_spaced() {
        let cfg = SensorConfig::default();
        let g = ZoneGeometry::new(&cfg);
        let az = g.column_azimuths();
        assert_eq!(az.len(), 8);
        let expected_step = cfg.fov_horizontal_rad / 8.0;
        for pair in az.windows(2) {
            assert!((pair[1] - pair[0] - expected_step).abs() < 1e-6);
        }
    }

    #[test]
    fn out_of_range_zone_lookup_is_none() {
        let g = ZoneGeometry::new(&SensorConfig::default());
        assert!(g.direction(8, 0).is_none());
        assert!(g.direction(0, 8).is_none());
        assert!(g.direction(7, 7).is_some());
    }
}
