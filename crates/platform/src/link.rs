//! Bus transfer models: the VL53L5CX I²C bus and the STM32↔GAP9 SPI link.
//!
//! These models answer one question the paper cares about: how much fixed time
//! every update spends moving data around before any computation starts. A
//! VL53L5CX 8×8 frame is 64 zones of distance (2 B) plus status (1 B); both
//! sensors are read over I²C at 1 MHz (fast-mode plus), and the frames together
//! with the state estimate go to GAP9 over SPI at tens of MHz. The resulting
//! microseconds are part of the ~40 µs per-update overhead the cost model
//! charges.

use mcl_sensor::ZoneMode;

/// Per-zone payload on the wire: 16-bit distance plus 8-bit status.
pub const BYTES_PER_ZONE: usize = 3;

/// An I²C bus model (the sensor-facing bus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct I2cLink {
    /// Bus clock in hertz (VL53L5CX supports 1 MHz fast-mode plus).
    pub clock_hz: f64,
    /// Protocol overhead per transaction in bits (addressing, register setup).
    pub overhead_bits: usize,
}

impl Default for I2cLink {
    fn default() -> Self {
        I2cLink {
            clock_hz: 1.0e6,
            overhead_bits: 64,
        }
    }
}

impl I2cLink {
    /// Seconds to read one frame of the given zone mode.
    ///
    /// I²C transfers 8 data bits plus an acknowledge bit per byte.
    pub fn frame_transfer_s(&self, mode: ZoneMode) -> f64 {
        let payload_bits = mode.zone_count() * BYTES_PER_ZONE * 9;
        (payload_bits + self.overhead_bits) as f64 / self.clock_hz
    }

    /// Seconds to read `sensors` frames back to back (the two sensors share the
    /// bus in the paper's deck).
    pub fn rig_transfer_s(&self, mode: ZoneMode, sensors: usize) -> f64 {
        self.frame_transfer_s(mode) * sensors as f64
    }
}

/// The STM32 → GAP9 SPI link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpiLink {
    /// SPI clock in hertz.
    pub clock_hz: f64,
    /// Fixed per-transaction latency in seconds (chip select, DMA set-up,
    /// interrupt handling on both ends).
    pub transaction_latency_s: f64,
}

impl Default for SpiLink {
    fn default() -> Self {
        SpiLink {
            clock_hz: 10.0e6,
            transaction_latency_s: 20e-6,
        }
    }
}

impl SpiLink {
    /// Seconds to push `bytes` bytes across the link in one transaction.
    pub fn transfer_s(&self, bytes: usize) -> f64 {
        self.transaction_latency_s + (bytes * 8) as f64 / self.clock_hz
    }

    /// Seconds to push one update's input to GAP9: `sensors` frames plus the
    /// 12-byte state-estimate increment.
    pub fn update_transfer_s(&self, mode: ZoneMode, sensors: usize) -> f64 {
        let bytes = sensors * mode.zone_count() * BYTES_PER_ZONE + 12;
        self.transfer_s(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i2c_frame_times_fit_the_sensor_rate() {
        let link = I2cLink::default();
        let t8 = link.frame_transfer_s(ZoneMode::Grid8x8);
        let t4 = link.frame_transfer_s(ZoneMode::Grid4x4);
        // 64 zones × 3 B × 9 bits ≈ 1.7 kbit → under 2 ms at 1 MHz.
        assert!(t8 < 2.5e-3, "8x8 frame takes {t8}s");
        assert!(t4 < t8);
        // Reading both sensors still fits comfortably into the 66 ms frame period.
        assert!(link.rig_transfer_s(ZoneMode::Grid8x8, 2) < 5e-3);
    }

    #[test]
    fn spi_transfer_is_tens_of_microseconds() {
        let link = SpiLink::default();
        let t = link.update_transfer_s(ZoneMode::Grid8x8, 2);
        // Two frames (384 B) + state: ≈ 0.3 ms of wire time at 10 MHz plus the
        // fixed transaction latency — the same order as the paper's overhead.
        assert!(t > 20e-6 && t < 1e-3, "SPI transfer {t}s");
        assert!(link.transfer_s(0) >= link.transaction_latency_s);
        // More sensors → strictly more time.
        assert!(
            link.update_transfer_s(ZoneMode::Grid8x8, 2)
                > link.update_transfer_s(ZoneMode::Grid8x8, 1)
        );
    }
}
