//! The paper's precision/memory design space and its memory accounting.
//!
//! Four configurations are evaluated in the paper:
//!
//! | name | particles | EDT map | sensors |
//! |---|---|---|---|
//! | `fp32`      | f32 (32 B/particle with double buffering) | f32 (4 B/cell) | 2 |
//! | `fp32 1tof` | f32 | f32 | 1 |
//! | `fp32qm`    | f32 | quantized u8 (1 B/cell) | 2 |
//! | `fp16qm`    | binary16 (16 B/particle) | quantized u8 | 2 |
//!
//! On top of the EDT, the occupancy map always costs 1 byte per cell. The
//! trade-off between the number of particles and the map area that fit into
//! GAP9's L1 (128 kB) or L2 (1.5 MB) memory — the paper's Fig. 9 — follows
//! directly from these figures and is computed by [`MemoryFootprint`].
//!
//! The accounting is layout-independent: the structure-of-arrays storage of
//! [`crate::particle::ParticleBuffer`] holds the same 4 scalars × 2 buffers
//! per particle as an array of structs, so
//! [`ParticlePrecision::bytes_per_particle_double_buffered`] (32 B fp32 /
//! 16 B fp16) equals [`crate::particle::ParticleSet::memory_bytes`] divided by
//! the particle count — Table I's figures survive the SoA refactor unchanged.

/// Storage precision of the precomputed distance transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapPrecision {
    /// 32-bit float EDT (4 bytes per cell).
    Fp32,
    /// binary16 EDT (2 bytes per cell).
    Fp16,
    /// 8-bit quantized EDT (1 byte per cell).
    Quantized,
}

impl MapPrecision {
    /// Bytes per cell used by the EDT at this precision.
    pub fn edt_bytes_per_cell(self) -> usize {
        match self {
            MapPrecision::Fp32 => 4,
            MapPrecision::Fp16 => 2,
            MapPrecision::Quantized => 1,
        }
    }

    /// Bytes per cell for the whole map: 1 byte of occupancy plus the EDT.
    pub fn map_bytes_per_cell(self) -> usize {
        1 + self.edt_bytes_per_cell()
    }
}

/// Storage precision of the particles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticlePrecision {
    /// Four 32-bit floats per particle.
    Fp32,
    /// Four binary16 values per particle.
    Fp16,
}

impl ParticlePrecision {
    /// Bytes per stored particle (4 scalars, single buffer).
    pub fn bytes_per_particle(self) -> usize {
        match self {
            ParticlePrecision::Fp32 => 16,
            ParticlePrecision::Fp16 => 8,
        }
    }

    /// Bytes per particle including the double buffer used during resampling —
    /// the figure the paper quotes (32 B for fp32, 16 B for fp16).
    pub fn bytes_per_particle_double_buffered(self) -> usize {
        2 * self.bytes_per_particle()
    }

    /// Elements one GAP9 SIMD lane group processes per FPU op at this storage
    /// precision: the cluster cores pack **two binary16 operands** per
    /// vectorial half-precision instruction but execute `f32` scalar — lane
    /// width 2 vs 1. This is what makes the `fp16qm` configuration faster
    /// per particle, not just smaller; feed it to
    /// `mcl_gap9::CostModel::kernel_invocation_cycles_lanes`.
    ///
    /// The host analogue is the AVX2 kernel backend's 8×f32 lane width:
    /// there the compact storages win on the gather-and-widen lookup —
    /// byte cells for the quantized map, fp16 **pairs** for the binary16
    /// field — not on a wider FPU op; the arithmetic stays f32 either way
    /// so the bit-identity contract holds. Binary16 *particles* pay a
    /// conversion on every load and store instead of gaining a lane: the
    /// kernels convert a lane group at a time through
    /// [`Scalar::widen`](mcl_num::Scalar::widen) /
    /// [`Scalar::narrow`](mcl_num::Scalar::narrow), eight values per F16C
    /// instruction, so on an F16C host the conversion is a small share of
    /// a kernel rather than the per-value software converter's multiple.
    pub fn simd_lane_width(self) -> usize {
        match self {
            ParticlePrecision::Fp32 => 1,
            ParticlePrecision::Fp16 => 2,
        }
    }
}

/// One named point in the paper's design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Display name used in the figures ("fp32", "fp32qm", "fp16qm", "fp32 1tof").
    pub name: &'static str,
    /// Distance-field storage precision.
    pub map_precision: MapPrecision,
    /// Particle storage precision.
    pub particle_precision: ParticlePrecision,
    /// Number of ToF sensors used (2 = front and rear, 1 = front only).
    pub sensor_count: usize,
}

impl PipelineConfig {
    /// Full precision, two sensors (the paper's `fp32`).
    pub const FP32: PipelineConfig = PipelineConfig {
        name: "fp32",
        map_precision: MapPrecision::Fp32,
        particle_precision: ParticlePrecision::Fp32,
        sensor_count: 2,
    };

    /// Full precision, single forward sensor (the paper's `fp32 1tof`).
    pub const FP32_1TOF: PipelineConfig = PipelineConfig {
        name: "fp32 1tof",
        map_precision: MapPrecision::Fp32,
        particle_precision: ParticlePrecision::Fp32,
        sensor_count: 1,
    };

    /// Quantized map, full-precision particles (the paper's `fp32qm`).
    pub const FP32_QM: PipelineConfig = PipelineConfig {
        name: "fp32qm",
        map_precision: MapPrecision::Quantized,
        particle_precision: ParticlePrecision::Fp32,
        sensor_count: 2,
    };

    /// Quantized map, half-precision particles (the paper's `fp16qm`).
    pub const FP16_QM: PipelineConfig = PipelineConfig {
        name: "fp16qm",
        map_precision: MapPrecision::Quantized,
        particle_precision: ParticlePrecision::Fp16,
        sensor_count: 2,
    };

    /// The four configurations evaluated in Figs. 6–8 of the paper.
    pub fn paper_configs() -> [PipelineConfig; 4] {
        [
            PipelineConfig::FP32,
            PipelineConfig::FP32_1TOF,
            PipelineConfig::FP32_QM,
            PipelineConfig::FP16_QM,
        ]
    }

    /// The memory accounting for this configuration.
    pub fn footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            map_precision: self.map_precision,
            particle_precision: self.particle_precision,
        }
    }
}

/// Memory accounting for a (map precision, particle precision) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryFootprint {
    /// Distance-field storage precision.
    pub map_precision: MapPrecision,
    /// Particle storage precision.
    pub particle_precision: ParticlePrecision,
}

impl MemoryFootprint {
    /// The paper's full-precision accounting (5 B/cell map, 32 B/particle).
    pub fn full_precision() -> Self {
        MemoryFootprint {
            map_precision: MapPrecision::Fp32,
            particle_precision: ParticlePrecision::Fp32,
        }
    }

    /// The paper's optimized accounting (2 B/cell map, 16 B/particle).
    pub fn optimized() -> Self {
        MemoryFootprint {
            map_precision: MapPrecision::Quantized,
            particle_precision: ParticlePrecision::Fp16,
        }
    }

    /// Bytes used by a map with `cells` cells (occupancy + EDT).
    pub fn map_bytes(&self, cells: usize) -> usize {
        cells * self.map_precision.map_bytes_per_cell()
    }

    /// Bytes used by a map covering `area_m2` square metres at `resolution`
    /// metres per cell.
    pub fn map_bytes_for_area(&self, area_m2: f64, resolution: f64) -> usize {
        let cells = (area_m2 / (resolution * resolution)).ceil() as usize;
        self.map_bytes(cells)
    }

    /// Bytes used by `n` double-buffered particles.
    pub fn particle_bytes(&self, n: usize) -> usize {
        n * self.particle_precision.bytes_per_particle_double_buffered()
    }

    /// Total bytes for `n` particles plus a map of `cells` cells.
    pub fn total_bytes(&self, n: usize, cells: usize) -> usize {
        self.particle_bytes(n) + self.map_bytes(cells)
    }

    /// The largest particle count that fits in `budget_bytes` alongside a map of
    /// `cells` cells; `None` when the map alone does not fit.
    pub fn max_particles(&self, budget_bytes: usize, cells: usize) -> Option<usize> {
        let map = self.map_bytes(cells);
        if map > budget_bytes {
            return None;
        }
        Some((budget_bytes - map) / self.particle_precision.bytes_per_particle_double_buffered())
    }

    /// The largest map area (m²) at `resolution` m/cell that fits in
    /// `budget_bytes` alongside `n` particles; `None` when the particles alone do
    /// not fit. This is the quantity on the x-axis of the paper's Fig. 9.
    pub fn max_map_area_m2(&self, budget_bytes: usize, n: usize, resolution: f64) -> Option<f64> {
        let particles = self.particle_bytes(n);
        if particles > budget_bytes {
            return None;
        }
        let cells = (budget_bytes - particles) / self.map_precision.map_bytes_per_cell();
        Some(cells as f64 * resolution * resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_cell_match_the_paper() {
        assert_eq!(MapPrecision::Fp32.map_bytes_per_cell(), 5);
        assert_eq!(MapPrecision::Fp16.map_bytes_per_cell(), 3);
        assert_eq!(MapPrecision::Quantized.map_bytes_per_cell(), 2);
        assert_eq!(
            ParticlePrecision::Fp32.bytes_per_particle_double_buffered(),
            32
        );
        assert_eq!(
            ParticlePrecision::Fp16.bytes_per_particle_double_buffered(),
            16
        );
    }

    #[test]
    fn simd_lane_width_packs_two_halves_per_op() {
        assert_eq!(ParticlePrecision::Fp32.simd_lane_width(), 1);
        assert_eq!(ParticlePrecision::Fp16.simd_lane_width(), 2);
    }

    #[test]
    fn paper_configs_are_the_four_evaluated_ones() {
        let configs = PipelineConfig::paper_configs();
        let names: Vec<&str> = configs.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["fp32", "fp32 1tof", "fp32qm", "fp16qm"]);
        assert_eq!(configs[1].sensor_count, 1);
        assert_eq!(configs[3].particle_precision, ParticlePrecision::Fp16);
        assert_eq!(configs[3].map_precision, MapPrecision::Quantized);
    }

    #[test]
    fn quantization_reduces_map_memory_from_5_to_2_bytes_per_cell() {
        // The paper's 31.2 m² map at 0.05 m/cell has 12480 cells.
        let cells = 12_480usize;
        let full = MemoryFootprint::full_precision();
        let optimized = MemoryFootprint::optimized();
        assert_eq!(full.map_bytes(cells), cells * 5);
        assert_eq!(optimized.map_bytes(cells), cells * 2);
        assert_eq!(full.map_bytes_for_area(31.2, 0.05), full.map_bytes(cells));
    }

    #[test]
    fn particle_memory_halves_with_fp16() {
        let full = MemoryFootprint::full_precision();
        let optimized = MemoryFootprint::optimized();
        assert_eq!(full.particle_bytes(16_384), 16_384 * 32);
        assert_eq!(optimized.particle_bytes(16_384), 16_384 * 16);
        assert_eq!(
            optimized.particle_bytes(1024) * 2,
            full.particle_bytes(1024)
        );
    }

    #[test]
    fn l1_capacity_matches_the_paper_narrative() {
        // 1024 fp32 particles need 32 kB, leaving ~96 kB of the 128 kB L1 for the
        // map — the paper's statement that 1024 particles "still fit in L1".
        let l1 = 128 * 1024;
        let full = MemoryFootprint::full_precision();
        assert!(full.total_bytes(1024, 12_480) < l1);
        // 16384 particles cannot fit in L1 even with no map at all.
        assert!(full.particle_bytes(16_384) > l1);
        // ... but fit comfortably in the 1.5 MB L2 with the paper's map.
        let l2 = 1536 * 1024;
        assert!(full.total_bytes(16_384, 12_480) < l2);
    }

    #[test]
    fn max_particles_and_max_area_are_inverse_views() {
        let fp = MemoryFootprint::optimized();
        let budget = 128 * 1024;
        let cells = 10_000;
        let n = fp.max_particles(budget, cells).unwrap();
        // Putting that many particles back leaves at least the same map area.
        let area = fp.max_map_area_m2(budget, n, 0.05).unwrap();
        assert!(area >= cells as f64 * 0.05 * 0.05 - 1e-9);
        // An over-large map or particle count yields None.
        assert!(fp.max_particles(1024, 10_000).is_none());
        assert!(fp.max_map_area_m2(1024, 1_000_000, 0.05).is_none());
    }

    #[test]
    fn optimized_fits_more_particles_than_full_precision() {
        let budget = 128 * 1024;
        let cells = 12_480;
        let full = MemoryFootprint::full_precision()
            .max_particles(budget, cells)
            .unwrap();
        let optimized = MemoryFootprint::optimized()
            .max_particles(budget, cells)
            .unwrap();
        assert!(optimized > 2 * full, "optimized {optimized} vs full {full}");
    }

    #[test]
    fn footprint_is_reachable_from_the_pipeline_config() {
        let fp = PipelineConfig::FP16_QM.footprint();
        assert_eq!(fp.map_precision, MapPrecision::Quantized);
        assert_eq!(fp.particle_precision, ParticlePrecision::Fp16);
        assert_eq!(PipelineConfig::FP32.footprint().map_bytes(100), 500);
    }
}
