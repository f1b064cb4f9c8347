//! Placement of the MCL working set into GAP9's memory hierarchy (Fig. 9).
//!
//! The two memory consumers are the particle buffers (double-buffered, 32 B or
//! 16 B per particle depending on precision) and the map (occupancy byte plus the
//! EDT at 4, 2 or 1 byte per cell). The cluster's 128 kB L1 is fastest; what does
//! not fit there spills to the 1.5 MB L2, paying the per-access penalty modelled
//! in [`crate::CostModel`]. The paper's Fig. 9 plots, for full precision and for
//! the quantized/fp16 configuration, how many particles and how many square
//! metres of map fit into L1 and L2 — [`MemoryPlanner`] computes exactly those
//! curves.

use crate::spec::Gap9Spec;
use mcl_core::precision::MemoryFootprint;

/// The memory level a buffer was placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryLevel {
    /// Cluster-shared 128 kB L1.
    L1,
    /// 1.5 MB interleaved L2.
    L2,
    /// The working set does not fit on chip at all.
    DoesNotFit,
}

/// Result of placing a working set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlacement {
    /// Where the particle buffers live.
    pub particles: MemoryLevel,
    /// Where the map (occupancy + EDT) lives.
    pub map: MemoryLevel,
    /// Bytes used by the particle buffers.
    pub particle_bytes: usize,
    /// Bytes used by the map.
    pub map_bytes: usize,
}

impl MemoryPlacement {
    /// `true` when the particles had to spill to L2 (the condition that triggers
    /// the L2 penalties of Table I).
    pub fn particles_in_l2(&self) -> bool {
        self.particles == MemoryLevel::L2
    }

    /// `true` when everything fits on chip.
    pub fn fits(&self) -> bool {
        self.particles != MemoryLevel::DoesNotFit && self.map != MemoryLevel::DoesNotFit
    }
}

/// Computes placements and capacity curves for a precision configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlanner {
    spec: Gap9Spec,
    footprint: MemoryFootprint,
}

impl MemoryPlanner {
    /// L1 bytes kept free for the cluster runtime, worker stacks and DMA staging
    /// buffers; the particle/map working set can only use what remains. This is
    /// why the paper stores 4096 particles (exactly 128 kB at full precision) in
    /// L2 rather than letting them fill L1 completely.
    pub const DEFAULT_L1_RESERVED_BYTES: usize = 16 * 1024;

    /// Creates a planner for the given SoC and precision configuration.
    pub fn new(spec: Gap9Spec, footprint: MemoryFootprint) -> Self {
        MemoryPlanner { spec, footprint }
    }

    /// The SoC parameters.
    pub fn spec(&self) -> &Gap9Spec {
        &self.spec
    }

    /// The precision configuration.
    pub fn footprint(&self) -> &MemoryFootprint {
        &self.footprint
    }

    /// Places `particles` particles and a map of `map_cells` cells.
    ///
    /// The particles are preferred for L1 (they are touched four times per
    /// update); the map goes to L1 only if it fits alongside them, otherwise to
    /// L2. Whatever exceeds L2 does not fit.
    pub fn place(&self, particles: usize, map_cells: usize) -> MemoryPlacement {
        let particle_bytes = self.footprint.particle_bytes(particles);
        let map_bytes = self.footprint.map_bytes(map_cells);
        let l1_usable = self
            .spec
            .l1_bytes
            .saturating_sub(Self::DEFAULT_L1_RESERVED_BYTES);

        let (particle_level, l1_left) = if particle_bytes <= l1_usable {
            (MemoryLevel::L1, l1_usable - particle_bytes)
        } else if particle_bytes <= self.spec.l2_bytes {
            (MemoryLevel::L2, l1_usable)
        } else {
            (MemoryLevel::DoesNotFit, l1_usable)
        };

        let l2_used_by_particles = if particle_level == MemoryLevel::L2 {
            particle_bytes
        } else {
            0
        };
        let map_level = if map_bytes <= l1_left {
            MemoryLevel::L1
        } else if map_bytes + l2_used_by_particles <= self.spec.l2_bytes {
            MemoryLevel::L2
        } else {
            MemoryLevel::DoesNotFit
        };

        MemoryPlacement {
            particles: particle_level,
            map: map_level,
            particle_bytes,
            map_bytes,
        }
    }

    /// The largest particle count that fits into the given memory level together
    /// with a map of `map_area_m2` square metres at `resolution` m/cell.
    /// Returns `None` when even zero particles do not fit. This is one curve of
    /// the paper's Fig. 9.
    pub fn max_particles_with_map(
        &self,
        level: MemoryLevel,
        map_area_m2: f64,
        resolution: f64,
    ) -> Option<usize> {
        let budget = self.level_budget(level)?;
        let cells = (map_area_m2 / (resolution * resolution)).ceil() as usize;
        self.footprint.max_particles(budget, cells)
    }

    /// The largest map area that fits into the given memory level together with
    /// `particles` particles — the other axis of Fig. 9.
    pub fn max_map_area_m2(
        &self,
        level: MemoryLevel,
        particles: usize,
        resolution: f64,
    ) -> Option<f64> {
        let budget = self.level_budget(level)?;
        self.footprint
            .max_map_area_m2(budget, particles, resolution)
    }

    /// Usable capacity of a memory level (L1 minus the runtime reservation).
    fn level_budget(&self, level: MemoryLevel) -> Option<usize> {
        match level {
            MemoryLevel::L1 => Some(
                self.spec
                    .l1_bytes
                    .saturating_sub(Self::DEFAULT_L1_RESERVED_BYTES),
            ),
            MemoryLevel::L2 => Some(self.spec.l2_bytes),
            MemoryLevel::DoesNotFit => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_MAP_CELLS: usize = 12_480; // 31.2 m² at 0.05 m/cell

    fn full() -> MemoryPlanner {
        MemoryPlanner::new(Gap9Spec::default(), MemoryFootprint::full_precision())
    }

    fn optimized() -> MemoryPlanner {
        MemoryPlanner::new(Gap9Spec::default(), MemoryFootprint::optimized())
    }

    #[test]
    fn paper_working_points_match_table_one_footnotes() {
        // Table I marks 4096 and 16384 particles as "stored in L2", while 1024
        // particles (and below) run from L1.
        let planner = full();
        assert!(!planner.place(64, PAPER_MAP_CELLS).particles_in_l2());
        assert!(!planner.place(1024, PAPER_MAP_CELLS).particles_in_l2());
        assert!(planner.place(4096, PAPER_MAP_CELLS).particles_in_l2());
        assert!(planner.place(16_384, PAPER_MAP_CELLS).particles_in_l2());
        assert!(planner.place(16_384, PAPER_MAP_CELLS).fits());
    }

    #[test]
    fn quantized_configuration_fits_more_in_l1() {
        // With fp16 particles and the quantized map, 4096 particles fit in L1
        // alongside a small map — one of the gains Fig. 9 illustrates.
        let placement = optimized().place(4096, 4_000);
        assert_eq!(placement.particles, MemoryLevel::L1);
        assert_eq!(placement.particle_bytes, 4096 * 16);
        // The same working set at full precision pushes the particles to L2.
        assert_eq!(full().place(4096, 4_000).particles, MemoryLevel::L2);
    }

    #[test]
    fn map_prefers_l1_when_it_fits_next_to_the_particles() {
        let planner = optimized();
        // 1024 fp16 particles use 16 kB, leaving 112 kB of L1: a 2 m² quantized
        // map (800 cells, 1.6 kB) fits right next to them.
        let placement = planner.place(1024, 800);
        assert_eq!(placement.particles, MemoryLevel::L1);
        assert_eq!(placement.map, MemoryLevel::L1);
        // With the *quantized* map even the full 31.2 m² arena (≈25 kB) fits in
        // L1 next to 1024 fp16 particles — one of the paper's gains.
        let placement = planner.place(1024, PAPER_MAP_CELLS);
        assert_eq!(placement.map, MemoryLevel::L1);
        // At full precision, 2048 particles (64 kB) plus the 62 kB map exceed the
        // usable L1, so the map spills to L2.
        let placement = full().place(2048, PAPER_MAP_CELLS);
        assert_eq!(placement.particles, MemoryLevel::L1);
        assert_eq!(placement.map, MemoryLevel::L2);
    }

    #[test]
    fn oversized_working_sets_are_reported_as_not_fitting() {
        let planner = full();
        // 200k particles at 32 B/particle exceed even L2.
        let placement = planner.place(200_000, PAPER_MAP_CELLS);
        assert_eq!(placement.particles, MemoryLevel::DoesNotFit);
        assert!(!placement.fits());
        // A gigantic map cannot be placed either.
        let placement = planner.place(64, 10_000_000);
        assert_eq!(placement.map, MemoryLevel::DoesNotFit);
    }

    #[test]
    fn figure9_capacity_curves_have_the_expected_shape() {
        let full = full();
        let optimized = optimized();
        // For every map size, the optimized configuration holds at least as many
        // particles, and L2 holds more than L1.
        for area in [2.0, 8.0, 31.2, 128.0] {
            let full_l1 = full.max_particles_with_map(MemoryLevel::L1, area, 0.05);
            let opt_l1 = optimized.max_particles_with_map(MemoryLevel::L1, area, 0.05);
            let full_l2 = full.max_particles_with_map(MemoryLevel::L2, area, 0.05);
            let opt_l2 = optimized.max_particles_with_map(MemoryLevel::L2, area, 0.05);
            match (full_l1, opt_l1) {
                (Some(f), Some(o)) => assert!(o >= 2 * f, "area {area}: {o} vs {f}"),
                (None, _) => {}
                (Some(_), None) => panic!("optimized must fit wherever full fits"),
            }
            assert!(full_l2.unwrap_or(0) >= full_l1.unwrap_or(0));
            assert!(opt_l2.unwrap_or(0) >= opt_l1.unwrap_or(0));
        }
        // The paper's headline point: with the optimized layout, well over 2000
        // particles fit in L1 together with the full 31.2 m² map.
        let particles = optimized
            .max_particles_with_map(MemoryLevel::L1, 31.2, 0.05)
            .unwrap();
        assert!(particles >= 2048, "only {particles} particles fit");
        // At full precision the same map leaves room for far fewer particles.
        let full_particles = full
            .max_particles_with_map(MemoryLevel::L1, 31.2, 0.05)
            .unwrap();
        assert!(full_particles < particles / 2);
    }

    #[test]
    fn area_and_particle_capacity_are_consistent() {
        let planner = optimized();
        let particles = 4096;
        let area = planner
            .max_map_area_m2(MemoryLevel::L2, particles, 0.05)
            .unwrap();
        // Placing that exact working set must fit in L2.
        let cells = (area / (0.05 * 0.05)).floor() as usize;
        let placement = planner.place(particles, cells);
        assert!(placement.fits());
        // Asking for a particle count beyond the level's capacity returns None.
        assert!(planner
            .max_map_area_m2(MemoryLevel::L1, 1_000_000, 0.05)
            .is_none());
        assert!(planner
            .max_particles_with_map(MemoryLevel::DoesNotFit, 1.0, 0.05)
            .is_none());
    }
}
