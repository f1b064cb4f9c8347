//! GAP9 platform model: latency, memory placement and power.
//!
//! The paper's on-board results (Table I, Table II, Fig. 9, Fig. 10) are
//! properties of the GAP9 SoC rather than of the localization algorithm:
//! per-particle execution times on 1 vs 8 cluster cores, the L1/L2 memory
//! trade-off between particle count and map size, and the average power at
//! different DVFS operating points. The physical chip is not available in this
//! reproduction, so this crate provides an analytic model of those properties,
//! calibrated against the numbers published in the paper:
//!
//! * [`spec`] — the static SoC parameters (memory sizes, core counts, clock
//!   range) taken from the paper's §III-B.
//! * [`cost`] — a cycle-cost model of the four MCL steps, including the
//!   parallel-efficiency and L2-access effects visible in Table I, plus the
//!   ~40 µs per-update orchestration overhead the paper reports.
//! * [`memory`] — placement of the particle buffers and the map into L1/L2
//!   (reproduces Fig. 9).
//! * [`power`] — the DVFS power model fitted to Table II and the whole-drone
//!   power budget of §IV-E.
//!
//! The model is *calibrated*, not cycle-accurate: absolute numbers are expected
//! to track the paper within tens of percent, while the qualitative behaviour —
//! which step dominates, how speedup scales with particle count, where the
//! L1/L2 crossovers are, how power scales with frequency — is reproduced
//! structurally.
//!
//! # Example
//!
//! ```
//! use mcl_gap9::{CostModel, Gap9Spec, OperatingPoint, PowerModel};
//!
//! let cost = CostModel::default();
//! let breakdown = cost.update_breakdown(4096, 16, 8, true);
//! // A 4096-particle update on 8 cores completes within the 15 Hz budget.
//! let time_s = breakdown.total_cycles as f64 / OperatingPoint::MAX_400MHZ.frequency_hz();
//! assert!(time_s < 1.0 / 15.0);
//!
//! let power = PowerModel::default();
//! let p_mw = power.average_power_mw(OperatingPoint::MAX_400MHZ);
//! assert!(p_mw > 30.0 && p_mw < 90.0);
//! # let _ = Gap9Spec::default();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod memory;
pub mod power;
pub mod spec;

pub use cost::{CostModel, McStep, StepBreakdown};
pub use memory::{MemoryLevel, MemoryPlacement, MemoryPlanner};
pub use power::{OperatingPoint, PowerModel, SystemPowerBudget};
pub use spec::Gap9Spec;
