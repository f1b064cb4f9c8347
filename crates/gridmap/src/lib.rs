//! Occupancy grid maps and Euclidean distance transforms for ToF-MCL.
//!
//! The paper localizes a nano-UAV on a 2D occupancy grid map with a cell size of
//! 0.05 m × 0.05 m. Each cell is one of three states (free, occupied, unknown) and
//! is stored as one byte to keep memory access simple. In addition, the map
//! carries a precomputed, truncated Euclidean distance transform (EDT): for every
//! cell, the distance to the nearest occupied cell, clipped at the sensor's
//! maximum range `rmax` (1.5 m). The beam-end-point observation model evaluates
//! the EDT at the end point of every ToF beam.
//!
//! This crate provides:
//!
//! * [`geometry`] — planar points, poses and frame transforms.
//! * [`grid`] — the occupancy grid map itself ([`OccupancyGrid`]).
//! * [`builder`] — drawing walls, rectangles and ASCII-art floor plans.
//! * [`edt`] — the exact Felzenszwalb–Huttenlocher distance transform and the
//!   three storage precisions the paper compares (`f32`, binary16, quantized u8).
//! * [`maze`] — a deterministic generator reproducing the paper's 31.2 m²
//!   "drone maze" evaluation environment (16 m² physical maze + 3 artificial
//!   mazes).
//! * [`worldgen`] — seed-deterministic generators for further evaluation
//!   worlds (office, symmetric corridor, open hall, warehouse) used by the
//!   `mcl_sim` scenario suite.
//! * [`io`] — a plain-text serialization format for maps so experiments can be
//!   checked in and replayed.
//!
//! # Example
//!
//! ```
//! use mcl_gridmap::{MapBuilder, DistanceField, EuclideanDistanceField};
//!
//! // A 2 m × 2 m room with 5 cm cells and a wall around the border.
//! let map = MapBuilder::new(2.0, 2.0, 0.05).border_walls().build();
//! assert_eq!(map.width(), 40);
//!
//! // Distance transform truncated at 1.5 m, as in the paper.
//! let edt = EuclideanDistanceField::compute(&map, 1.5);
//! // The centre of the room is roughly 0.95 m from the nearest border wall cell.
//! let d = edt.distance_at(map.world_to_cell(1.0, 1.0).unwrap());
//! assert!((d - 0.95).abs() < 0.06);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod edt;
pub mod geometry;
pub mod grid;
pub mod io;
pub mod maze;
pub mod worldgen;

pub use builder::MapBuilder;
#[cfg(target_arch = "x86_64")]
pub use edt::GatherLookup;
pub use edt::{
    DistanceField, EuclideanDistanceField, F16DistanceField, QuantizedDistanceField, DISTANCE_LANES,
};
pub use geometry::{Point2, Pose2};
pub use grid::{CellIndex, CellState, GridError, OccupancyGrid};
pub use maze::{DroneMaze, MazeConfig};
pub use worldgen::{uwb_anchor_positions, WorldKind};
