//! The occupancy grid map.
//!
//! A map is a rectangle of square cells of side `resolution` metres (0.05 m in the
//! paper), each in one of three states. The paper notes that while 2 bits per cell
//! would suffice for 3 states, cells are stored as one byte each to keep memory
//! access simple — [`OccupancyGrid`] does the same, and the memory accounting in
//! `mcl-gap9` uses 1 byte/cell for the occupancy part of the map.

use crate::geometry::Point2;

/// The state of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CellState {
    /// The cell is known to be traversable.
    Free = 0,
    /// The cell contains an obstacle (wall, maze panel, …).
    Occupied = 1,
    /// Nothing is known about the cell (outside the mapped area).
    #[default]
    Unknown = 2,
}

impl CellState {
    /// Decodes the one-byte on-map representation.
    pub fn from_byte(byte: u8) -> CellState {
        match byte {
            0 => CellState::Free,
            1 => CellState::Occupied,
            _ => CellState::Unknown,
        }
    }

    /// Encodes into the one-byte on-map representation.
    pub fn to_byte(self) -> u8 {
        self as u8
    }
}

/// Index of a cell: column `col` (x direction) and row `row` (y direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellIndex {
    /// Column index, along +X.
    pub col: usize,
    /// Row index, along +Y.
    pub row: usize,
}

impl CellIndex {
    /// Creates a cell index.
    pub fn new(col: usize, row: usize) -> Self {
        CellIndex { col, row }
    }
}

/// Errors raised by map construction and access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridError {
    /// Requested dimensions or resolution are not positive / finite.
    InvalidDimensions {
        /// Map width in metres as requested.
        width_m: f32,
        /// Map height in metres as requested.
        height_m: f32,
        /// Cell size in metres as requested.
        resolution: f32,
    },
    /// A cell index lies outside the map.
    OutOfBounds {
        /// Offending column.
        col: usize,
        /// Offending row.
        row: usize,
    },
}

impl core::fmt::Display for GridError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GridError::InvalidDimensions {
                width_m,
                height_m,
                resolution,
            } => write!(
                f,
                "invalid map dimensions {width_m} m x {height_m} m at {resolution} m/cell"
            ),
            GridError::OutOfBounds { col, row } => {
                write!(f, "cell ({col}, {row}) is outside the map")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A 2D occupancy grid map with square cells.
///
/// The map origin (world coordinate `(0, 0)`) is the outer corner of cell
/// `(0, 0)`; world X grows with the column index and world Y with the row index.
///
/// # Example
///
/// ```
/// use mcl_gridmap::{CellState, OccupancyGrid};
///
/// let mut map = OccupancyGrid::new(1.0, 0.5, 0.05).unwrap();
/// assert_eq!((map.width(), map.height()), (20, 10));
/// let idx = map.world_to_cell(0.49, 0.26).unwrap();
/// map.set(idx, CellState::Occupied).unwrap();
/// assert_eq!(map.state_at_world(0.49, 0.26), CellState::Occupied);
/// assert_eq!(map.state_at_world(5.0, 5.0), CellState::Unknown);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    width: usize,
    height: usize,
    resolution: f32,
    cells: Vec<u8>,
}

impl OccupancyGrid {
    /// Creates a map of `width_m` × `height_m` metres with square cells of side
    /// `resolution` metres, all initialized to [`CellState::Free`].
    ///
    /// Dimensions are rounded up to a whole number of cells.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidDimensions`] if any argument is not a positive,
    /// finite number.
    pub fn new(width_m: f32, height_m: f32, resolution: f32) -> Result<Self, GridError> {
        if !(width_m.is_finite() && height_m.is_finite() && resolution.is_finite())
            || width_m <= 0.0
            || height_m <= 0.0
            || resolution <= 0.0
        {
            return Err(GridError::InvalidDimensions {
                width_m,
                height_m,
                resolution,
            });
        }
        let width = (width_m / resolution).ceil() as usize;
        let height = (height_m / resolution).ceil() as usize;
        Ok(OccupancyGrid {
            width,
            height,
            resolution,
            cells: vec![CellState::Free.to_byte(); width * height],
        })
    }

    /// Number of columns (cells along X).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows (cells along Y).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell side length in metres.
    pub fn resolution(&self) -> f32 {
        self.resolution
    }

    /// Map width in metres.
    pub fn width_m(&self) -> f32 {
        self.width as f32 * self.resolution
    }

    /// Map height in metres.
    pub fn height_m(&self) -> f32 {
        self.height as f32 * self.resolution
    }

    /// Total mapped area in square metres.
    pub fn area_m2(&self) -> f32 {
        self.width_m() * self.height_m()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.width * self.height
    }

    /// Returns `true` when the cell index lies inside the map.
    pub fn contains(&self, idx: CellIndex) -> bool {
        idx.col < self.width && idx.row < self.height
    }

    /// Converts world coordinates (metres) to the containing cell, or `None` when
    /// the position lies outside the map.
    pub fn world_to_cell(&self, x: f32, y: f32) -> Option<CellIndex> {
        if x < 0.0 || y < 0.0 || !x.is_finite() || !y.is_finite() {
            return None;
        }
        let col = (x / self.resolution) as usize;
        let row = (y / self.resolution) as usize;
        let idx = CellIndex::new(col, row);
        if self.contains(idx) {
            Some(idx)
        } else {
            None
        }
    }

    /// The world coordinates of the centre of a cell.
    pub fn cell_to_world(&self, idx: CellIndex) -> Point2 {
        Point2::new(
            (idx.col as f32 + 0.5) * self.resolution,
            (idx.row as f32 + 0.5) * self.resolution,
        )
    }

    /// State of a cell, or `Unknown` for indices outside the map.
    pub fn state(&self, idx: CellIndex) -> CellState {
        if self.contains(idx) {
            CellState::from_byte(self.cells[idx.row * self.width + idx.col])
        } else {
            CellState::Unknown
        }
    }

    /// State of the cell containing a world coordinate, `Unknown` outside the map.
    pub fn state_at_world(&self, x: f32, y: f32) -> CellState {
        match self.world_to_cell(x, y) {
            Some(idx) => self.state(idx),
            None => CellState::Unknown,
        }
    }

    /// Sets the state of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] when the index lies outside the map.
    pub fn set(&mut self, idx: CellIndex, state: CellState) -> Result<(), GridError> {
        if !self.contains(idx) {
            return Err(GridError::OutOfBounds {
                col: idx.col,
                row: idx.row,
            });
        }
        self.cells[idx.row * self.width + idx.col] = state.to_byte();
        Ok(())
    }

    /// Returns `true` when the cell containing `(x, y)` is free (inside the map
    /// and not occupied / unknown).
    pub fn is_free_world(&self, x: f32, y: f32) -> bool {
        self.state_at_world(x, y) == CellState::Free
    }

    /// Iterates over all cell indices in row-major order.
    pub fn indices(&self) -> impl Iterator<Item = CellIndex> + '_ {
        let width = self.width;
        (0..self.height).flat_map(move |row| (0..width).map(move |col| CellIndex::new(col, row)))
    }

    /// Iterates over `(index, state)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (CellIndex, CellState)> + '_ {
        self.indices().map(move |idx| (idx, self.state(idx)))
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|&&c| c == CellState::Occupied.to_byte())
            .count()
    }

    /// Number of free cells.
    pub fn free_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|&&c| c == CellState::Free.to_byte())
            .count()
    }

    /// Memory used by the occupancy part of the map: one byte per cell, exactly
    /// as stored on GAP9.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len()
    }

    /// Raw row-major cell bytes (used by the serializer).
    pub(crate) fn raw_cells(&self) -> &[u8] {
        &self.cells
    }

    /// Rebuilds a map from raw parts (used by the deserializer).
    pub(crate) fn from_raw(
        width: usize,
        height: usize,
        resolution: f32,
        cells: Vec<u8>,
    ) -> Result<Self, GridError> {
        if width == 0 || height == 0 || resolution <= 0.0 || cells.len() != width * height {
            return Err(GridError::InvalidDimensions {
                width_m: width as f32 * resolution,
                height_m: height as f32 * resolution,
                resolution,
            });
        }
        Ok(OccupancyGrid {
            width,
            height,
            resolution,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rounds_up_to_whole_cells() {
        let map = OccupancyGrid::new(1.02, 0.98, 0.05).unwrap();
        assert_eq!(map.width(), 21);
        assert_eq!(map.height(), 20);
        assert!((map.width_m() - 1.05).abs() < 1e-6);
        assert_eq!(map.cell_count(), 420);
    }

    #[test]
    fn construction_rejects_bad_arguments() {
        assert!(OccupancyGrid::new(0.0, 1.0, 0.05).is_err());
        assert!(OccupancyGrid::new(1.0, -1.0, 0.05).is_err());
        assert!(OccupancyGrid::new(1.0, 1.0, 0.0).is_err());
        assert!(OccupancyGrid::new(f32::NAN, 1.0, 0.05).is_err());
    }

    #[test]
    fn world_cell_roundtrip() {
        let map = OccupancyGrid::new(2.0, 2.0, 0.05).unwrap();
        let idx = map.world_to_cell(1.23, 0.47).unwrap();
        assert_eq!(idx, CellIndex::new(24, 9));
        let centre = map.cell_to_world(idx);
        assert!((centre.x - 1.225).abs() < 1e-6);
        assert!((centre.y - 0.475).abs() < 1e-6);
        // The centre maps back to the same cell.
        assert_eq!(map.world_to_cell(centre.x, centre.y).unwrap(), idx);
    }

    #[test]
    fn out_of_bounds_reads_are_unknown_and_writes_fail() {
        let mut map = OccupancyGrid::new(1.0, 1.0, 0.1).unwrap();
        assert_eq!(map.state_at_world(-0.01, 0.5), CellState::Unknown);
        assert_eq!(map.state_at_world(0.5, 2.0), CellState::Unknown);
        assert!(map.world_to_cell(1.01, 0.5).is_none());
        let err = map
            .set(CellIndex::new(10, 0), CellState::Occupied)
            .unwrap_err();
        assert_eq!(err, GridError::OutOfBounds { col: 10, row: 0 });
    }

    #[test]
    fn set_and_count_states() {
        let mut map = OccupancyGrid::new(0.5, 0.5, 0.1).unwrap();
        assert_eq!(map.free_count(), 25);
        map.set(CellIndex::new(0, 0), CellState::Occupied).unwrap();
        map.set(CellIndex::new(4, 4), CellState::Occupied).unwrap();
        map.set(CellIndex::new(2, 2), CellState::Unknown).unwrap();
        assert_eq!(map.occupied_count(), 2);
        assert_eq!(map.free_count(), 22);
        assert!(!map.is_free_world(0.05, 0.05));
        assert!(map.is_free_world(0.15, 0.05));
    }

    #[test]
    fn one_byte_per_cell_memory_accounting() {
        let map = OccupancyGrid::new(4.0, 4.0, 0.05).unwrap();
        assert_eq!(map.memory_bytes(), 80 * 80);
        assert_eq!(map.area_m2(), 16.0);
    }

    #[test]
    fn cell_state_byte_roundtrip() {
        for s in [CellState::Free, CellState::Occupied, CellState::Unknown] {
            assert_eq!(CellState::from_byte(s.to_byte()), s);
        }
        assert_eq!(CellState::from_byte(77), CellState::Unknown);
    }

    #[test]
    fn iteration_is_row_major_and_complete() {
        let map = OccupancyGrid::new(0.3, 0.2, 0.1).unwrap();
        let indices: Vec<CellIndex> = map.indices().collect();
        assert_eq!(indices.len(), 6);
        assert_eq!(indices[0], CellIndex::new(0, 0));
        assert_eq!(indices[1], CellIndex::new(1, 0));
        assert_eq!(indices[3], CellIndex::new(0, 1));
        assert_eq!(map.iter().count(), 6);
    }
}
