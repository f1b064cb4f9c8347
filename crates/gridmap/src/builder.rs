//! Construction of occupancy grid maps from geometric primitives or ASCII art.
//!
//! The paper's map is acquired by manually measuring the maze objects; the
//! equivalent here is drawing the measured walls into a map with [`MapBuilder`].
//! The builder supports axis-aligned and diagonal wall segments (rasterised with
//! Bresenham's algorithm and an optional thickness), filled and hollow rectangles,
//! border walls, unknown regions, and parsing a whole floor plan from ASCII art
//! (used extensively by the test-suites of the downstream crates).

use crate::geometry::Point2;
use crate::grid::{CellIndex, CellState, OccupancyGrid};

/// Builder for [`OccupancyGrid`] maps.
///
/// All coordinates are metres in the map frame (origin at the lower-left corner).
/// Drawing operations silently clip to the map area, matching how a tape-measured
/// floor plan is digitised.
///
/// # Example
///
/// ```
/// use mcl_gridmap::{CellState, MapBuilder};
///
/// let map = MapBuilder::new(4.0, 4.0, 0.05)
///     .border_walls()
///     .wall((1.0, 1.0), (3.0, 1.0))
///     .filled_rect((1.8, 2.5), (2.2, 3.0))
///     .build();
/// assert_eq!(map.state_at_world(2.0, 1.0), CellState::Occupied);
/// assert_eq!(map.state_at_world(2.0, 2.75), CellState::Occupied);
/// assert_eq!(map.state_at_world(2.0, 2.0), CellState::Free);
/// ```
#[derive(Debug, Clone)]
pub struct MapBuilder {
    map: OccupancyGrid,
}

impl MapBuilder {
    /// Starts building a `width_m` × `height_m` map with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not positive finite numbers; the builder is
    /// meant for statically-known floor plans where that is a programming error.
    pub fn new(width_m: f32, height_m: f32, resolution: f32) -> Self {
        let map = OccupancyGrid::new(width_m, height_m, resolution)
            .expect("map dimensions must be positive finite numbers");
        MapBuilder { map }
    }

    /// Marks the outermost ring of cells as occupied (the room perimeter).
    pub fn border_walls(mut self) -> Self {
        let (w, h) = (self.map.width(), self.map.height());
        for col in 0..w {
            let _ = self.map.set(CellIndex::new(col, 0), CellState::Occupied);
            let _ = self
                .map
                .set(CellIndex::new(col, h - 1), CellState::Occupied);
        }
        for row in 0..h {
            let _ = self.map.set(CellIndex::new(0, row), CellState::Occupied);
            let _ = self
                .map
                .set(CellIndex::new(w - 1, row), CellState::Occupied);
        }
        self
    }

    /// Draws a one-cell-thick wall between two points (metres).
    pub fn wall(self, from: (f32, f32), to: (f32, f32)) -> Self {
        self.thick_wall(from, to, 0.0)
    }

    /// Draws a wall of the given thickness (metres) between two points.
    pub fn thick_wall(mut self, from: (f32, f32), to: (f32, f32), thickness: f32) -> Self {
        let res = self.map.resolution();
        let radius_cells = (thickness / (2.0 * res)).round() as i64;
        let start = self.to_cell_clamped(from);
        let end = self.to_cell_clamped(to);
        for (col, row) in bresenham(start, end) {
            self.stamp(col, row, radius_cells, CellState::Occupied);
        }
        self
    }

    /// Fills an axis-aligned rectangle (corners in metres) with occupied cells.
    pub fn filled_rect(mut self, corner_a: (f32, f32), corner_b: (f32, f32)) -> Self {
        self.fill_rect_state(corner_a, corner_b, CellState::Occupied);
        self
    }

    /// Draws the outline of an axis-aligned rectangle as occupied cells.
    pub fn hollow_rect(self, corner_a: (f32, f32), corner_b: (f32, f32)) -> Self {
        let (x0, x1) = minmax(corner_a.0, corner_b.0);
        let (y0, y1) = minmax(corner_a.1, corner_b.1);
        self.wall((x0, y0), (x1, y0))
            .wall((x1, y0), (x1, y1))
            .wall((x1, y1), (x0, y1))
            .wall((x0, y1), (x0, y0))
    }

    /// Marks an axis-aligned rectangle as unknown (outside the mapped area).
    pub fn unknown_rect(mut self, corner_a: (f32, f32), corner_b: (f32, f32)) -> Self {
        self.fill_rect_state(corner_a, corner_b, CellState::Unknown);
        self
    }

    /// Finishes building and returns the map.
    pub fn build(self) -> OccupancyGrid {
        self.map
    }

    /// Parses a floor plan from ASCII art.
    ///
    /// Each character is one cell: `#` occupied, `.` or space free, `?` unknown.
    /// The *first* text row is the *top* row of the map (highest Y), matching how
    /// floor plans are drawn on paper.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the art is empty.
    pub fn from_ascii(art: &str, resolution: f32) -> OccupancyGrid {
        let rows: Vec<&str> = art
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty())
            .collect();
        assert!(!rows.is_empty(), "ASCII map must contain at least one row");
        let width = rows[0].chars().count();
        assert!(width > 0, "ASCII map rows must be non-empty");
        for row in &rows {
            assert_eq!(
                row.chars().count(),
                width,
                "all ASCII map rows must have the same length"
            );
        }
        let height = rows.len();
        let mut map = OccupancyGrid::new(
            width as f32 * resolution,
            height as f32 * resolution,
            resolution,
        )
        .expect("resolution must be positive");
        for (text_row, line) in rows.iter().enumerate() {
            let map_row = height - 1 - text_row;
            for (col, ch) in line.chars().enumerate() {
                let state = match ch {
                    '#' => CellState::Occupied,
                    '?' => CellState::Unknown,
                    _ => CellState::Free,
                };
                let _ = map.set(CellIndex::new(col, map_row), state);
            }
        }
        map
    }

    fn fill_rect_state(&mut self, corner_a: (f32, f32), corner_b: (f32, f32), state: CellState) {
        let res = self.map.resolution();
        let (x0, x1) = minmax(corner_a.0, corner_b.0);
        let (y0, y1) = minmax(corner_a.1, corner_b.1);
        let col0 = (x0 / res).floor().max(0.0) as usize;
        let row0 = (y0 / res).floor().max(0.0) as usize;
        let col1 = ((x1 / res).ceil() as usize).min(self.map.width());
        let row1 = ((y1 / res).ceil() as usize).min(self.map.height());
        for row in row0..row1 {
            for col in col0..col1 {
                let _ = self.map.set(CellIndex::new(col, row), state);
            }
        }
    }

    fn to_cell_clamped(&self, point: (f32, f32)) -> (i64, i64) {
        let res = self.map.resolution();
        let col = (point.0 / res).floor() as i64;
        let row = (point.1 / res).floor() as i64;
        (
            col.clamp(0, self.map.width() as i64 - 1),
            row.clamp(0, self.map.height() as i64 - 1),
        )
    }

    fn stamp(&mut self, col: i64, row: i64, radius: i64, state: CellState) {
        for dr in -radius..=radius {
            for dc in -radius..=radius {
                let c = col + dc;
                let r = row + dr;
                if c >= 0 && r >= 0 {
                    let _ = self.map.set(CellIndex::new(c as usize, r as usize), state);
                }
            }
        }
    }
}

/// Integer Bresenham line rasterisation between two cells (inclusive).
fn bresenham(start: (i64, i64), end: (i64, i64)) -> Vec<(i64, i64)> {
    let (mut x0, mut y0) = start;
    let (x1, y1) = end;
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let mut cells = Vec::with_capacity((dx.max(-dy) + 1) as usize);
    loop {
        cells.push((x0, y0));
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x0 += sx;
        }
        if e2 <= dx {
            err += dx;
            y0 += sy;
        }
    }
    cells
}

fn minmax(a: f32, b: f32) -> (f32, f32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Convenience: the nearest free cell centre to a world point, searching outward.
///
/// Useful for snapping a trajectory waypoint that was placed slightly inside a
/// wall back into free space. Returns `None` when the map has no free cell.
pub fn nearest_free_point(map: &OccupancyGrid, x: f32, y: f32) -> Option<Point2> {
    if map.is_free_world(x, y) {
        return Some(Point2::new(x, y));
    }
    let centre = map.world_to_cell(
        x.clamp(0.0, map.width_m() - map.resolution() * 0.5),
        y.clamp(0.0, map.height_m() - map.resolution() * 0.5),
    )?;
    let max_radius = map.width().max(map.height()) as i64;
    for radius in 1..=max_radius {
        let mut best: Option<(f32, Point2)> = None;
        for dr in -radius..=radius {
            for dc in -radius..=radius {
                if dr.abs() != radius && dc.abs() != radius {
                    continue; // only the ring at this radius
                }
                let col = centre.col as i64 + dc;
                let row = centre.row as i64 + dr;
                if col < 0 || row < 0 {
                    continue;
                }
                let idx = CellIndex::new(col as usize, row as usize);
                if !map.contains(idx) || map.state(idx) != CellState::Free {
                    continue;
                }
                let p = map.cell_to_world(idx);
                let d = p.distance(&Point2::new(x, y));
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, p));
                }
            }
        }
        if let Some((_, p)) = best {
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn border_walls_enclose_the_map() {
        let map = MapBuilder::new(1.0, 1.0, 0.1).border_walls().build();
        assert_eq!(map.state(CellIndex::new(0, 0)), CellState::Occupied);
        assert_eq!(map.state(CellIndex::new(9, 9)), CellState::Occupied);
        assert_eq!(map.state(CellIndex::new(5, 0)), CellState::Occupied);
        assert_eq!(map.state(CellIndex::new(0, 5)), CellState::Occupied);
        assert_eq!(map.state(CellIndex::new(5, 5)), CellState::Free);
        // 4 sides of 10 cells minus 4 double-counted corners.
        assert_eq!(map.occupied_count(), 36);
    }

    #[test]
    fn horizontal_and_vertical_walls() {
        let map = MapBuilder::new(2.0, 2.0, 0.1)
            .wall((0.5, 1.0), (1.5, 1.0))
            .wall((1.0, 0.2), (1.0, 0.6))
            .build();
        assert_eq!(map.state_at_world(1.0, 1.0), CellState::Occupied);
        assert_eq!(map.state_at_world(0.5, 1.0), CellState::Occupied);
        assert_eq!(map.state_at_world(1.5, 1.0), CellState::Occupied);
        assert_eq!(map.state_at_world(1.0, 0.4), CellState::Occupied);
        assert_eq!(map.state_at_world(0.4, 1.0), CellState::Free);
    }

    #[test]
    fn diagonal_wall_is_connected() {
        let map = MapBuilder::new(1.0, 1.0, 0.05)
            .wall((0.1, 0.1), (0.9, 0.9))
            .build();
        // Every point along the diagonal is within one cell of an occupied cell.
        for i in 0..=20 {
            let t = i as f32 / 20.0;
            let x = 0.1 + 0.8 * t;
            let y = 0.1 + 0.8 * t;
            let idx = map.world_to_cell(x, y).unwrap();
            let occupied_near = (-1..=1).any(|dr| {
                (-1..=1).any(|dc| {
                    let c = idx.col as i64 + dc;
                    let r = idx.row as i64 + dr;
                    c >= 0
                        && r >= 0
                        && map.state(CellIndex::new(c as usize, r as usize)) == CellState::Occupied
                })
            });
            assert!(occupied_near, "gap in diagonal wall near ({x}, {y})");
        }
    }

    #[test]
    fn thick_wall_has_requested_width() {
        let map = MapBuilder::new(2.0, 2.0, 0.05)
            .thick_wall((0.5, 1.0), (1.5, 1.0), 0.2)
            .build();
        // 0.2 m thickness at 0.05 m cells → roughly 2 cells on each side.
        assert_eq!(map.state_at_world(1.0, 1.1), CellState::Occupied);
        assert_eq!(map.state_at_world(1.0, 0.9), CellState::Occupied);
        assert_eq!(map.state_at_world(1.0, 1.3), CellState::Free);
    }

    #[test]
    fn rects_fill_and_outline() {
        let map = MapBuilder::new(2.0, 2.0, 0.1)
            .filled_rect((0.2, 0.2), (0.6, 0.6))
            .hollow_rect((1.0, 1.0), (1.8, 1.8))
            .build();
        assert_eq!(map.state_at_world(0.4, 0.4), CellState::Occupied);
        assert_eq!(map.state_at_world(1.4, 1.0), CellState::Occupied);
        assert_eq!(map.state_at_world(1.4, 1.4), CellState::Free);
    }

    #[test]
    fn unknown_rect_marks_cells_unknown() {
        let map = MapBuilder::new(1.0, 1.0, 0.1)
            .unknown_rect((0.0, 0.0), (0.5, 1.0))
            .build();
        assert_eq!(map.state_at_world(0.25, 0.5), CellState::Unknown);
        assert_eq!(map.state_at_world(0.75, 0.5), CellState::Free);
    }

    #[test]
    fn ascii_maps_are_parsed_with_top_row_first() {
        let art = "\
            #####\n\
            #...#\n\
            #.?.#\n\
            #####";
        let map = MapBuilder::from_ascii(art, 0.1);
        assert_eq!(map.width(), 5);
        assert_eq!(map.height(), 4);
        // Bottom-left corner of the art is the last text row, first map row.
        assert_eq!(map.state(CellIndex::new(0, 0)), CellState::Occupied);
        assert_eq!(map.state(CellIndex::new(2, 1)), CellState::Unknown);
        assert_eq!(map.state(CellIndex::new(1, 2)), CellState::Free);
        assert_eq!(map.state(CellIndex::new(2, 3)), CellState::Occupied);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ascii_maps_reject_ragged_rows() {
        MapBuilder::from_ascii("###\n##", 0.1);
    }

    #[test]
    fn clipping_outside_the_map_is_silent() {
        let map = MapBuilder::new(1.0, 1.0, 0.1)
            .wall((-1.0, 0.5), (2.0, 0.5))
            .filled_rect((0.8, 0.8), (3.0, 3.0))
            .build();
        assert_eq!(map.state_at_world(0.05, 0.5), CellState::Occupied);
        assert_eq!(map.state_at_world(0.95, 0.95), CellState::Occupied);
    }

    #[test]
    fn nearest_free_point_escapes_walls() {
        let map = MapBuilder::new(1.0, 1.0, 0.1)
            .filled_rect((0.0, 0.0), (0.5, 1.0))
            .build();
        let p = nearest_free_point(&map, 0.25, 0.5).unwrap();
        assert!(map.is_free_world(p.x, p.y));
        assert!(p.x > 0.5);
        // Already-free points are returned unchanged.
        let q = nearest_free_point(&map, 0.75, 0.5).unwrap();
        assert_eq!((q.x, q.y), (0.75, 0.5));
    }

    #[test]
    fn nearest_free_point_returns_none_for_fully_occupied_map() {
        let map = MapBuilder::new(0.3, 0.3, 0.1)
            .filled_rect((0.0, 0.0), (0.3, 0.3))
            .build();
        assert!(nearest_free_point(&map, 0.15, 0.15).is_none());
    }
}
