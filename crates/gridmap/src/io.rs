//! Plain-text serialization of occupancy grid maps.
//!
//! The paper's companion release ships the hand-measured maze map as a file; to
//! make experiments reproducible and diffable we serialize maps to a small
//! self-describing ASCII format (a PGM-like header plus one character per cell)
//! and back, so maps can be checked into the repository and inspected by eye.

use crate::grid::{GridError, OccupancyGrid};
use std::fmt::Write as _;
use std::path::Path;

/// Errors raised while reading a serialized map.
#[derive(Debug)]
pub enum MapIoError {
    /// The header or cell payload is malformed.
    Parse(String),
    /// The parsed dimensions are inconsistent with the payload.
    Grid(GridError),
    /// Underlying file I/O failed.
    Io(std::io::Error),
}

impl core::fmt::Display for MapIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapIoError::Parse(msg) => write!(f, "malformed map file: {msg}"),
            MapIoError::Grid(e) => write!(f, "inconsistent map file: {e}"),
            MapIoError::Io(e) => write!(f, "map file I/O error: {e}"),
        }
    }
}

impl std::error::Error for MapIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapIoError::Grid(e) => Some(e),
            MapIoError::Io(e) => Some(e),
            MapIoError::Parse(_) => None,
        }
    }
}

impl From<GridError> for MapIoError {
    fn from(value: GridError) -> Self {
        MapIoError::Grid(value)
    }
}

impl From<std::io::Error> for MapIoError {
    fn from(value: std::io::Error) -> Self {
        MapIoError::Io(value)
    }
}

/// Serializes a map to the text format.
///
/// Format: a header line `tofmcl-map <width> <height> <resolution>` followed by
/// `height` lines of `width` characters each (`.` free, `#` occupied, `?`
/// unknown), written top row (largest Y) first so the file reads like a floor
/// plan.
///
/// # Example
///
/// ```
/// use mcl_gridmap::{MapBuilder, io};
///
/// let map = MapBuilder::new(0.3, 0.2, 0.1).border_walls().build();
/// let text = io::to_text(&map);
/// let restored = io::from_text(&text).unwrap();
/// assert_eq!(map, restored);
/// ```
pub fn to_text(map: &OccupancyGrid) -> String {
    let mut out = String::with_capacity(map.cell_count() + map.height() + 64);
    let _ = writeln!(
        out,
        "tofmcl-map {} {} {}",
        map.width(),
        map.height(),
        map.resolution()
    );
    for row in (0..map.height()).rev() {
        for col in 0..map.width() {
            let byte = map.raw_cells()[row * map.width() + col];
            out.push(match byte {
                0 => '.',
                1 => '#',
                _ => '?',
            });
        }
        out.push('\n');
    }
    out
}

/// Parses a map from the text format produced by [`to_text`].
///
/// # Errors
///
/// Returns [`MapIoError::Parse`] for malformed headers or payload characters and
/// [`MapIoError::Grid`] when the dimensions do not match the payload.
pub fn from_text(text: &str) -> Result<OccupancyGrid, MapIoError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| MapIoError::Parse("empty file".to_owned()))?;
    let mut parts = header.split_whitespace();
    let magic = parts.next().unwrap_or_default();
    if magic != "tofmcl-map" {
        return Err(MapIoError::Parse(format!("bad magic '{magic}'")));
    }
    let width: usize = parse_field(parts.next(), "width")?;
    let height: usize = parse_field(parts.next(), "height")?;
    let resolution: f32 = parse_field(parts.next(), "resolution")?;

    let mut cells = vec![0u8; width * height];
    let mut rows_read = 0usize;
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if rows_read >= height {
            return Err(MapIoError::Parse(format!("too many rows (line {})", i + 2)));
        }
        let row = height - 1 - rows_read;
        let mut cols = 0usize;
        for ch in line.chars() {
            if cols >= width {
                return Err(MapIoError::Parse(format!("row {} too long", rows_read)));
            }
            cells[row * width + cols] = match ch {
                '.' => 0,
                '#' => 1,
                '?' => 2,
                other => {
                    return Err(MapIoError::Parse(format!(
                        "unexpected character '{other}' in row {rows_read}"
                    )))
                }
            };
            cols += 1;
        }
        if cols != width {
            return Err(MapIoError::Parse(format!(
                "row {rows_read} has {cols} cells, expected {width}"
            )));
        }
        rows_read += 1;
    }
    if rows_read != height {
        return Err(MapIoError::Parse(format!(
            "found {rows_read} rows, expected {height}"
        )));
    }
    Ok(OccupancyGrid::from_raw(width, height, resolution, cells)?)
}

/// Writes a map to a file in the text format.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save(map: &OccupancyGrid, path: impl AsRef<Path>) -> Result<(), MapIoError> {
    std::fs::write(path, to_text(map))?;
    Ok(())
}

/// Loads a map from a file in the text format.
///
/// # Errors
///
/// Propagates file-system errors and the parse errors of [`from_text`].
pub fn load(path: impl AsRef<Path>) -> Result<OccupancyGrid, MapIoError> {
    let text = std::fs::read_to_string(path)?;
    from_text(&text)
}

fn parse_field<T: core::str::FromStr>(field: Option<&str>, name: &str) -> Result<T, MapIoError> {
    field
        .ok_or_else(|| MapIoError::Parse(format!("missing {name}")))?
        .parse()
        .map_err(|_| MapIoError::Parse(format!("invalid {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MapBuilder;
    use crate::grid::{CellIndex, CellState};
    use crate::maze::DroneMaze;

    #[test]
    fn text_roundtrip_preserves_every_cell() {
        let mut map = MapBuilder::new(1.0, 0.6, 0.1)
            .border_walls()
            .wall((0.3, 0.3), (0.7, 0.3))
            .build();
        map.set(CellIndex::new(3, 3), CellState::Unknown).unwrap();
        let text = to_text(&map);
        let restored = from_text(&text).unwrap();
        assert_eq!(map, restored);
    }

    #[test]
    fn paper_maze_roundtrips() {
        let maze = DroneMaze::paper_layout(5);
        let text = to_text(maze.map());
        let restored = from_text(&text).unwrap();
        assert_eq!(maze.map(), &restored);
    }

    #[test]
    fn header_errors_are_reported() {
        assert!(matches!(from_text(""), Err(MapIoError::Parse(_))));
        assert!(matches!(
            from_text("wrong-magic 2 2 0.1\n..\n..\n"),
            Err(MapIoError::Parse(_))
        ));
        assert!(matches!(
            from_text("tofmcl-map x 2 0.1\n..\n..\n"),
            Err(MapIoError::Parse(_))
        ));
        assert!(matches!(
            from_text("tofmcl-map 2 2\n..\n..\n"),
            Err(MapIoError::Parse(_))
        ));
    }

    #[test]
    fn payload_errors_are_reported() {
        // Wrong row length.
        assert!(matches!(
            from_text("tofmcl-map 3 2 0.1\n...\n..\n"),
            Err(MapIoError::Parse(_))
        ));
        // Missing rows.
        assert!(matches!(
            from_text("tofmcl-map 3 2 0.1\n...\n"),
            Err(MapIoError::Parse(_))
        ));
        // Extra rows.
        assert!(matches!(
            from_text("tofmcl-map 2 1 0.1\n..\n..\n"),
            Err(MapIoError::Parse(_))
        ));
        // Bad character.
        assert!(matches!(
            from_text("tofmcl-map 2 1 0.1\n.x\n"),
            Err(MapIoError::Parse(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mcl_gridmap_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("maze.map");
        let map = MapBuilder::new(0.5, 0.5, 0.05).border_walls().build();
        save(&map, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(map, loaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_an_io_error() {
        let err = load("/nonexistent/definitely/not/here.map").unwrap_err();
        assert!(matches!(err, MapIoError::Io(_)));
        // Display and source are wired up.
        assert!(err.to_string().contains("I/O"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
