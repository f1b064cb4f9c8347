//! Euclidean distance transforms (EDT) of occupancy grid maps.
//!
//! The beam-end-point observation model (Eq. 1 of the paper) scores a particle by
//! looking up, for every ToF beam end point, the distance to the nearest obstacle.
//! Those distances are precomputed once per map with the exact algorithm of
//! Felzenszwalb & Huttenlocher ("Distance Transforms of Sampled Functions",
//! Theory of Computing 2012) and truncated at the sensor's maximum range `rmax`.
//!
//! The paper compares three ways of *storing* the precomputed field:
//!
//! | configuration | storage | bytes/cell |
//! |---|---|---|
//! | `fp32`   | [`EuclideanDistanceField`] (f32) | 4 |
//! | `fp16`   | [`F16DistanceField`] (binary16)  | 2 |
//! | `…qm`    | [`QuantizedDistanceField`] (u8, linear code over `[0, rmax]`) | 1 |
//!
//! All three implement [`DistanceField`], which is what the observation model in
//! `mcl-core` is generic over. On x86-64 each also offers a [`GatherLookup`]
//! ([`DistanceField::gather_lookup`]) on hosts with AVX2 and F16C: one
//! inlinable 8-lane gather body per storage, which the AVX2 observation
//! kernel runs inside its beam loop.

use crate::grid::{CellIndex, CellState, OccupancyGrid};
use mcl_num::{Quantizer, F16};
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
pub use avx2::GatherLookup;

/// Trailing pad bytes appended to the quantized code vector: an AVX2 byte
/// gather reads a full 32-bit word per lane, so a lookup at the last cell
/// spills up to 3 bytes past it. The pad is appended on every architecture so
/// the stored layout is identical everywhere; scalar lookups never address it.
const QUANTIZED_GATHER_PAD: usize = 3;

/// Trailing pad element appended to the fp16 value vector: the AVX2 pair-word
/// gather reads the 32-bit word containing the addressed element, which for
/// the last cell of an odd-sized field includes one element past the end.
const F16_GATHER_PAD: usize = 1;

/// Width of one lane group in [`DistanceField::distances_at_world_lanes`]:
/// the number of world positions a lane-batched lookup resolves per call.
/// `mcl_core::kernel` pins its own lane width to this constant so the
/// correction kernel's lane groups and the field lookup agree.
pub const DISTANCE_LANES: usize = 8;

/// Read access to a (possibly lossily stored) truncated distance field.
///
/// Lookups outside the map return the truncation distance `rmax`: a beam that
/// ends outside the mapped area is as unlikely as one ending in open space far
/// from any obstacle, which is what the paper's model needs.
pub trait DistanceField: Send + Sync {
    /// Distance (metres) from the centre of `cell` to the nearest occupied cell,
    /// truncated at [`DistanceField::max_distance`].
    fn distance_at(&self, cell: CellIndex) -> f32;

    /// Distance lookup by world coordinates (metres).
    fn distance_at_world(&self, x: f32, y: f32) -> f32;

    /// Lane-batched lookup: writes
    /// `out[l] = self.distance_at_world(xs[l], ys[l])` for every lane of one
    /// [`DISTANCE_LANES`]-wide group.
    ///
    /// The default implementation is the scalar loop. The three storage
    /// back-ends override it with a two-pass body — one pass computing the
    /// world→cell quotients for all lanes (which the compiler can issue as a
    /// single SIMD division per axis), one gather pass reading the cells —
    /// that is **bit-identical** to the scalar loop: the hoisted quotients
    /// are the same IEEE divisions, and the bounds predicate is unchanged.
    fn distances_at_world_lanes(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        for l in 0..DISTANCE_LANES {
            out[l] = self.distance_at_world(xs[l], ys[l]);
        }
    }

    /// The AVX2 gather view of this field (x86-64 only): `Some` when the
    /// host has AVX2 and F16C, every cell index fits an i32 gather lane and
    /// both grid dimensions are below 2²⁴, so a returned [`GatherLookup`]
    /// can always run.
    /// [`GatherLookup::lookup`] is bit-identical to
    /// [`DistanceField::distance_at_world`] per lane and inlines into a
    /// caller compiled with the same target features: the observation
    /// kernel resolves it once per chunk and gathers inside its beam loop.
    ///
    /// The default is `None`; the three storage back-ends return their
    /// gather (a hardware f32 gather, a byte gather plus dequantize, or an
    /// fp16 pair-word gather plus `vcvtph2ps`), and `Arc<D>` forwards it.
    #[cfg(target_arch = "x86_64")]
    fn gather_lookup(&self) -> Option<GatherLookup<'_>> {
        None
    }

    /// AVX2 gather twin of [`DistanceField::distances_at_world_lanes`]
    /// (x86-64 only): the same contract and the same bit-exact results,
    /// computed by [`DistanceField::gather_lookup`] when the field has one
    /// and by the portable lane path otherwise. Results are identical
    /// everywhere; only the instructions differ.
    #[cfg(target_arch = "x86_64")]
    fn distances_at_world_lanes_avx2(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        avx2::lanes(self, xs, ys, out);
    }

    /// The truncation distance `rmax` used when the field was computed.
    fn max_distance(&self) -> f32;

    /// Bytes used to store one cell of the field (4, 2 or 1).
    fn bytes_per_cell(&self) -> usize;

    /// Total bytes used by the field.
    fn memory_bytes(&self) -> usize;

    /// Short label used in experiment output ("fp32", "fp16", "quantized").
    fn storage_name(&self) -> &'static str;
}

/// Shared-ownership forwarding: `Arc<D>` is a [`DistanceField`] whenever `D`
/// is, delegating every method — including the lane path and the gather
/// lookup a generic default would hide — to the inner field. A fleet of
/// filters can then share one precomputed field instead of cloning megabytes
/// of cells per filter, which is what makes hosting thousands of concurrent
/// filters on one map affordable.
impl<D: DistanceField + ?Sized> DistanceField for Arc<D> {
    fn distance_at(&self, cell: CellIndex) -> f32 {
        (**self).distance_at(cell)
    }

    fn distance_at_world(&self, x: f32, y: f32) -> f32 {
        (**self).distance_at_world(x, y)
    }

    fn distances_at_world_lanes(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        (**self).distances_at_world_lanes(xs, ys, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn gather_lookup(&self) -> Option<GatherLookup<'_>> {
        (**self).gather_lookup()
    }

    fn max_distance(&self) -> f32 {
        (**self).max_distance()
    }

    fn bytes_per_cell(&self) -> usize {
        (**self).bytes_per_cell()
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn storage_name(&self) -> &'static str {
        (**self).storage_name()
    }
}

/// Shared dimensional bookkeeping for the three storage back-ends.
#[derive(Debug, Clone, PartialEq)]
struct FieldGeometry {
    width: usize,
    height: usize,
    resolution: f32,
    max_distance: f32,
}

impl FieldGeometry {
    /// Number of cells in the field (excluding any gather padding the storage
    /// back-end appends) — the authoritative count for memory accounting.
    fn cells(&self) -> usize {
        self.width * self.height
    }

    fn index_of_world(&self, x: f32, y: f32) -> Option<usize> {
        if x < 0.0 || y < 0.0 || !x.is_finite() || !y.is_finite() {
            return None;
        }
        let col = (x / self.resolution) as usize;
        let row = (y / self.resolution) as usize;
        if col < self.width && row < self.height {
            Some(row * self.width + col)
        } else {
            None
        }
    }

    fn index_of_cell(&self, cell: CellIndex) -> Option<usize> {
        if cell.col < self.width && cell.row < self.height {
            Some(cell.row * self.width + cell.col)
        } else {
            None
        }
    }

    /// Lane-batched twin of [`FieldGeometry::index_of_world`]: resolves one
    /// lane group of world positions to `(cell index, valid)` pairs with the
    /// whole body — divisions, predicate, index arithmetic — expressed as
    /// branch-free lane passes the compiler can vectorize.
    ///
    /// Equivalence with the scalar predicate, for **every** input:
    ///
    /// * `x ≥ 0` fails for negative values and NaN (the scalar path rejects
    ///   both, via its sign and finiteness guards);
    /// * `x / resolution < width as f32` fails for `+∞` and for any finite
    ///   `x` whose cell would overflow (the scalar path's saturating cast
    ///   then fails its bounds check). The grid dimensions are far below
    ///   2²⁴ cells per axis (debug-asserted), so `width as f32` is exact and
    ///   `q < width ⇔ floor(q) < width` for the non-negative quotients that
    ///   pass the sign guard — exactly the scalar `(q as usize) < width`.
    ///
    /// Invalid lanes report index 0 (always in bounds — a grid has at least
    /// one cell) so callers can load unconditionally and select the
    /// truncation distance afterwards.
    #[inline(always)]
    fn lane_indices(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
    ) -> ([usize; DISTANCE_LANES], [bool; DISTANCE_LANES]) {
        debug_assert!(
            self.width < (1 << 24) && self.height < (1 << 24),
            "grid dimensions must be exactly representable in f32"
        );
        let mut col_q = [0.0f32; DISTANCE_LANES];
        let mut row_q = [0.0f32; DISTANCE_LANES];
        for l in 0..DISTANCE_LANES {
            col_q[l] = xs[l] / self.resolution;
            row_q[l] = ys[l] / self.resolution;
        }
        let width_f = self.width as f32;
        let height_f = self.height as f32;
        let mut valid = [false; DISTANCE_LANES];
        for l in 0..DISTANCE_LANES {
            valid[l] = xs[l] >= 0.0 && ys[l] >= 0.0 && col_q[l] < width_f && row_q[l] < height_f;
        }
        let mut idx = [0usize; DISTANCE_LANES];
        for l in 0..DISTANCE_LANES {
            // Valid quotients are in [0, 2²⁴), where the u32 cast equals the
            // scalar path's usize cast and `row · width + col` is the true
            // (in-bounds) cell index. Invalid lanes still run the arithmetic
            // — wrapping, so a saturated u32::MAX row cannot overflow a
            // 32-bit usize — and select index 0 instead.
            let flat = (row_q[l] as u32 as usize)
                .wrapping_mul(self.width)
                .wrapping_add(col_q[l] as u32 as usize);
            idx[l] = if valid[l] { flat } else { 0 };
        }
        (idx, valid)
    }
}

/// Exact truncated EDT stored as `f32` (the paper's full-precision map, 4 B/cell).
#[derive(Debug, Clone, PartialEq)]
pub struct EuclideanDistanceField {
    geometry: FieldGeometry,
    distances: Vec<f32>,
}

impl EuclideanDistanceField {
    /// Computes the exact EDT of `map`, truncating every distance at `max_distance`
    /// metres (the paper uses `rmax` = 1.5 m).
    ///
    /// Occupied cells have distance 0; distances are measured between cell
    /// centres. Unknown cells are treated like free cells: the sensor cannot see
    /// into unmapped space, so they only matter through the truncation.
    ///
    /// # Panics
    ///
    /// Panics if `max_distance` is not a positive finite number.
    pub fn compute(map: &OccupancyGrid, max_distance: f32) -> Self {
        assert!(
            max_distance.is_finite() && max_distance > 0.0,
            "max_distance must be positive and finite"
        );
        let width = map.width();
        let height = map.height();
        let res = map.resolution();
        // Squared distance in *cell* units, +inf where no source.
        const INF: f32 = f32::MAX / 4.0;
        let mut sq = vec![INF; width * height];
        for (idx, state) in map.iter() {
            if state == CellState::Occupied {
                sq[idx.row * width + idx.col] = 0.0;
            }
        }

        // Pass 1: 1D transform along every column (vertical direction).
        let mut column = vec![0.0f32; height];
        let mut out_col = vec![0.0f32; height];
        for col in 0..width {
            for row in 0..height {
                column[row] = sq[row * width + col];
            }
            distance_transform_1d(&column, &mut out_col);
            for row in 0..height {
                sq[row * width + col] = out_col[row];
            }
        }

        // Pass 2: 1D transform along every row (horizontal direction).
        let mut row_buf = vec![0.0f32; width];
        let mut out_row = vec![0.0f32; width];
        for row in 0..height {
            row_buf.copy_from_slice(&sq[row * width..(row + 1) * width]);
            distance_transform_1d(&row_buf, &mut out_row);
            sq[row * width..(row + 1) * width].copy_from_slice(&out_row);
        }

        let distances = sq
            .into_iter()
            .map(|d2| (d2.sqrt() * res).min(max_distance))
            .collect();
        EuclideanDistanceField {
            geometry: FieldGeometry {
                width,
                height,
                resolution: res,
                max_distance,
            },
            distances,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.geometry.width
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.geometry.height
    }

    /// Cell size in metres.
    pub fn resolution(&self) -> f32 {
        self.geometry.resolution
    }

    /// Quantizes this field into a 1-byte-per-cell [`QuantizedDistanceField`].
    pub fn quantize(&self) -> QuantizedDistanceField {
        let quantizer = Quantizer::new(self.geometry.max_distance)
            .expect("max_distance was validated at construction");
        let mut codes: Vec<u8> = self
            .distances
            .iter()
            .map(|&d| quantizer.quantize(d))
            .collect();
        // Keeps the AVX2 byte gather's 4-byte lane reads in bounds at the
        // last cells; scalar and portable-lane lookups never address the pad.
        codes.extend(core::iter::repeat_n(0u8, QUANTIZED_GATHER_PAD));
        QuantizedDistanceField {
            geometry: self.geometry.clone(),
            quantizer,
            codes,
        }
    }

    /// Converts this field into a 2-byte-per-cell [`F16DistanceField`].
    pub fn to_f16(&self) -> F16DistanceField {
        let mut values: Vec<F16> = self.distances.iter().map(|&d| F16::from_f32(d)).collect();
        // Keeps the AVX2 pair-word gather in bounds when the last cell of an
        // odd-sized field is addressed; scalar lookups never read the pad.
        values.extend(core::iter::repeat_n(F16::ZERO, F16_GATHER_PAD));
        F16DistanceField {
            geometry: self.geometry.clone(),
            values,
        }
    }
}

/// The exact 1D squared distance transform of Felzenszwalb & Huttenlocher.
///
/// `input[i]` is the squared distance already accumulated at sample `i`
/// (`0` at sources, `+inf` elsewhere); `output[i]` receives
/// `min_j (i - j)² + input[j]`.
fn distance_transform_1d(input: &[f32], output: &mut [f32]) {
    let n = input.len();
    debug_assert_eq!(n, output.len());
    if n == 0 {
        return;
    }
    // v[k]: abscissa of the k-th parabola in the lower envelope;
    // z[k]..z[k+1]: range where that parabola is the envelope.
    let mut v = vec![0usize; n];
    let mut z = vec![0.0f32; n + 1];
    let mut k = 0usize;
    v[0] = 0;
    z[0] = f32::NEG_INFINITY;
    z[1] = f32::INFINITY;
    for q in 1..n {
        loop {
            let p = v[k];
            // Intersection of parabola q with parabola p.
            let s = ((input[q] + (q * q) as f32) - (input[p] + (p * p) as f32))
                / (2.0 * q as f32 - 2.0 * p as f32);
            if s <= z[k] {
                if k == 0 {
                    // Parabola q dominates everywhere so far.
                    v[0] = q;
                    z[0] = f32::NEG_INFINITY;
                    z[1] = f32::INFINITY;
                    break;
                }
                k -= 1;
                continue;
            }
            k += 1;
            v[k] = q;
            z[k] = s;
            z[k + 1] = f32::INFINITY;
            break;
        }
    }
    let mut k = 0usize;
    for (q, out) in output.iter_mut().enumerate() {
        while z[k + 1] < q as f32 {
            k += 1;
        }
        let p = v[k];
        let dq = q as f32 - p as f32;
        *out = dq * dq + input[p];
    }
}

impl DistanceField for EuclideanDistanceField {
    fn distance_at(&self, cell: CellIndex) -> f32 {
        match self.geometry.index_of_cell(cell) {
            Some(i) => self.distances[i],
            None => self.geometry.max_distance,
        }
    }

    fn distance_at_world(&self, x: f32, y: f32) -> f32 {
        match self.geometry.index_of_world(x, y) {
            Some(i) => self.distances[i],
            None => self.geometry.max_distance,
        }
    }

    #[inline]
    fn distances_at_world_lanes(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        let (idx, valid) = self.geometry.lane_indices(xs, ys);
        for l in 0..DISTANCE_LANES {
            let i = idx[l];
            let d = self.distances[i];
            out[l] = if valid[l] {
                d
            } else {
                self.geometry.max_distance
            };
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn gather_lookup(&self) -> Option<GatherLookup<'_>> {
        GatherLookup::new(&self.geometry, avx2::Cells::F32(&self.distances))
    }

    fn max_distance(&self) -> f32 {
        self.geometry.max_distance
    }

    fn bytes_per_cell(&self) -> usize {
        4
    }

    fn memory_bytes(&self) -> usize {
        self.geometry.cells() * 4
    }

    fn storage_name(&self) -> &'static str {
        "fp32"
    }
}

/// Truncated EDT stored as binary16 (2 B/cell).
#[derive(Debug, Clone, PartialEq)]
pub struct F16DistanceField {
    geometry: FieldGeometry,
    values: Vec<F16>,
}

impl DistanceField for F16DistanceField {
    fn distance_at(&self, cell: CellIndex) -> f32 {
        match self.geometry.index_of_cell(cell) {
            Some(i) => self.values[i].to_f32(),
            None => self.geometry.max_distance,
        }
    }

    fn distance_at_world(&self, x: f32, y: f32) -> f32 {
        match self.geometry.index_of_world(x, y) {
            Some(i) => self.values[i].to_f32(),
            None => self.geometry.max_distance,
        }
    }

    #[inline]
    fn distances_at_world_lanes(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        let (idx, valid) = self.geometry.lane_indices(xs, ys);
        for l in 0..DISTANCE_LANES {
            let i = idx[l];
            let d = self.values[i].to_f32();
            out[l] = if valid[l] {
                d
            } else {
                self.geometry.max_distance
            };
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn gather_lookup(&self) -> Option<GatherLookup<'_>> {
        GatherLookup::new(&self.geometry, avx2::Cells::F16(&self.values))
    }

    fn max_distance(&self) -> f32 {
        self.geometry.max_distance
    }

    fn bytes_per_cell(&self) -> usize {
        2
    }

    fn memory_bytes(&self) -> usize {
        self.geometry.cells() * 2
    }

    fn storage_name(&self) -> &'static str {
        "fp16"
    }
}

/// Truncated EDT stored as 8-bit codes over `[0, rmax]` (1 B/cell).
///
/// This is the map representation of the paper's `fp32qm` and `fp16qm`
/// configurations: together with the 1-byte occupancy grid it brings the map cost
/// down from 5 to 2 bytes per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDistanceField {
    geometry: FieldGeometry,
    quantizer: Quantizer,
    codes: Vec<u8>,
}

impl QuantizedDistanceField {
    /// The worst-case absolute error introduced by quantization, in metres.
    pub fn quantization_error(&self) -> f32 {
        self.quantizer.max_error()
    }
}

impl DistanceField for QuantizedDistanceField {
    fn distance_at(&self, cell: CellIndex) -> f32 {
        match self.geometry.index_of_cell(cell) {
            Some(i) => self.quantizer.dequantize(self.codes[i]),
            None => self.geometry.max_distance,
        }
    }

    fn distance_at_world(&self, x: f32, y: f32) -> f32 {
        match self.geometry.index_of_world(x, y) {
            Some(i) => self.quantizer.dequantize(self.codes[i]),
            None => self.geometry.max_distance,
        }
    }

    #[inline]
    fn distances_at_world_lanes(
        &self,
        xs: &[f32; DISTANCE_LANES],
        ys: &[f32; DISTANCE_LANES],
        out: &mut [f32; DISTANCE_LANES],
    ) {
        let (idx, valid) = self.geometry.lane_indices(xs, ys);
        for l in 0..DISTANCE_LANES {
            let i = idx[l];
            let d = self.quantizer.dequantize(self.codes[i]);
            out[l] = if valid[l] {
                d
            } else {
                self.geometry.max_distance
            };
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn gather_lookup(&self) -> Option<GatherLookup<'_>> {
        let cells = avx2::Cells::Quantized {
            codes: &self.codes,
            step: self.quantizer.step(),
        };
        GatherLookup::new(&self.geometry, cells)
    }

    fn max_distance(&self) -> f32 {
        self.geometry.max_distance
    }

    fn bytes_per_cell(&self) -> usize {
        1
    }

    fn memory_bytes(&self) -> usize {
        self.geometry.cells()
    }

    fn storage_name(&self) -> &'static str {
        "quantized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MapBuilder;
    use crate::grid::OccupancyGrid;

    /// Brute-force reference EDT used to validate the fast implementation.
    fn brute_force_edt(map: &OccupancyGrid, rmax: f32) -> Vec<f32> {
        let occupied: Vec<CellIndex> = map
            .iter()
            .filter(|(_, s)| *s == CellState::Occupied)
            .map(|(i, _)| i)
            .collect();
        map.indices()
            .map(|idx| {
                occupied
                    .iter()
                    .map(|o| {
                        let dc = idx.col as f32 - o.col as f32;
                        let dr = idx.row as f32 - o.row as f32;
                        (dc * dc + dr * dr).sqrt() * map.resolution()
                    })
                    .fold(rmax, f32::min)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_map() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut map = OccupancyGrid::new(1.5, 1.0, 0.05).unwrap();
        for idx in map.indices().collect::<Vec<_>>() {
            if rng.gen_bool(0.07) {
                map.set(idx, CellState::Occupied).unwrap();
            }
        }
        let rmax = 1.5;
        let edt = EuclideanDistanceField::compute(&map, rmax);
        let reference = brute_force_edt(&map, rmax);
        for (i, idx) in map.indices().enumerate() {
            let fast = edt.distance_at(idx);
            assert!(
                (fast - reference[i]).abs() < 1e-4,
                "mismatch at {idx:?}: fast {fast} reference {}",
                reference[i]
            );
        }
    }

    #[test]
    fn occupied_cells_have_zero_distance() {
        let map = MapBuilder::new(1.0, 1.0, 0.1).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        for (idx, state) in map.iter() {
            if state == CellState::Occupied {
                assert_eq!(edt.distance_at(idx), 0.0);
            }
        }
    }

    #[test]
    fn distances_grow_away_from_a_single_wall() {
        // Wall along the left edge: distance should equal the x coordinate of the
        // cell centre minus half a cell.
        let map = MapBuilder::new(2.0, 0.5, 0.05)
            .wall((0.0, 0.0), (0.0, 0.5))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 10.0);
        for col in 1..map.width() {
            let idx = CellIndex::new(col, 5);
            let expected = col as f32 * 0.05;
            assert!(
                (edt.distance_at(idx) - expected).abs() < 1e-4,
                "col {col}: {} vs {expected}",
                edt.distance_at(idx)
            );
        }
    }

    #[test]
    fn truncation_caps_distances_at_rmax() {
        let map = MapBuilder::new(5.0, 5.0, 0.05)
            .wall((0.0, 0.0), (0.0, 5.0))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        assert_eq!(edt.max_distance(), 1.5);
        let far = map.world_to_cell(4.5, 2.5).unwrap();
        assert_eq!(edt.distance_at(far), 1.5);
        // No value anywhere exceeds rmax.
        for idx in map.indices() {
            assert!(edt.distance_at(idx) <= 1.5 + 1e-6);
        }
    }

    #[test]
    fn map_with_no_obstacles_is_rmax_everywhere() {
        let map = OccupancyGrid::new(1.0, 1.0, 0.1).unwrap();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        for idx in map.indices() {
            assert_eq!(edt.distance_at(idx), 1.5);
        }
    }

    #[test]
    fn out_of_bounds_lookups_return_rmax() {
        let map = MapBuilder::new(1.0, 1.0, 0.1).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        assert_eq!(edt.distance_at(CellIndex::new(100, 0)), 1.5);
        assert_eq!(edt.distance_at_world(-0.5, 0.5), 1.5);
        assert_eq!(edt.distance_at_world(0.5, 7.0), 1.5);
    }

    #[test]
    fn world_and_cell_lookups_agree() {
        let map = MapBuilder::new(1.0, 1.0, 0.05)
            .filled_rect((0.4, 0.4), (0.6, 0.6))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        for idx in map.indices() {
            let centre = map.cell_to_world(idx);
            assert_eq!(
                edt.distance_at(idx),
                edt.distance_at_world(centre.x, centre.y)
            );
        }
    }

    #[test]
    fn quantized_field_is_within_half_step_of_fp32() {
        let map = MapBuilder::new(2.0, 2.0, 0.05)
            .border_walls()
            .filled_rect((0.9, 0.9), (1.1, 1.1))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let quantized = edt.quantize();
        assert_eq!(quantized.bytes_per_cell(), 1);
        for idx in map.indices() {
            let err = (edt.distance_at(idx) - quantized.distance_at(idx)).abs();
            assert!(err <= quantized.quantization_error() + 1e-6);
        }
    }

    #[test]
    fn f16_field_is_within_relative_error_of_fp32() {
        let map = MapBuilder::new(2.0, 2.0, 0.05).border_walls().build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let half = edt.to_f16();
        assert_eq!(half.bytes_per_cell(), 2);
        for idx in map.indices() {
            let full = edt.distance_at(idx);
            let approx = half.distance_at(idx);
            assert!((full - approx).abs() <= full * mcl_num::F16::RELATIVE_ERROR_BOUND + 1e-6);
        }
    }

    #[test]
    fn memory_accounting_matches_bytes_per_cell() {
        let map = OccupancyGrid::new(1.0, 1.0, 0.05).unwrap();
        let cells = map.cell_count();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        assert_eq!(edt.memory_bytes(), cells * 4);
        assert_eq!(edt.to_f16().memory_bytes(), cells * 2);
        assert_eq!(edt.quantize().memory_bytes(), cells);
        assert_eq!(edt.storage_name(), "fp32");
        assert_eq!(edt.to_f16().storage_name(), "fp16");
        assert_eq!(edt.quantize().storage_name(), "quantized");
    }

    #[test]
    fn lane_batched_lookup_is_bit_identical_to_the_scalar_lookup() {
        // The overrides hoist the world→cell divides into a vectorizable pass;
        // the results must match distance_at_world bit for bit on every storage
        // back-end, including the guard cases (negative, NaN, ±inf, far out of
        // range) the predicate handles.
        let map = MapBuilder::new(2.0, 2.0, 0.05)
            .border_walls()
            .wall((1.0, 0.0), (1.0, 1.2))
            .build();
        let edt = EuclideanDistanceField::compute(&map, 1.5);
        let half = edt.to_f16();
        let quantized = edt.quantize();
        let probes: Vec<(f32, f32)> = (0..64)
            .map(|k| (0.07 * k as f32 - 0.5, 0.11 * (63 - k) as f32 - 0.5))
            .chain([
                (f32::NAN, 0.5),
                (0.5, f32::NAN),
                (f32::INFINITY, 0.5),
                (-1e30, 0.5),
                (0.5, f32::NEG_INFINITY),
                (1e9, 1e9),
                (-0.0, -0.0),
                (1.999, 1.999),
            ])
            .collect();
        for group in probes.chunks(DISTANCE_LANES) {
            let mut xs = [0.0f32; DISTANCE_LANES];
            let mut ys = [0.0f32; DISTANCE_LANES];
            for (l, &(x, y)) in group.iter().enumerate() {
                xs[l] = x;
                ys[l] = y;
            }
            let fields: [&dyn DistanceField; 3] = [&edt, &half, &quantized];
            for field in fields {
                let mut lanes = [0.0f32; DISTANCE_LANES];
                field.distances_at_world_lanes(&xs, &ys, &mut lanes);
                for l in 0..DISTANCE_LANES {
                    let scalar = field.distance_at_world(xs[l], ys[l]);
                    assert_eq!(
                        scalar.to_bits(),
                        lanes[l].to_bits(),
                        "{} lane {l} diverged at ({}, {})",
                        field.storage_name(),
                        xs[l],
                        ys[l]
                    );
                }
            }
        }
    }

    /// The AVX2 gather lookup must agree with the portable lane path — and
    /// the scalar lookup — bit for bit on every storage back-end, for every
    /// edge the masked predicate handles; the provided
    /// `distances_at_world_lanes_avx2` runs `GatherLookup::lookup` whenever
    /// the field has one. On a host without AVX2 and F16C it falls back to
    /// the portable body, so these tests pass trivially there; the CI `avx2`
    /// backend leg runs them on hardware where the gathers are live.
    #[cfg(target_arch = "x86_64")]
    mod avx2_gather {
        use super::*;

        /// An odd-cell-count map (31 × 31 = 961 cells) so the fp16 pair-word
        /// gather at the last cell must read its padding element, plus an
        /// interior wall so distances vary across cells.
        fn fields() -> (
            EuclideanDistanceField,
            F16DistanceField,
            QuantizedDistanceField,
        ) {
            let map = MapBuilder::new(1.55, 1.55, 0.05)
                .border_walls()
                .wall((0.75, 0.0), (0.75, 1.0))
                .build();
            assert_eq!(map.cell_count() % 2, 1, "pad test needs an odd field");
            let edt = EuclideanDistanceField::compute(&map, 1.5);
            let half = edt.to_f16();
            let quantized = edt.quantize();
            (edt, half, quantized)
        }

        /// Probes that exercise every branch of the bounds predicate and the
        /// gather padding: NaN and ±inf coordinates, far-out-of-bounds
        /// values, negative zero, and the exact last cell of the map (whose
        /// byte/pair gathers read into the pad).
        fn edge_probes() -> Vec<(f32, f32)> {
            vec![
                (f32::NAN, 0.5),
                (0.5, f32::NAN),
                (f32::NAN, f32::NAN),
                (f32::INFINITY, 0.5),
                (0.5, f32::NEG_INFINITY),
                (f32::NEG_INFINITY, f32::INFINITY),
                (-1e30, 0.5),
                (1e9, 1e9),
                (-0.0, -0.0),
                (1.549, 1.549), // last cell: gathers read into the pad
                (1.549, 0.0),   // last column, first row
                (0.0, 1.549),   // first column, last row
                (2.0, 2.0),     // one cell out of bounds on both axes
                (1.2, -1e-30),  // infinitesimally negative: must be invalid
            ]
        }

        /// Lane-group comparison of the AVX2 override against the scalar
        /// lookup (the portable lane path is already pinned to scalar by
        /// `lane_batched_lookup_is_bit_identical_to_the_scalar_lookup`).
        fn assert_group_matches(field: &dyn DistanceField, xs: &[f32; 8], ys: &[f32; 8]) {
            let mut gathered = [0.0f32; DISTANCE_LANES];
            field.distances_at_world_lanes_avx2(xs, ys, &mut gathered);
            let mut portable = [0.0f32; DISTANCE_LANES];
            field.distances_at_world_lanes(xs, ys, &mut portable);
            for l in 0..DISTANCE_LANES {
                let scalar = field.distance_at_world(xs[l], ys[l]);
                assert_eq!(
                    scalar.to_bits(),
                    gathered[l].to_bits(),
                    "{} gather lane {l} diverged from scalar at ({}, {})",
                    field.storage_name(),
                    xs[l],
                    ys[l]
                );
                assert_eq!(
                    portable[l].to_bits(),
                    gathered[l].to_bits(),
                    "{} gather lane {l} diverged from the portable lane path at ({}, {})",
                    field.storage_name(),
                    xs[l],
                    ys[l]
                );
            }
        }

        #[test]
        fn gather_lookup_is_bit_identical_on_edge_probes() {
            if !avx2::detected() {
                eprintln!("note: host lacks AVX2, gather path falls back to the portable body");
            }
            let (edt, half, quantized) = fields();
            let probes: Vec<(f32, f32)> = (0..64)
                .map(|k| (0.031 * k as f32 - 0.2, 0.029 * (63 - k) as f32 - 0.2))
                .chain(edge_probes())
                .collect();
            for group in probes.chunks(DISTANCE_LANES) {
                let mut xs = [f32::NAN; DISTANCE_LANES];
                let mut ys = [f32::NAN; DISTANCE_LANES];
                for (l, &(x, y)) in group.iter().enumerate() {
                    xs[l] = x;
                    ys[l] = y;
                }
                let fields: [&dyn DistanceField; 3] = [&edt, &half, &quantized];
                for field in fields {
                    assert_group_matches(field, &xs, &ys);
                }
            }
        }

        #[test]
        fn gather_lookup_is_bit_identical_for_every_tail_length() {
            // Exhaustive over all `n mod 8` tails: lanes [0, tail) carry
            // in-bounds probes, lanes [tail, 8) cycle through the edge cases
            // — the shape a kernel tail group presents to the lookup.
            let (edt, half, quantized) = fields();
            let edges = edge_probes();
            for tail in 0..DISTANCE_LANES {
                let mut xs = [0.0f32; DISTANCE_LANES];
                let mut ys = [0.0f32; DISTANCE_LANES];
                for l in 0..DISTANCE_LANES {
                    if l < tail {
                        xs[l] = 0.05 + 0.17 * l as f32;
                        ys[l] = 1.45 - 0.13 * l as f32;
                    } else {
                        let (x, y) = edges[(tail + l) % edges.len()];
                        xs[l] = x;
                        ys[l] = y;
                    }
                }
                let fields: [&dyn DistanceField; 3] = [&edt, &half, &quantized];
                for field in fields {
                    assert_group_matches(field, &xs, &ys);
                }
            }
        }

        /// The observation kernel takes its inlined gather loop only when
        /// `gather_lookup` is `Some`; a storage (or `Arc<D>`, which the fleet
        /// scores through) that stopped returning it would drop to the lane
        /// body with the same bits, so only this test would notice.
        #[test]
        fn every_storage_and_its_arc_offer_a_gather_lookup() {
            if !avx2::detected() {
                eprintln!("note: host lacks AVX2 or F16C, no storage offers a gather lookup");
                return;
            }
            let (edt, half, quantized) = fields();
            let fields: [&dyn DistanceField; 3] = [&edt, &half, &quantized];
            for field in fields {
                assert!(field.gather_lookup().is_some(), "{}", field.storage_name());
            }
            let shared: [Arc<dyn DistanceField>; 3] =
                [Arc::new(edt), Arc::new(half), Arc::new(quantized)];
            for field in &shared {
                assert!(
                    field.gather_lookup().is_some(),
                    "Arc<{}>",
                    field.storage_name()
                );
            }
            assert!(Arc::new(shared[0].clone()).gather_lookup().is_some());
        }

        #[test]
        fn gather_padding_is_present_and_excluded_from_memory_accounting() {
            let (edt, half, quantized) = fields();
            let cells = edt.width() * edt.height();
            // The pads exist for the gathers...
            assert_eq!(quantized.codes.len(), cells + QUANTIZED_GATHER_PAD);
            assert_eq!(half.values.len(), cells + F16_GATHER_PAD);
            // ...but memory accounting reports the logical field size.
            assert_eq!(quantized.memory_bytes(), cells);
            assert_eq!(half.memory_bytes(), cells * 2);
            assert_eq!(edt.memory_bytes(), cells * 4);
        }
    }

    #[test]
    fn one_dimensional_transform_handles_edge_cases() {
        let mut out = vec![0.0; 0];
        distance_transform_1d(&[], &mut out); // must not panic

        let input = [f32::MAX / 4.0, 0.0, f32::MAX / 4.0, f32::MAX / 4.0];
        let mut out = vec![0.0; 4];
        distance_transform_1d(&input, &mut out);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[2], 1.0);
        assert_eq!(out[3], 4.0);
    }
}
