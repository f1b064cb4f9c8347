//! The AVX2 gather lookup shared by the three
//! [`DistanceField`](super::DistanceField) storage back-ends.
//!
//! [`GatherLookup::lookup`] is the explicit-SIMD twin of every storage's
//! `distances_at_world_lanes`: the world→cell quotients, the bounds
//! predicate and the index arithmetic are computed 8-wide with
//! `core::arch::x86_64` intrinsics, and the per-lane memory reads become a
//! single hardware gather (`_mm256_i32gather_ps` for f32 storage,
//! `_mm256_i32gather_epi32` over the u8 code array for quantized storage, and
//! a pair-word `_mm256_i32gather_epi32` + `_mm256_cvtph_ps` for fp16 storage
//! — two binary16 values per 32-bit lane word, the x86 analogue of GAP9's
//! `simd_lane_width = 2` fp16 packing). It takes and returns registers and is
//! `#[inline]`, so a caller compiled with the same target features (the
//! observation kernel's beam loop in `mcl_core::simd`) inlines it: the
//! lookup constants stay in registers and the beam loop makes no call.
//!
//! # Safety argument
//!
//! A [`GatherLookup`] is only constructed by [`GatherLookup::new`], which
//! returns `None` unless the host has AVX2 and F16C, every cell index of
//! the field fits an i32 gather lane and both grid dimensions are below
//! 2²⁴. Holding one therefore proves the host can run
//! [`GatherLookup::lookup`]; that is the obligation every caller discharges
//! when it enters an `avx2,f16c` body. The array wrapper behind
//! `distances_at_world_lanes_avx2` probes the features itself, so that it
//! can resolve the lookup inside its `avx2,f16c` body, where the lookup's
//! constants stay in registers.
//!
//! # Bit-identity contract
//!
//! Results are bit-identical to the portable lane path (and therefore to the
//! scalar `distance_at_world`) for **every** input, including NaN/±inf and
//! out-of-bounds probes:
//!
//! * `_mm256_div_ps` is the same single-rounding IEEE division the portable
//!   path performs per lane;
//! * the ordered compares (`_CMP_GE_OQ` / `_CMP_LT_OQ`) reproduce the scalar
//!   predicate exactly — NaN fails every ordered compare, just as it fails
//!   the scalar sign/finite guards;
//! * `_mm256_cvttps_epi32` equals the scalar truncating cast for the
//!   in-range quotients of valid lanes; invalid lanes (where the conversion
//!   may saturate to `0x8000_0000`) are masked to cell index 0 before the
//!   gather, exactly like the portable path's select;
//! * the dequantize multiply (`_mm256_cvtepi32_ps` — exact for codes ≤ 255 —
//!   then `_mm256_mul_ps` by the quantizer's reconstruction step) is the same
//!   single rounding as `Quantizer::dequantize`; `_mm256_cvtph_ps` is the
//!   exact binary16→f32 widening. **No FMA is used anywhere**: contraction
//!   would change rounding and break the contract.
//!
//! # Out-of-bounds reads and padding
//!
//! A 32-bit gather lane always reads four bytes. For the u8 code array that
//! read spills up to 3 bytes past the addressed cell, and for fp16 the
//! pair-word read spills one element past an odd-length array, so the
//! construction paths append [`super::QUANTIZED_GATHER_PAD`] /
//! [`super::F16_GATHER_PAD`] trailing pad entries that keep every gather read
//! inside the allocation. The f32 gather reads exactly the addressed cell and
//! needs no padding.

// The gather body is raw `core::arch` intrinsics: each `unsafe` block in this
// module carries a SAFETY comment discharging the two obligations (required
// CPU features proven by the existence of a `GatherLookup` or checked by
// `detected`; every lane read kept in bounds by index masking plus the
// documented padding).
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use super::{DistanceField, FieldGeometry, DISTANCE_LANES, F16_GATHER_PAD, QUANTIZED_GATHER_PAD};
use mcl_num::F16;

/// Whether the host has the CPU features [`GatherLookup::lookup`] needs:
/// AVX2 for the gathers, F16C for the fp16 widening.
#[inline]
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")
}

/// The stored cells a [`GatherLookup`] reads.
#[derive(Debug, Clone, Copy)]
pub(super) enum Cells<'a> {
    /// One `f32` per cell.
    F32(&'a [f32]),
    /// One binary16 value per cell, plus [`F16_GATHER_PAD`] pad elements.
    F16(&'a [F16]),
    /// One u8 code per cell, plus [`QUANTIZED_GATHER_PAD`] pad bytes, and
    /// the quantizer's reconstruction step (`Quantizer::step`).
    Quantized {
        /// The code vector.
        codes: &'a [u8],
        /// The exact factor `Quantizer::dequantize` multiplies by.
        step: f32,
    },
}

/// An AVX2 gather view of one distance field (x86-64 only), returned by
/// [`DistanceField::gather_lookup`](super::DistanceField::gather_lookup).
///
/// It exists only on a host with AVX2 and F16C and for a field whose cells
/// fit i32 gather lanes and whose grid dimensions are below 2²⁴, so holding
/// one proves [`GatherLookup::lookup`] can run. The grid constants are
/// converted to `f32` once, here, instead of per lookup.
#[derive(Debug, Clone, Copy)]
pub struct GatherLookup<'a> {
    cells: Cells<'a>,
    resolution: f32,
    width: f32,
    height: f32,
    width_i: i32,
    max_distance: f32,
}

impl<'a> GatherLookup<'a> {
    /// The lookup over `cells` of a field with `geometry`, or `None` when
    /// the host lacks AVX2 or F16C, the field has more cells than an i32
    /// gather lane can index, or a grid dimension is not exact in `f32`.
    #[inline]
    pub(super) fn new(geometry: &FieldGeometry, cells: Cells<'a>) -> Option<Self> {
        let cells_count = geometry.cells();
        // Every gather read stays in bounds only with these lengths.
        assert!(
            match cells {
                Cells::F32(distances) => distances.len() == cells_count,
                Cells::F16(values) => values.len() >= cells_count + F16_GATHER_PAD,
                Cells::Quantized { codes, .. } => codes.len() >= cells_count + QUANTIZED_GATHER_PAD,
            },
            "gather lookup over a cell vector without its pad"
        );
        // Grid dimensions below 2²⁴ are exact in f32, so a valid lane's
        // truncated quotient is a column below `width` (and a row below
        // `height`) and its flat index stays inside the cells.
        let exact = geometry.width < (1 << 24) && geometry.height < (1 << 24);
        (exact && cells_count <= i32::MAX as usize && detected()).then_some(GatherLookup {
            cells,
            resolution: geometry.resolution,
            width: geometry.width as f32,
            height: geometry.height as f32,
            width_i: geometry.width as i32,
            max_distance: geometry.max_distance,
        })
    }

    /// The truncated distances at eight world positions: lane `l` of the
    /// result is `distance_at_world(x[l], y[l])`, bit for bit.
    ///
    /// # Safety
    ///
    /// A caller compiled with `avx2,f16c` calls this safely and inlines it.
    /// Any other caller needs an `unsafe` block, whose obligation (the host
    /// has both features) holding this `GatherLookup` already discharges.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    pub fn lookup(&self, x: __m256, y: __m256) -> __m256 {
        let resolution = _mm256_set1_ps(self.resolution);
        // The same single-rounding IEEE divisions as the portable lane pass.
        let col_q = _mm256_div_ps(x, resolution);
        let row_q = _mm256_div_ps(y, resolution);
        let zero = _mm256_setzero_ps();
        // Ordered compares: NaN coordinates (and NaN quotients from ±inf
        // inputs) fail every term, matching the scalar finiteness/sign
        // guards. +inf fails the `< width` term via its +inf quotient, like
        // the portable predicate.
        let valid = _mm256_and_ps(
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero),
                _mm256_cmp_ps::<_CMP_GE_OQ>(y, zero),
            ),
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_LT_OQ>(col_q, _mm256_set1_ps(self.width)),
                _mm256_cmp_ps::<_CMP_LT_OQ>(row_q, _mm256_set1_ps(self.height)),
            ),
        );
        // Valid quotients are in [0, 2²⁴) (`new` guards the grid
        // dimensions), where the truncating conversion equals the scalar
        // `as u32` cast and `row · width + col` cannot overflow the i32 lane
        // (`new` guards `cells ≤ i32::MAX`). Invalid lanes may saturate to
        // 0x8000_0000 — the mask forces them to cell 0, the same select the
        // portable path performs.
        let col_i = _mm256_cvttps_epi32(col_q);
        let row_i = _mm256_cvttps_epi32(row_q);
        let flat = _mm256_add_epi32(
            _mm256_mullo_epi32(row_i, _mm256_set1_epi32(self.width_i)),
            col_i,
        );
        let idx = _mm256_and_si256(flat, _mm256_castps_si256(valid));
        let d = match self.cells {
            // SAFETY: every index lane is in [0, cells) — valid lanes by the
            // bounds predicate, invalid lanes masked to 0 (a grid has at
            // least one cell) — so each 4-byte read is exactly one in-bounds
            // f32 element.
            Cells::F32(distances) => unsafe { _mm256_i32gather_ps::<4>(distances.as_ptr(), idx) },
            Cells::Quantized { codes, step } => {
                // SAFETY: a scale-1 gather lane reads the 4 bytes at
                // `codes[idx..idx+4]`; every index lane is in [0, cells) and
                // the code vector carries QUANTIZED_GATHER_PAD (3) trailing
                // pad bytes (asserted by `new`), so the widest read —
                // at cell `cells − 1` — stays inside the allocation. The
                // gather instruction has no alignment requirement.
                let words = unsafe { _mm256_i32gather_epi32::<1>(codes.as_ptr().cast(), idx) };
                // The addressed code is the low byte of each little-endian
                // lane word. Exactly `Quantizer::dequantize`: an exact
                // u8→f32 conversion, then one rounding multiply by the
                // reconstruction step. No FMA.
                let code = _mm256_and_si256(words, _mm256_set1_epi32(0xFF));
                _mm256_mul_ps(_mm256_cvtepi32_ps(code), _mm256_set1_ps(step))
            }
            Cells::F16(values) => {
                // Word w of the value array holds the binary16 pair
                // (2w, 2w + 1).
                let word_idx = _mm256_srli_epi32::<1>(idx);
                // SAFETY: for the maximum index lane `cells − 1` the pair
                // word covers at most element `cells`, which exists because
                // `to_f16` appends F16_GATHER_PAD (1) trailing pad element
                // (asserted by `new`). `F16` is `repr(transparent)`
                // over `u16`, so the pointer cast reads the raw bit patterns.
                let words =
                    unsafe { _mm256_i32gather_epi32::<4>(values.as_ptr().cast(), word_idx) };
                // Select the addressed half of each little-endian pair word:
                // element 2w sits in the low 16 bits, 2w + 1 in the high —
                // shift odd indices down by 16, even by 0.
                let shift = _mm256_slli_epi32::<4>(_mm256_and_si256(idx, _mm256_set1_epi32(1)));
                let half =
                    _mm256_and_si256(_mm256_srlv_epi32(words, shift), _mm256_set1_epi32(0xFFFF));
                // Pack the eight 16-bit payloads into one 128-bit register.
                // The inputs are in [0, 0xFFFF], so the unsigned-saturating
                // pack is exact.
                let packed = _mm_packus_epi32(
                    _mm256_castsi256_si128(half),
                    _mm256_extracti128_si256::<1>(half),
                );
                // Hardware binary16 → f32 widening: exact for every finite
                // binary16, the same value the software converter produces.
                _mm256_cvtph_ps(packed)
            }
        };
        _mm256_blendv_ps(_mm256_set1_ps(self.max_distance), d, valid)
    }
}

/// The body of the provided
/// [`DistanceField::distances_at_world_lanes_avx2`](super::DistanceField::distances_at_world_lanes_avx2):
/// [`GatherLookup::lookup`] over one lane group held in arrays when `field`
/// has a gather lookup, the portable lane path otherwise.
#[inline]
pub(super) fn lanes<D: DistanceField + ?Sized>(
    field: &D,
    xs: &[f32; DISTANCE_LANES],
    ys: &[f32; DISTANCE_LANES],
    out: &mut [f32; DISTANCE_LANES],
) {
    if detected() {
        // SAFETY: `detected` checked AVX2 and F16C, the features
        // `lanes_impl` enables.
        unsafe { lanes_impl(field, xs, ys, out) }
    } else {
        field.distances_at_world_lanes(xs, ys, out);
    }
}

/// The body of [`lanes`]. The lookup is resolved inside the `avx2,f16c`
/// body, so it and [`GatherLookup::lookup`] inline here and the lookup's
/// constants never pass through memory.
///
/// # Safety
///
/// Callers must ensure the `avx2` and `f16c` target features are available.
#[target_feature(enable = "avx2,f16c")]
unsafe fn lanes_impl<D: DistanceField + ?Sized>(
    field: &D,
    xs: &[f32; DISTANCE_LANES],
    ys: &[f32; DISTANCE_LANES],
    out: &mut [f32; DISTANCE_LANES],
) {
    match field.gather_lookup() {
        // SAFETY: each array is eight readable (or writable) f32 lanes; the
        // loads and the store are unaligned.
        Some(lookup) => unsafe {
            let d = lookup.lookup(_mm256_loadu_ps(xs.as_ptr()), _mm256_loadu_ps(ys.as_ptr()));
            _mm256_storeu_ps(out.as_mut_ptr(), d);
        },
        None => field.distances_at_world_lanes(xs, ys, out),
    }
}
