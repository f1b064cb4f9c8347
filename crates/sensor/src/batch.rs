//! Batched beam storage for the data-parallel correction kernel.
//!
//! The observation step evaluates every beam for every particle. The
//! array-of-structs [`Beam`] representation makes each evaluation recompute the
//! beam's geometry from scratch — `cos`/`sin` of the beam azimuth *per particle
//! per beam*. [`BeamBatch`] hoists everything that does not depend on the
//! particle out of the hot loop, **once per update**:
//!
//! * the beam end point is resolved in the *drone body frame*
//!   (`sensor offset + range · (cos az, sin az)`) and stored in two contiguous
//!   arrays `end_x_body[]` / `end_y_body[]`;
//! * the measured ranges stay available in `range_m[]`, which
//!   [`BeamBatch::partition_in_range`] sorts beams by.
//!
//! Scoring a particle then needs exactly one `sin_cos` (of the particle's yaw)
//! plus four multiply-adds and one distance-field lookup per beam — the
//! arithmetic the paper's GAP9 kernel performs. Rotating the precomputed
//! body-frame end point is mathematically identical to [`Beam::end_point`] but
//! associates the trigonometry differently, so likelihoods may differ from the
//! per-beam path in the last float ulp.
//!
//! The observation model scores only beams strictly below its `r_max`
//! truncation. Because `r_max` is fixed per filter configuration,
//! [`BeamBatch::partition_in_range`] applies that rule **once per update**: it
//! stably partitions the arrays so every in-range beam forms a leading prefix,
//! and records the `(r_max, prefix length)` pair. The correction kernels then
//! iterate only the prefix ([`BeamBatch::in_range_slices`]) with a
//! branch-free body. The partition is *stable* (in-range beams keep their
//! relative order), so the per-beam log-likelihood sum associates exactly as
//! a loop that skipped the other beams in place would.

use crate::measurement::{Beam, ToFFrame};
use crate::rig::SensorRig;

/// The cached outcome of [`BeamBatch::partition_in_range`]: every beam in
/// `0..len` measures strictly below `r_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InRangePrefix {
    r_max: f32,
    len: usize,
}

/// A frame's worth of valid beams, flattened into contiguous per-component
/// arrays (structure of arrays) for the batched correction kernel.
#[derive(Debug, PartialEq, Default)]
pub struct BeamBatch {
    end_x_body: Vec<f32>,
    end_y_body: Vec<f32>,
    range_m: Vec<f32>,
    in_range: Option<InRangePrefix>,
}

impl Clone for BeamBatch {
    fn clone(&self) -> Self {
        BeamBatch {
            end_x_body: self.end_x_body.clone(),
            end_y_body: self.end_y_body.clone(),
            range_m: self.range_m.clone(),
            in_range: self.in_range,
        }
    }

    /// Copies `source` into the existing arrays, reusing their allocations —
    /// how a filter fills its per-update partition scratch.
    fn clone_from(&mut self, source: &Self) {
        self.end_x_body.clone_from(&source.end_x_body);
        self.end_y_body.clone_from(&source.end_y_body);
        self.range_m.clone_from(&source.range_m);
        self.in_range = source.in_range;
    }
}

impl BeamBatch {
    /// Flattens a beam list into the batched representation.
    pub fn from_beams(beams: &[Beam]) -> Self {
        let mut batch = BeamBatch {
            end_x_body: Vec::with_capacity(beams.len()),
            end_y_body: Vec::with_capacity(beams.len()),
            range_m: Vec::with_capacity(beams.len()),
            in_range: None,
        };
        for beam in beams {
            batch.push(beam);
        }
        batch
    }

    /// Reduces a set of captured frames to beams (median per zone column,
    /// invalid zones dropped — see [`ToFFrame::to_beams`], geometry rebuilt per
    /// frame mode by [`SensorRig::frames_to_beams`]) and flattens them. This
    /// runs **once per observation update**; the per-particle kernel only
    /// reads the resulting arrays.
    pub fn from_frames(frames: &[ToFFrame]) -> Self {
        Self::from_beams(&SensorRig::frames_to_beams(frames))
    }

    /// Appends one beam. Invalidates any in-range prefix recorded by
    /// [`BeamBatch::partition_in_range`].
    pub fn push(&mut self, beam: &Beam) {
        let (sin_az, cos_az) = beam.azimuth_body_rad.sin_cos();
        self.end_x_body
            .push(beam.origin_body.x + cos_az * beam.range_m);
        self.end_y_body
            .push(beam.origin_body.y + sin_az * beam.range_m);
        self.range_m.push(beam.range_m);
        self.in_range = None;
    }

    /// Stably partitions the beam arrays so every beam with a measured range
    /// strictly below `r_max` forms a leading prefix, records the prefix for
    /// [`BeamBatch::in_range_prefix`] lookups, and returns its length.
    ///
    /// A NaN range is not below `r_max`, so NaN beams land behind the prefix.
    /// In-range beams keep their relative order (and so do the out-of-range
    /// beams moved behind them), so a correction kernel iterating only the
    /// prefix accumulates the per-beam log-likelihoods in the batch's beam
    /// order. The partition works in place and allocates nothing. Call this
    /// once per update, after the batch is fully built; `r_max` is a static
    /// filter parameter, so the partition is reused by every particle.
    pub fn partition_in_range(&mut self, r_max: f32) -> usize {
        if let Some(prefix) = self.in_range {
            if prefix.r_max == r_max {
                return prefix.len;
            }
        }
        let mut len = 0;
        for i in 0..self.range_m.len() {
            if self.range_m[i] < r_max {
                // Beams `len..i` are all out of range: rotate beam `i` in
                // front of them, keeping both groups in order.
                self.end_x_body[len..=i].rotate_right(1);
                self.end_y_body[len..=i].rotate_right(1);
                self.range_m[len..=i].rotate_right(1);
                len += 1;
            }
        }
        self.in_range = Some(InRangePrefix { r_max, len });
        len
    }

    /// Length of the in-range prefix previously computed by
    /// [`BeamBatch::partition_in_range`] for this exact `r_max`, or `None`
    /// when the batch has not been partitioned (or was partitioned for a
    /// different truncation).
    pub fn in_range_prefix(&self, r_max: f32) -> Option<usize> {
        self.in_range
            .filter(|prefix| prefix.r_max == r_max)
            .map(|prefix| prefix.len)
    }

    /// The in-range end-point prefix for `r_max` as `(end_x_body, end_y_body)`
    /// slices, when the batch was [partitioned](BeamBatch::partition_in_range)
    /// for exactly this truncation — the branch-free view every correction
    /// kernel iterates. `None` when the batch is unpartitioned (or was
    /// partitioned for a different truncation).
    pub fn in_range_slices(&self, r_max: f32) -> Option<(&[f32], &[f32])> {
        self.in_range_prefix(r_max)
            .map(|len| (&self.end_x_body[..len], &self.end_y_body[..len]))
    }

    /// Number of beams in the batch.
    pub fn len(&self) -> usize {
        self.range_m.len()
    }

    /// Returns `true` when the batch holds no beams.
    pub fn is_empty(&self) -> bool {
        self.range_m.is_empty()
    }

    /// Body-frame X coordinates of the beam end points.
    pub fn end_x_body(&self) -> &[f32] {
        &self.end_x_body
    }

    /// Body-frame Y coordinates of the beam end points.
    pub fn end_y_body(&self) -> &[f32] {
        &self.end_y_body
    }

    /// Measured ranges, metres (the key of [`BeamBatch::partition_in_range`]).
    pub fn range_m(&self) -> &[f32] {
        &self.range_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SensorConfig;
    use crate::measurement::{TargetStatus, ZoneMeasurement};
    use crate::rig::SensorRig;
    use crate::zones::ZoneGeometry;
    use mcl_gridmap::{MapBuilder, Pose2};
    use rand::SeedableRng;

    fn clean_rig() -> SensorRig {
        SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        )
    }

    #[test]
    fn batch_matches_per_beam_end_points_at_identity_pose() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let beams = clean_rig().observe(&map, &Pose2::new(2.0, 2.0, 0.0), 0.0, &mut rng);
        let batch = BeamBatch::from_beams(&beams);
        assert_eq!(batch.len(), beams.len());
        // At the identity pose the body frame *is* the world frame, so the
        // precomputed end points must equal Beam::end_point exactly up to the
        // trig association (loose tolerance covers the ulp difference).
        for (i, beam) in beams.iter().enumerate() {
            let reference = beam.end_point(&Pose2::default());
            assert!((batch.end_x_body()[i] - reference.x).abs() < 1e-5);
            assert!((batch.end_y_body()[i] - reference.y).abs() < 1e-5);
            assert_eq!(batch.range_m()[i], beam.range_m);
        }
    }

    #[test]
    fn from_frames_flattens_like_the_rig_conversion() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let rig = clean_rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let frames = rig.capture(&map, &Pose2::new(1.5, 2.5, 0.4), &mut rng);
        let via_frames = BeamBatch::from_frames(&frames);
        let via_beams = BeamBatch::from_beams(&SensorRig::frames_to_beams(&frames));
        assert_eq!(via_frames, via_beams);
        assert_eq!(via_frames.len(), 16);
    }

    #[test]
    fn invalid_zones_never_reach_the_batch() {
        let frame = ToFFrame {
            timestamp_s: 0.0,
            mode: crate::config::ZoneMode::Grid4x4,
            mounting: Pose2::default(),
            zones: vec![
                ZoneMeasurement {
                    col: 0,
                    row: 0,
                    distance_m: 1.0,
                    status: TargetStatus::Valid,
                },
                ZoneMeasurement {
                    col: 1,
                    row: 0,
                    distance_m: 2.0,
                    status: TargetStatus::OutOfRange,
                },
            ],
        };
        let batch = BeamBatch::from_frames(&[frame]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.range_m()[0], 1.0);
    }

    #[test]
    fn partition_in_range_is_stable_and_cached() {
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [
            make(0.5, 0.0),
            make(2.0, 0.3),
            make(0.7, 0.6),
            make(f32::NAN, 0.7),
            make(1.8, 0.9),
            make(0.2, 1.2),
        ];
        let mut batch = BeamBatch::from_beams(&beams);
        assert_eq!(batch.in_range_prefix(1.5), None);
        let len = batch.partition_in_range(1.5);
        assert_eq!(len, 3);
        assert_eq!(batch.in_range_prefix(1.5), Some(3));
        assert_eq!(batch.in_range_prefix(1.0), None);
        // In-range beams keep their relative order; the out-of-range and NaN
        // beams follow, in theirs, and none is dropped.
        assert_eq!(batch.len(), beams.len());
        assert_eq!(&batch.range_m()[..3], &[0.5, 0.7, 0.2]);
        assert_eq!(batch.range_m()[3], 2.0);
        assert!(batch.range_m()[4].is_nan());
        assert_eq!(batch.range_m()[5], 1.8);
        // The end-point components moved with their ranges (compared as
        // bits: the NaN beam's end point is NaN).
        let reference =
            BeamBatch::from_beams(&[beams[0], beams[2], beams[5], beams[1], beams[3], beams[4]]);
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(batch.end_x_body()), bits(reference.end_x_body()));
        assert_eq!(bits(batch.end_y_body()), bits(reference.end_y_body()));
        // Repartitioning for the same r_max is a cached no-op.
        assert_eq!(batch.partition_in_range(1.5), 3);
        // A different truncation repartitions (0.2 and 0.5 and 0.7 < 1.0).
        assert_eq!(batch.partition_in_range(1.0), 3);
        assert_eq!(batch.in_range_prefix(1.5), None);
        // Pushing invalidates the prefix.
        batch.push(&make(0.4, 0.0));
        assert_eq!(batch.in_range_prefix(1.0), None);
    }

    #[test]
    fn in_range_slices_expose_exactly_the_partitioned_prefix() {
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [make(0.5, 0.0), make(2.0, 0.3), make(0.7, 0.6)];
        let mut batch = BeamBatch::from_beams(&beams);
        // Unpartitioned (and wrong-truncation) batches expose no view.
        assert!(batch.in_range_slices(1.5).is_none());
        let len = batch.partition_in_range(1.5);
        assert_eq!(len, 2);
        assert!(batch.in_range_slices(1.0).is_none());
        let (xs, ys) = batch.in_range_slices(1.5).unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(ys.len(), 2);
        assert_eq!(xs, &batch.end_x_body()[..2]);
        assert_eq!(ys, &batch.end_y_body()[..2]);
        // An all-skipped batch exposes an empty (not absent) prefix.
        let mut far = BeamBatch::from_beams(&[make(2.0, 0.0)]);
        far.partition_in_range(1.5);
        let (xs, ys) = far.in_range_slices(1.5).unwrap();
        assert!(xs.is_empty() && ys.is_empty());
    }

    #[test]
    fn partition_of_all_in_range_beams_keeps_the_arrays_untouched() {
        let make = |range: f32| Beam {
            azimuth_body_rad: 0.1,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [make(0.5), make(0.7), make(1.2)];
        let mut batch = BeamBatch::from_beams(&beams);
        let untouched = batch.clone();
        assert_eq!(batch.partition_in_range(1.5), 3);
        assert_eq!(batch.range_m(), untouched.range_m());
        assert_eq!(batch.end_x_body(), untouched.end_x_body());
        let mut empty = BeamBatch::default();
        assert_eq!(empty.partition_in_range(1.5), 0);
        assert_eq!(empty.in_range_prefix(1.5), Some(0));
    }

    #[test]
    fn clone_from_copies_the_beams_and_the_partition() {
        let make = |range: f32| Beam {
            azimuth_body_rad: 0.2,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let mut source = BeamBatch::from_beams(&[make(2.0), make(0.5), make(0.7)]);
        source.partition_in_range(1.5);
        let mut scratch = BeamBatch::from_beams(&[make(0.1); 8]);
        scratch.clone_from(&source);
        assert_eq!(scratch, source);
        assert_eq!(scratch.in_range_prefix(1.5), Some(2));
    }

    #[test]
    fn rear_mounting_flips_the_body_frame_end_point() {
        let beam = Beam {
            azimuth_body_rad: core::f32::consts::PI,
            range_m: 1.0,
            origin_body: Pose2::new(0.0, 0.0, core::f32::consts::PI),
        };
        let batch = BeamBatch::from_beams(&[beam]);
        assert!((batch.end_x_body()[0] + 1.0).abs() < 1e-6);
        assert!(batch.end_y_body()[0].abs() < 1e-6);
    }

    #[test]
    fn geometry_helper_still_matches_column_azimuths() {
        // Guard that from_frames uses the per-mode geometry (column azimuths)
        // and not a fixed 8x8 assumption.
        let cfg = SensorConfig::default().with_mode(crate::config::ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        assert_eq!(geometry.column_azimuths().len(), 4);
    }
}
