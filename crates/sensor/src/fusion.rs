//! Sensor-agnostic observation batches: ToF beams fused with UWB anchor
//! ranges.
//!
//! The filter's correction step historically consumed a [`BeamBatch`] only.
//! [`ObservationBatch`] is the multi-sensor front end: it carries the ToF
//! beams **and/or** a set of UWB anchor-range measurements, each stored in
//! structure-of-arrays form so the per-sensor log-likelihood kernels iterate
//! contiguous component arrays exactly like the beam kernel does. A batch may
//! hold beams only (bit-identical to the legacy beam-only update), anchors
//! only (UWB-denied-of-ToF operation, e.g. dust-blinded sensors), or both
//! (fusion — the per-sensor log-likelihoods sum into the particle weights).
//!
//! Anchor measurements are *absolute*: each one pins the world position of a
//! fixed anchor plus the range a UWB transceiver measured to it. Unlike beams
//! there is no body-frame precomputation to hoist (the residual
//! `| p − a | − z` depends only on the particle position), so the arrays are
//! stored as-is.

use crate::batch::BeamBatch;
use crate::measurement::Beam;

/// One UWB anchor-range measurement: the anchor's fixed world position and
/// the range measured to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorRange {
    /// World-frame X position of the anchor, metres.
    pub anchor_x_m: f32,
    /// World-frame Y position of the anchor, metres.
    pub anchor_y_m: f32,
    /// Measured range from the drone to the anchor, metres. Non-finite
    /// values mark a failed/denied measurement and are skipped by every
    /// consumer (the PR 3 NaN rule the beam path applies).
    pub range_m: f32,
}

impl AnchorRange {
    /// Convenience constructor.
    pub fn new(anchor_x_m: f32, anchor_y_m: f32, range_m: f32) -> Self {
        AnchorRange {
            anchor_x_m,
            anchor_y_m,
            range_m,
        }
    }

    /// Whether the measurement is usable (finite range).
    pub fn is_usable(&self) -> bool {
        self.range_m.is_finite()
    }
}

/// A sensor-agnostic observation set for one filter update: the ToF
/// [`BeamBatch`] plus zero or more UWB [`AnchorRange`] measurements in
/// structure-of-arrays form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObservationBatch {
    beams: BeamBatch,
    anchor_x_m: Vec<f32>,
    anchor_y_m: Vec<f32>,
    anchor_range_m: Vec<f32>,
}

impl ObservationBatch {
    /// An empty batch (no beams, no anchors).
    pub fn new() -> Self {
        ObservationBatch::default()
    }

    /// Wraps an already-flattened beam batch with no anchor measurements —
    /// the beam-only case, scored bit-identically to the legacy
    /// `BeamBatch`-only entry points.
    pub fn from_beam_batch(beams: BeamBatch) -> Self {
        ObservationBatch {
            beams,
            ..ObservationBatch::default()
        }
    }

    /// Flattens a beam list (no anchors). See [`BeamBatch::from_beams`].
    pub fn from_beams(beams: &[Beam]) -> Self {
        Self::from_beam_batch(BeamBatch::from_beams(beams))
    }

    /// Appends one anchor-range measurement. Non-finite ranges may be pushed
    /// (a transport may deliver them); every scorer skips them.
    pub fn push_anchor(&mut self, anchor: AnchorRange) {
        self.anchor_x_m.push(anchor.anchor_x_m);
        self.anchor_y_m.push(anchor.anchor_y_m);
        self.anchor_range_m.push(anchor.range_m);
    }

    /// Returns the batch with `anchors` appended (builder form).
    pub fn with_anchors(mut self, anchors: &[AnchorRange]) -> Self {
        for anchor in anchors {
            self.push_anchor(*anchor);
        }
        self
    }

    /// The ToF beam half of the observation.
    pub fn beams(&self) -> &BeamBatch {
        &self.beams
    }

    /// World-frame X positions of the anchors, one per measurement.
    pub fn anchor_x_m(&self) -> &[f32] {
        &self.anchor_x_m
    }

    /// World-frame Y positions of the anchors, one per measurement.
    pub fn anchor_y_m(&self) -> &[f32] {
        &self.anchor_y_m
    }

    /// Measured anchor ranges, metres (non-finite entries are skipped by
    /// every scorer).
    pub fn anchor_range_m(&self) -> &[f32] {
        &self.anchor_range_m
    }

    /// Number of anchor-range measurements (usable or not).
    pub fn anchor_count(&self) -> usize {
        self.anchor_range_m.len()
    }

    /// Returns `true` when the batch carries at least one anchor
    /// measurement — the filter only dispatches the anchor kernel (and only
    /// perturbs the beam-only arithmetic) in that case.
    pub fn has_anchors(&self) -> bool {
        !self.anchor_range_m.is_empty()
    }

    /// Number of anchor measurements with a finite (usable) range — the
    /// anchors the range model will actually score.
    pub fn usable_anchor_count(&self) -> usize {
        self.anchor_range_m.iter().filter(|z| z.is_finite()).count()
    }

    /// The `i`-th anchor measurement.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.anchor_count()`.
    pub fn anchor(&self, i: usize) -> AnchorRange {
        AnchorRange {
            anchor_x_m: self.anchor_x_m[i],
            anchor_y_m: self.anchor_y_m[i],
            range_m: self.anchor_range_m[i],
        }
    }

    /// Returns `true` when the batch carries neither beams nor anchors.
    pub fn is_empty(&self) -> bool {
        self.beams.is_empty() && self.anchor_range_m.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::Pose2;

    fn beam(range: f32) -> Beam {
        Beam {
            azimuth_body_rad: 0.3,
            range_m: range,
            origin_body: Pose2::default(),
        }
    }

    #[test]
    fn beam_only_batch_wraps_the_beam_batch_unchanged() {
        let beams = [beam(0.5), beam(2.0)];
        let direct = BeamBatch::from_beams(&beams);
        let obs = ObservationBatch::from_beams(&beams);
        assert_eq!(obs.beams(), &direct);
        assert!(!obs.has_anchors());
        assert_eq!(obs.anchor_count(), 0);
        assert_eq!(obs.usable_anchor_count(), 0);
        assert!(!obs.is_empty());
        assert!(ObservationBatch::new().is_empty());
    }

    #[test]
    fn anchors_are_stored_in_push_order() {
        let obs = ObservationBatch::new().with_anchors(&[
            AnchorRange::new(0.2, 0.3, 1.0),
            AnchorRange::new(3.8, 0.3, f32::NAN),
            AnchorRange::new(0.2, 3.7, 2.5),
        ]);
        assert!(obs.has_anchors());
        assert_eq!(obs.anchor_count(), 3);
        assert_eq!(obs.usable_anchor_count(), 2);
        assert_eq!(obs.anchor_x_m(), &[0.2, 3.8, 0.2]);
        assert_eq!(obs.anchor_y_m(), &[0.3, 0.3, 3.7]);
        assert_eq!(obs.anchor_range_m()[0], 1.0);
        assert!(obs.anchor_range_m()[1].is_nan());
        let second = obs.anchor(2);
        assert_eq!(second.anchor_x_m, 0.2);
        assert_eq!(second.range_m, 2.5);
        assert!(obs.anchor(0).is_usable());
        assert!(!obs.anchor(1).is_usable());
    }

    #[test]
    fn non_finite_ranges_are_flagged_unusable() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!AnchorRange::new(0.0, 0.0, bad).is_usable());
        }
        assert!(AnchorRange::new(0.0, 0.0, 0.0).is_usable());
    }
}
