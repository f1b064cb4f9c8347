//! Angle utilities for planar pose estimation.
//!
//! The nano-UAV flies at a fixed height and localizes in a 2D grid map, so its
//! state is `(x, y, θ)` with the yaw angle `θ ∈ [0, 2π)`. Three operations on
//! angles appear throughout the pipeline:
//!
//! * wrapping arbitrary angles back into a canonical interval
//!   ([`normalize_angle`]),
//! * the signed shortest rotation between two headings
//!   ([`angular_difference`]), used by the convergence check (36° gate) and the
//!   yaw component of the absolute trajectory error,
//! * the weighted circular mean ([`weighted_circular_mean`]), used by the pose
//!   computation step that averages all particle headings by weight — a plain
//!   arithmetic mean is wrong for angles near the 0/2π wrap-around.

use core::f32::consts::{PI, TAU};

/// `angle % TAU` — the IEEE remainder with the sign of `angle`, which is
/// always exact — with a fast path for finite inputs within three turns of
/// zero, where it needs no division.
///
/// For `m = |angle| < 3·TAU` the remainder is `m`, `m − TAU` or `m − 2·TAU`
/// with the sign of `angle` restored. Each subtraction is exact by
/// Sterbenz's lemma (`TAU` and `2·TAU` are within a factor of two of `m`
/// whenever they are subtracted), so the fast path returns the same bits
/// as `%`, signed zeros included. Larger or non-finite inputs take `%`.
///
/// The check `r < TAU` after the subtraction decides the fast path; it is
/// false for NaN, for infinities and for every `m ≥ 3·TAU`.
#[inline]
fn rem_tau(angle: f32) -> f32 {
    let m = angle.abs();
    let r = if m < TAU {
        m
    } else if m < 2.0 * TAU {
        m - TAU
    } else {
        m - 2.0 * TAU
    };
    if r < TAU {
        r.copysign(angle)
    } else {
        angle % TAU
    }
}

/// Wraps an angle into the canonical interval `[0, 2π)`.
///
/// # Example
///
/// ```
/// use mcl_num::normalize_angle;
/// use core::f32::consts::PI;
/// assert!((normalize_angle(-PI / 2.0) - 1.5 * PI).abs() < 1e-6);
/// assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-5);
/// assert_eq!(normalize_angle(0.0), 0.0);
/// ```
pub fn normalize_angle(angle: f32) -> f32 {
    let mut a = rem_tau(angle);
    if a < 0.0 {
        a += TAU;
    }
    // `-1e-9 % TAU + TAU` can round back to TAU; fold that edge case to 0.
    if a >= TAU {
        a -= TAU;
    }
    a
}

/// Signed shortest angular difference `a − b`, in `(−π, π]`.
///
/// The magnitude of the result is the rotation needed to turn heading `b` into
/// heading `a`, never exceeding π.
///
/// # Example
///
/// ```
/// use mcl_num::angular_difference;
/// use core::f32::consts::PI;
/// assert!((angular_difference(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-6);
/// assert!((angular_difference(2.0 * PI - 0.1, 0.1) + 0.2).abs() < 1e-6);
/// ```
pub fn angular_difference(a: f32, b: f32) -> f32 {
    let mut d = rem_tau(a - b);
    if d > PI {
        d -= TAU;
    } else if d <= -PI {
        d += TAU;
    }
    d
}

/// Weighted circular mean of headings.
///
/// Each `(angle, weight)` pair contributes a vector of length `weight`; the mean
/// is the direction of the vector sum, wrapped to `[0, 2π)`. Returns `None` when
/// the weights sum to (numerically) zero or the resultant vector vanishes (e.g.
/// two equal weights pointing in opposite directions), in which case no heading
/// is better than any other.
///
/// # Example
///
/// ```
/// use mcl_num::weighted_circular_mean;
/// use core::f32::consts::PI;
/// // Two headings straddling the wrap-around average to ~0, not ~π.
/// let m = weighted_circular_mean([(0.1, 1.0), (2.0 * PI - 0.1, 1.0)]).unwrap();
/// assert!(m < 0.01 || m > 2.0 * PI - 0.01);
/// ```
pub fn weighted_circular_mean<I>(pairs: I) -> Option<f32>
where
    I: IntoIterator<Item = (f32, f32)>,
{
    let mut sum_sin = 0.0f64;
    let mut sum_cos = 0.0f64;
    let mut sum_w = 0.0f64;
    for (angle, weight) in pairs {
        let w = f64::from(weight);
        sum_sin += w * f64::from(angle.sin());
        sum_cos += w * f64::from(angle.cos());
        sum_w += w;
    }
    if sum_w <= 0.0 {
        return None;
    }
    let norm = (sum_sin * sum_sin + sum_cos * sum_cos).sqrt();
    // The inputs are f32 angles, so a resultant below ~1e-6 of the total weight is
    // indistinguishable from perfect cancellation (e.g. two opposite headings).
    if norm < 1e-6 * sum_w {
        return None;
    }
    Some(normalize_angle(sum_sin.atan2(sum_cos) as f32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_covers_all_quadrants() {
        assert!((normalize_angle(PI) - PI).abs() < 1e-6);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-6);
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-5);
        assert!(normalize_angle(TAU) < 1e-6);
        assert!(normalize_angle(-1e-9) < TAU);
        for k in -10..10 {
            let base = 1.234f32;
            let wrapped = normalize_angle(base + k as f32 * TAU);
            assert!((wrapped - base).abs() < 1e-4, "k={k} wrapped={wrapped}");
        }
    }

    /// The `%`-only definitions the fast paths must reproduce bit for bit.
    fn reference_normalize(angle: f32) -> f32 {
        let mut a = angle % TAU;
        if a < 0.0 {
            a += TAU;
        }
        if a >= TAU {
            a -= TAU;
        }
        a
    }

    fn reference_difference(a: f32, b: f32) -> f32 {
        let mut d = (a - b) % TAU;
        if d > PI {
            d -= TAU;
        } else if d <= -PI {
            d += TAU;
        }
        d
    }

    fn same_bits(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    #[test]
    fn fast_wrap_matches_the_remainder_reference_bit_for_bit() {
        let next_up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let next_down = |x: f32| f32::from_bits(x.to_bits() - 1);
        let mut edges = vec![
            0.0,
            -0.0,
            -1e-9,
            1e-9,
            -1e-30,
            f32::MIN_POSITIVE,
            -f32::from_bits(1),
            PI,
            -PI,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            1e7,
        ];
        for k in [1.0f32, 2.0, 3.0, 4.0] {
            for base in [k * TAU, -k * TAU] {
                edges.extend([base, next_up(base), next_down(base)]);
            }
        }
        for &a in &edges {
            assert!(
                same_bits(normalize_angle(a), reference_normalize(a)),
                "a={a:e}"
            );
            assert!(same_bits(rem_tau(a), a % TAU), "a={a:e}");
            for &b in &edges {
                assert!(
                    same_bits(angular_difference(a, b), reference_difference(a, b)),
                    "a={a:e} b={b:e}"
                );
            }
        }
        // A dense sweep across the fast range and past both of its ends.
        let mut a = -4.0 * TAU;
        while a < 4.0 * TAU {
            assert!(
                same_bits(normalize_angle(a), reference_normalize(a)),
                "a={a:e}"
            );
            assert!(
                same_bits(angular_difference(a, 1.3), reference_difference(a, 1.3)),
                "a={a:e}"
            );
            a += 0.000_37;
        }
        // Every bit pattern near the turn boundaries, where rounding bites.
        for base in [TAU, 2.0 * TAU, 3.0 * TAU, PI] {
            for sign in [1.0f32, -1.0] {
                let centre = (sign * base).to_bits();
                for bits in centre - 512..centre + 512 {
                    let a = f32::from_bits(bits);
                    assert!(
                        same_bits(normalize_angle(a), reference_normalize(a)),
                        "a={a:e}"
                    );
                    assert!(same_bits(rem_tau(a), a % TAU), "a={a:e}");
                }
            }
        }
    }

    #[test]
    fn negative_multiples_of_a_turn_keep_the_remainders_negative_zero() {
        assert_eq!(normalize_angle(-TAU).to_bits(), (-0.0f32).to_bits());
        assert_eq!(normalize_angle(-2.0 * TAU).to_bits(), (-0.0f32).to_bits());
        assert_eq!(normalize_angle(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(normalize_angle(TAU).to_bits(), 0);
        assert_eq!(angular_difference(0.0, TAU).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn difference_is_antisymmetric_and_bounded() {
        let samples = [0.0, 0.3, 1.0, PI, 4.0, 6.0, TAU - 0.01];
        for &a in &samples {
            for &b in &samples {
                let d = angular_difference(a, b);
                assert!(d > -PI - 1e-6 && d <= PI + 1e-6);
                let r = angular_difference(b, a);
                if d.abs() < PI - 1e-4 {
                    assert!((d + r).abs() < 1e-5, "a={a} b={b} d={d} r={r}");
                }
            }
        }
    }

    #[test]
    fn difference_picks_the_short_way_round() {
        assert!((angular_difference(0.0, 3.0 * PI / 2.0) - PI / 2.0).abs() < 1e-6);
        assert!((angular_difference(3.0 * PI / 2.0, 0.0) + PI / 2.0).abs() < 1e-6);
        assert!(angular_difference(1.0, 1.0).abs() < 1e-9);
    }

    #[test]
    fn circular_mean_of_identical_angles_is_that_angle() {
        let m = weighted_circular_mean([(1.2, 0.4), (1.2, 0.6)]).unwrap();
        assert!((m - 1.2).abs() < 1e-5);
    }

    #[test]
    fn circular_mean_respects_weights() {
        // Heavily weight the second heading.
        let m = weighted_circular_mean([(0.0, 0.01), (1.0, 0.99)]).unwrap();
        assert!(m > 0.9 && m < 1.0);
    }

    #[test]
    fn circular_mean_degenerate_cases_return_none() {
        assert!(weighted_circular_mean(std::iter::empty()).is_none());
        assert!(weighted_circular_mean([(1.0, 0.0)]).is_none());
        // Opposite headings with equal weight cancel.
        assert!(weighted_circular_mean([(0.0, 0.5), (PI, 0.5)]).is_none());
    }
}
