//! Numeric support for the ToF-MCL reproduction.
//!
//! The paper ("Fully On-board Low-Power Localization with Multizone Time-of-Flight
//! Sensors on Nano-UAVs", DATE 2023) explores a precision/memory design space for
//! running Monte Carlo Localization on the GAP9 SoC:
//!
//! * particles stored as 32-bit (`f32`) or 16-bit (`binary16`) floats,
//! * the precomputed Euclidean distance transform stored as `f32` or quantized
//!   to 8-bit unsigned integers.
//!
//! This crate provides the numeric building blocks for that design space without
//! pulling in external dependencies:
//!
//! * [`F16`] — an IEEE 754 binary16 type with round-to-nearest-even
//!   conversions, reproducing the rounding behaviour of the GAP9 FPU's half
//!   precision stores.
//! * [`Scalar`] — a small trait abstracting over `f32` and [`F16`] so the particle
//!   filter can be instantiated at either precision, with bulk slice
//!   conversions that run on F16C where the host has it.
//! * [`quant`] — linear 8-bit quantization used for the quantized EDT map
//!   (`fp32qm` / `fp16qm` configurations in the paper).
//! * [`stats`] — running statistics, histograms and percentiles used by the
//!   evaluation metrics (ATE, success rate, convergence probability).
//! * [`angle`] — angle wrapping and circular means used by the motion model and
//!   the weighted-average pose computation.
//! * [`math`] — libm-free `ln`, `exp` and `sin_cos` with fixed coefficients
//!   and operation order, so the per-particle kernels vectorize and return
//!   the same bits on every host.
//!
//! # Example
//!
//! ```
//! use mcl_num::{F16, Scalar};
//!
//! let x = F16::from_f32(0.1);
//! // binary16 only has a 10-bit mantissa: 0.1 is not representable exactly.
//! assert!((x.to_f32() - 0.1).abs() < 1e-4);
//! assert!((x.to_f32() - 0.1).abs() > 0.0);
//!
//! // The Scalar trait lets the particle filter be generic over precision.
//! fn halve<S: Scalar>(v: S) -> S { v.mul(S::from_f32(0.5)) }
//! assert_eq!(halve(2.0f32), 1.0f32);
//! assert_eq!(halve(F16::from_f32(2.0)).to_f32(), 1.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod angle;
pub mod f16;
#[cfg(target_arch = "x86_64")]
mod f16c;
pub mod math;
pub mod quant;
pub mod scalar;
pub mod stats;

pub use angle::{angular_difference, normalize_angle, weighted_circular_mean};
pub use f16::F16;
pub use quant::{QuantError, Quantizer};
pub use scalar::Scalar;
pub use stats::{Histogram, Percentiles, RunningStats, Summary};
