//! The fleet wire protocol: length-prefixed binary frames.
//!
//! Every message travels as `[len: u32 LE][type: u8][body]` where `len`
//! counts the type byte plus the body. All integers are little-endian; all
//! floats are IEEE-754 binary32 transported as their raw bit pattern, so a
//! frame round-trips bit-exactly — the property the fleet-vs-single-filter
//! determinism harness relies on.
//!
//! Client → server: [`Request::Register`], [`Request::Frame`],
//! [`Request::Deregister`]. Server → client: [`Response::Registered`],
//! [`Response::Pose`], [`Response::Deregistered`], [`Response::Error`].
//!
//! Decoding is strict: unknown message types, truncated bodies, trailing
//! bytes, non-finite floats and oversized beam lists are all rejected with a
//! typed [`ProtocolError`] so the server can answer malformed input with an
//! [`ErrorCode::MalformedFrame`] response instead of guessing.
//!
//! # Protocol versions
//!
//! The original (v1) observation frame carries odometry plus ToF beams. The
//! v2 frame appends an optional UWB anchor-range block — a count-prefixed
//! list of `(anchor x, anchor y, measured range)` f32 triples — under its own
//! message tag, so v1 decoders and v1 byte streams are untouched: a
//! [`Request::Frame`] with no ranges still encodes to the exact v1 bytes, and
//! v1 frames decode to an empty range list. Anchor positions must be finite;
//! the measured range transports raw bits, because a denied / NLOS anchor
//! legitimately reports NaN and the filter's anchor kernel drops non-finite
//! ranges as missing measurements.

use mcl_core::{KernelBackend, MotionDelta};
use mcl_gridmap::Pose2;
use mcl_sensor::{AnchorRange, Beam};
use std::io::{self, Read};

/// Hard ceiling on one frame's payload (type byte + body).
///
/// Large enough for a register burst or a dual-sensor beam frame with the
/// maximum beam count, small enough that a hostile length prefix cannot make
/// the server allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Hard ceiling on beams per observation frame (a dual VL53L5CX rig yields at
/// most 16 beams per step; 512 leaves generous headroom for richer rigs).
pub const MAX_BEAMS_PER_FRAME: usize = 512;

/// Hard ceiling on UWB anchor ranges per v2 observation frame (real
/// deployments install a handful of anchors; 64 leaves generous headroom).
pub const MAX_ANCHORS_PER_FRAME: usize = 64;

/// Bytes of one encoded beam: azimuth, range, origin x/y/theta.
const BEAM_BYTES: usize = 5 * 4;

/// Bytes of one encoded anchor range: anchor x, anchor y, measured range.
const ANCHOR_BYTES: usize = 3 * 4;

/// Message type tags (client → server).
const MSG_REGISTER: u8 = 0x01;
const MSG_FRAME: u8 = 0x02;
const MSG_DEREGISTER: u8 = 0x03;
/// v2 observation frame: the v1 frame body followed by a UWB anchor block.
const MSG_FRAME_V2: u8 = 0x04;
/// Message type tags (server → client).
const MSG_REGISTERED: u8 = 0x81;
const MSG_POSE: u8 = 0x82;
const MSG_DEREGISTERED: u8 = 0x83;
const MSG_ERROR: u8 = 0x84;

/// Wire encoding of the optional per-drone kernel backend choice.
const BACKEND_DEFAULT: u8 = 0xFF;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The body ended before the advertised fields.
    Truncated,
    /// The body carried bytes past the last field.
    TrailingBytes,
    /// The type byte is not a known message.
    UnknownType(u8),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] (or is zero).
    BadLength(usize),
    /// A field held an invalid value (non-finite float, oversized beam
    /// count, unknown backend code).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame body truncated"),
            ProtocolError::TrailingBytes => write!(f, "frame body has trailing bytes"),
            ProtocolError::UnknownType(t) => write!(f, "unknown message type {t:#04x}"),
            ProtocolError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtocolError::BadValue(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Per-connection error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame did not decode; the offending frame was skipped.
    MalformedFrame = 1,
    /// The drone id is not registered (or was already deregistered).
    UnknownDrone = 2,
    /// The drone id is already registered.
    DuplicateDrone = 3,
    /// The drone id is owned by a different connection.
    NotOwner = 4,
    /// The register request's filter configuration was rejected.
    BadConfig = 5,
    /// The fleet is at its registration capacity (`MCL_FLEET_MAX_DRONES`).
    Capacity = 6,
    /// The drone's filter panicked; its slot was retired.
    Internal = 7,
    /// The fleet is shutting down.
    Shutdown = 8,
}

impl ErrorCode {
    fn from_wire(code: u8) -> Result<Self, ProtocolError> {
        Ok(match code {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::UnknownDrone,
            3 => ErrorCode::DuplicateDrone,
            4 => ErrorCode::NotOwner,
            5 => ErrorCode::BadConfig,
            6 => ErrorCode::Capacity,
            7 => ErrorCode::Internal,
            8 => ErrorCode::Shutdown,
            _ => return Err(ProtocolError::BadValue("error code")),
        })
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a filter for `drone_id` and initialize it uniformly over the
    /// fleet's map.
    Register {
        /// Fleet-wide drone identity chosen by the client.
        drone_id: u64,
        /// Particle count (the fixed population, or the adaptive start).
        particles: u32,
        /// Seed of the filter's counter-based noise generator.
        seed: u64,
        /// Kernel backend override; `None` follows the server's default
        /// (`MCL_KERNEL_BACKEND`, else auto-detect).
        backend: Option<KernelBackend>,
        /// Enable KLD-adaptive population control for this drone.
        adaptive: bool,
    },
    /// One odometry increment plus the observations made after it — exactly
    /// one [`Response::Pose`] comes back per frame.
    Frame {
        /// Target drone.
        drone_id: u64,
        /// Body-frame odometry increment since the previous frame.
        delta: MotionDelta,
        /// Beams of this observation (may be empty: odometry-only step).
        beams: Vec<Beam>,
        /// UWB anchor ranges of this observation. Empty for v1 clients —
        /// an empty list encodes to the exact v1 frame bytes.
        ranges: Vec<AnchorRange>,
    },
    /// Retire the drone's filter and free its slot.
    Deregister {
        /// Target drone.
        drone_id: u64,
    },
}

/// A pose estimate streamed back for one processed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseUpdate {
    /// The drone this estimate belongs to.
    pub drone_id: u64,
    /// 1-based count of frames processed for this drone (its stream clock).
    pub update: u32,
    /// Whether the observation passed the motion gate and was applied.
    pub applied: bool,
    /// Estimated pose (weighted mean, mode-refined under adaptive control).
    pub x: f32,
    /// See `x`.
    pub y: f32,
    /// Estimated yaw, radians.
    pub theta: f32,
    /// Positional spread of the belief, metres.
    pub position_std_m: f32,
    /// Yaw spread of the belief, radians.
    pub yaw_std_rad: f32,
    /// Effective sample size of the weights.
    pub neff: f32,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The drone was registered; echoes the accepted particle count.
    Registered {
        /// The registered drone.
        drone_id: u64,
        /// Accepted particle count.
        particles: u32,
    },
    /// A pose estimate for one processed frame.
    Pose(PoseUpdate),
    /// The drone was deregistered and its slot freed.
    Deregistered {
        /// The retired drone.
        drone_id: u64,
    },
    /// A request failed; the connection stays usable.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// The drone the failed request addressed (0 when not applicable).
        drone_id: u64,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn backend_to_wire(backend: Option<KernelBackend>) -> u8 {
    match backend {
        None => BACKEND_DEFAULT,
        Some(KernelBackend::Scalar) => 0,
        Some(KernelBackend::Lanes) => 1,
        Some(KernelBackend::Avx2) => 2,
    }
}

fn backend_from_wire(code: u8) -> Result<Option<KernelBackend>, ProtocolError> {
    match code {
        BACKEND_DEFAULT => Ok(None),
        0 => Ok(Some(KernelBackend::Scalar)),
        1 => Ok(Some(KernelBackend::Lanes)),
        2 => Ok(Some(KernelBackend::Avx2)),
        _ => Err(ProtocolError::BadValue("kernel backend")),
    }
}

/// Appends the framed encoding of `request` (length prefix included) to
/// `out`.
pub fn encode_request(request: &Request, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // length placeholder
    match request {
        Request::Register {
            drone_id,
            particles,
            seed,
            backend,
            adaptive,
        } => {
            out.push(MSG_REGISTER);
            put_u64(out, *drone_id);
            put_u32(out, *particles);
            put_u64(out, *seed);
            out.push(backend_to_wire(*backend));
            out.push(u8::from(*adaptive));
        }
        Request::Frame {
            drone_id,
            delta,
            beams,
            ranges,
        } => {
            // A frame without anchor ranges emits the v1 tag and body so v1
            // byte streams (and the determinism harness pinned to them) are
            // reproduced bit-exactly.
            out.push(if ranges.is_empty() {
                MSG_FRAME
            } else {
                MSG_FRAME_V2
            });
            put_u64(out, *drone_id);
            put_f32(out, delta.dx);
            put_f32(out, delta.dy);
            put_f32(out, delta.dtheta);
            debug_assert!(beams.len() <= MAX_BEAMS_PER_FRAME);
            put_u16(out, beams.len() as u16);
            for beam in beams {
                put_f32(out, beam.azimuth_body_rad);
                put_f32(out, beam.range_m);
                put_f32(out, beam.origin_body.x);
                put_f32(out, beam.origin_body.y);
                put_f32(out, beam.origin_body.theta);
            }
            if !ranges.is_empty() {
                debug_assert!(ranges.len() <= MAX_ANCHORS_PER_FRAME);
                put_u16(out, ranges.len() as u16);
                for range in ranges {
                    put_f32(out, range.anchor_x_m);
                    put_f32(out, range.anchor_y_m);
                    put_f32(out, range.range_m);
                }
            }
        }
        Request::Deregister { drone_id } => {
            out.push(MSG_DEREGISTER);
            put_u64(out, *drone_id);
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends the framed encoding of `response` (length prefix included) to
/// `out`.
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0);
    match response {
        Response::Registered {
            drone_id,
            particles,
        } => {
            out.push(MSG_REGISTERED);
            put_u64(out, *drone_id);
            put_u32(out, *particles);
        }
        Response::Pose(pose) => {
            out.push(MSG_POSE);
            put_u64(out, pose.drone_id);
            put_u32(out, pose.update);
            out.push(u8::from(pose.applied));
            put_f32(out, pose.x);
            put_f32(out, pose.y);
            put_f32(out, pose.theta);
            put_f32(out, pose.position_std_m);
            put_f32(out, pose.yaw_std_rad);
            put_f32(out, pose.neff);
        }
        Response::Deregistered { drone_id } => {
            out.push(MSG_DEREGISTERED);
            put_u64(out, *drone_id);
        }
        Response::Error { code, drone_id } => {
            out.push(MSG_ERROR);
            out.push(*code as u8);
            put_u64(out, *drone_id);
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A strict little-endian cursor over one frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.bytes.len() < n {
            return Err(ProtocolError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32_raw(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A float that must be finite — odometry and beam geometry; NaN or ±∞
    /// here is either corruption or an attack, never a valid measurement.
    fn f32_finite(&mut self, what: &'static str) -> Result<f32, ProtocolError> {
        let v = self.f32_raw()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(ProtocolError::BadValue(what))
        }
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

/// Decodes one request payload (type byte + body, no length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut cur = Cursor { bytes: payload };
    let tag = cur.u8()?;
    let request = match tag {
        MSG_REGISTER => {
            let drone_id = cur.u64()?;
            let particles = cur.u32()?;
            let seed = cur.u64()?;
            let backend = backend_from_wire(cur.u8()?)?;
            let adaptive = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtocolError::BadValue("adaptive flag")),
            };
            Request::Register {
                drone_id,
                particles,
                seed,
                backend,
                adaptive,
            }
        }
        MSG_FRAME | MSG_FRAME_V2 => {
            let drone_id = cur.u64()?;
            let delta = MotionDelta {
                dx: cur.f32_finite("odometry dx")?,
                dy: cur.f32_finite("odometry dy")?,
                dtheta: cur.f32_finite("odometry dtheta")?,
            };
            let count = cur.u16()? as usize;
            if count > MAX_BEAMS_PER_FRAME {
                return Err(ProtocolError::BadValue("beam count"));
            }
            // Pre-check the remaining length so a hostile count cannot force
            // a large reservation before the Truncated error would surface.
            // A v2 body must still carry its anchor count after the beams.
            let beam_bytes = count * BEAM_BYTES;
            let floor = beam_bytes + if tag == MSG_FRAME_V2 { 2 } else { 0 };
            if cur.bytes.len() < floor {
                return Err(ProtocolError::Truncated);
            }
            if tag == MSG_FRAME && cur.bytes.len() > beam_bytes {
                return Err(ProtocolError::TrailingBytes);
            }
            let mut beams = Vec::with_capacity(count);
            for _ in 0..count {
                let azimuth_body_rad = cur.f32_finite("beam azimuth")?;
                let range_m = cur.f32_finite("beam range")?;
                let x = cur.f32_finite("beam origin x")?;
                let y = cur.f32_finite("beam origin y")?;
                let theta = cur.f32_finite("beam origin theta")?;
                beams.push(Beam {
                    azimuth_body_rad,
                    range_m,
                    // Struct literal on purpose: `Pose2::new` normalizes the
                    // yaw, this transports the client's bits unchanged.
                    origin_body: Pose2 { x, y, theta },
                });
            }
            let mut ranges = Vec::new();
            if tag == MSG_FRAME_V2 {
                let acount = cur.u16()? as usize;
                if acount > MAX_ANCHORS_PER_FRAME {
                    return Err(ProtocolError::BadValue("anchor count"));
                }
                if cur.bytes.len() != acount * ANCHOR_BYTES {
                    return Err(if cur.bytes.len() < acount * ANCHOR_BYTES {
                        ProtocolError::Truncated
                    } else {
                        ProtocolError::TrailingBytes
                    });
                }
                ranges.reserve_exact(acount);
                for _ in 0..acount {
                    let anchor_x_m = cur.f32_finite("anchor x")?;
                    let anchor_y_m = cur.f32_finite("anchor y")?;
                    // Raw bits: a denied/NLOS anchor reports NaN and the
                    // filter's skip rule must see it unchanged.
                    let range_m = cur.f32_raw()?;
                    ranges.push(AnchorRange {
                        anchor_x_m,
                        anchor_y_m,
                        range_m,
                    });
                }
            }
            Request::Frame {
                drone_id,
                delta,
                beams,
                ranges,
            }
        }
        MSG_DEREGISTER => Request::Deregister {
            drone_id: cur.u64()?,
        },
        other => return Err(ProtocolError::UnknownType(other)),
    };
    cur.finish()?;
    Ok(request)
}

/// Decodes one response payload (type byte + body, no length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut cur = Cursor { bytes: payload };
    let tag = cur.u8()?;
    let response = match tag {
        MSG_REGISTERED => Response::Registered {
            drone_id: cur.u64()?,
            particles: cur.u32()?,
        },
        MSG_POSE => Response::Pose(PoseUpdate {
            drone_id: cur.u64()?,
            update: cur.u32()?,
            applied: match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtocolError::BadValue("applied flag")),
            },
            // Raw bits: a diverged filter may legitimately publish non-finite
            // spreads and the stream must still round-trip them exactly.
            x: cur.f32_raw()?,
            y: cur.f32_raw()?,
            theta: cur.f32_raw()?,
            position_std_m: cur.f32_raw()?,
            yaw_std_rad: cur.f32_raw()?,
            neff: cur.f32_raw()?,
        }),
        MSG_DEREGISTERED => Response::Deregistered {
            drone_id: cur.u64()?,
        },
        MSG_ERROR => Response::Error {
            code: ErrorCode::from_wire(cur.u8()?)?,
            drone_id: cur.u64()?,
        },
        other => return Err(ProtocolError::UnknownType(other)),
    };
    cur.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// Blocking stream I/O
// ---------------------------------------------------------------------------

/// Reads one length-prefixed payload into `buf` (cleared first).
///
/// Returns `Ok(false)` on a clean EOF at a frame boundary, an
/// [`io::ErrorKind::UnexpectedEof`] error on EOF inside a frame (a truncated
/// length prefix or body), and [`io::ErrorKind::InvalidData`] when the length
/// prefix itself is invalid — that connection cannot be resynchronized.
pub fn read_frame(reader: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    // A clean EOF before any prefix byte ends the stream; EOF after at least
    // one byte is a truncated prefix.
    match reader.read(&mut prefix) {
        Ok(0) => return Ok(false),
        Ok(n) if n < 4 => reader.read_exact(&mut prefix[n..])?,
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            reader.read_exact(&mut prefix)?;
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::BadLength(len).to_string(),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    reader.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let mut framed = Vec::new();
        encode_request(&request, &mut framed);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, framed.len() - 4);
        assert_eq!(decode_request(&framed[4..]).unwrap(), request);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Register {
            drone_id: 42,
            particles: 2048,
            seed: 7,
            backend: Some(KernelBackend::Lanes),
            adaptive: true,
        });
        roundtrip_request(Request::Register {
            drone_id: u64::MAX,
            particles: 64,
            seed: 0,
            backend: None,
            adaptive: false,
        });
        roundtrip_request(Request::Frame {
            drone_id: 3,
            delta: MotionDelta::new(0.05, -0.01, 0.002),
            beams: vec![
                Beam {
                    azimuth_body_rad: 0.25,
                    range_m: 1.125,
                    origin_body: Pose2 {
                        x: 0.01,
                        y: -0.02,
                        theta: 0.5,
                    },
                },
                Beam {
                    azimuth_body_rad: -0.25,
                    range_m: 0.875,
                    origin_body: Pose2 {
                        x: 0.0,
                        y: 0.0,
                        theta: 6.0,
                    },
                },
            ],
            ranges: Vec::new(),
        });
        roundtrip_request(Request::Frame {
            drone_id: 9,
            delta: MotionDelta::new(0.0, 0.0, 0.0),
            beams: Vec::new(),
            ranges: Vec::new(),
        });
        roundtrip_request(Request::Deregister { drone_id: 1 });
    }

    #[test]
    fn fused_frames_roundtrip_with_raw_range_bits() {
        // Beams plus anchors, and anchors without beams.
        roundtrip_request(Request::Frame {
            drone_id: 11,
            delta: MotionDelta::new(0.03, 0.0, -0.001),
            beams: vec![Beam {
                azimuth_body_rad: 0.5,
                range_m: 1.25,
                origin_body: Pose2 {
                    x: 0.02,
                    y: 0.0,
                    theta: 0.0,
                },
            }],
            ranges: vec![
                AnchorRange::new(0.2, 0.2, 3.125),
                AnchorRange::new(7.0, 4.6, 0.875),
            ],
        });
        roundtrip_request(Request::Frame {
            drone_id: 12,
            delta: MotionDelta::new(0.0, 0.0, 0.0),
            beams: Vec::new(),
            ranges: vec![AnchorRange::new(1.0, 2.0, 0.5)],
        });
        // A denied anchor's NaN range must round-trip bit-exactly.
        let request = Request::Frame {
            drone_id: 13,
            delta: MotionDelta::new(0.0, 0.0, 0.0),
            beams: Vec::new(),
            ranges: vec![AnchorRange::new(0.5, 0.5, f32::NAN)],
        };
        let mut framed = Vec::new();
        encode_request(&request, &mut framed);
        match decode_request(&framed[4..]).unwrap() {
            Request::Frame { ranges, .. } => {
                assert_eq!(ranges.len(), 1);
                assert_eq!(ranges[0].range_m.to_bits(), f32::NAN.to_bits());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn beam_only_frames_encode_to_v1_bytes() {
        // The fused request type must not perturb v1 byte streams: a frame
        // with no anchor ranges carries the v1 tag and nothing extra.
        let request = Request::Frame {
            drone_id: 3,
            delta: MotionDelta::new(0.05, -0.01, 0.002),
            beams: vec![Beam {
                azimuth_body_rad: 0.25,
                range_m: 1.125,
                origin_body: Pose2 {
                    x: 0.01,
                    y: -0.02,
                    theta: 0.5,
                },
            }],
            ranges: Vec::new(),
        };
        let mut framed = Vec::new();
        encode_request(&request, &mut framed);
        assert_eq!(framed[4], MSG_FRAME);
        // len = tag + drone id + delta + beam count + one beam.
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, 1 + 8 + 12 + 2 + BEAM_BYTES);
        // And a fused frame uses the v2 tag with the anchor block appended.
        let fused = Request::Frame {
            drone_id: 3,
            delta: MotionDelta::new(0.05, -0.01, 0.002),
            beams: Vec::new(),
            ranges: vec![AnchorRange::new(0.0, 0.0, 1.0)],
        };
        let mut framed = Vec::new();
        encode_request(&fused, &mut framed);
        assert_eq!(framed[4], MSG_FRAME_V2);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, 1 + 8 + 12 + 2 + 2 + ANCHOR_BYTES);
    }

    #[test]
    fn malformed_v2_payloads_are_rejected() {
        let encode = |ranges: Vec<AnchorRange>| {
            let mut framed = Vec::new();
            encode_request(
                &Request::Frame {
                    drone_id: 1,
                    delta: MotionDelta::new(0.0, 0.0, 0.0),
                    beams: Vec::new(),
                    ranges,
                },
                &mut framed,
            );
            framed[4..].to_vec()
        };
        // v2 tag with the anchor block chopped off entirely.
        let payload = encode(vec![AnchorRange::new(0.0, 0.0, 1.0)]);
        let no_block = &payload[..payload.len() - 2 - ANCHOR_BYTES];
        assert_eq!(decode_request(no_block), Err(ProtocolError::Truncated));
        // Anchor count larger than the body.
        let mut payload = encode(vec![AnchorRange::new(0.0, 0.0, 1.0)]);
        let count_at = payload.len() - ANCHOR_BYTES - 2;
        payload[count_at..count_at + 2].copy_from_slice(&5u16.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(ProtocolError::Truncated));
        // Anchor count smaller than the body (trailing anchor bytes).
        let mut payload = encode(vec![
            AnchorRange::new(0.0, 0.0, 1.0),
            AnchorRange::new(1.0, 1.0, 2.0),
        ]);
        let count_at = payload.len() - 2 * ANCHOR_BYTES - 2;
        payload[count_at..count_at + 2].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(ProtocolError::TrailingBytes));
        // Anchor count above the hard ceiling.
        let mut payload = encode(vec![AnchorRange::new(0.0, 0.0, 1.0)]);
        let count_at = payload.len() - ANCHOR_BYTES - 2;
        payload[count_at..count_at + 2]
            .copy_from_slice(&((MAX_ANCHORS_PER_FRAME + 1) as u16).to_le_bytes());
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::BadValue("anchor count"))
        );
        // Non-finite anchor position (unlike the measured range, anchor
        // coordinates are surveyed constants and must be finite).
        let mut payload = encode(vec![AnchorRange::new(0.0, 0.0, 1.0)]);
        let x_at = payload.len() - ANCHOR_BYTES;
        payload[x_at..x_at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::BadValue("anchor x"))
        );
    }

    #[test]
    fn responses_roundtrip() {
        for response in [
            Response::Registered {
                drone_id: 5,
                particles: 512,
            },
            Response::Pose(PoseUpdate {
                drone_id: 5,
                update: 17,
                applied: true,
                x: 1.5,
                y: 2.5,
                theta: 0.75,
                position_std_m: 0.125,
                yaw_std_rad: 0.0625,
                neff: 311.5,
            }),
            Response::Deregistered { drone_id: 5 },
            Response::Error {
                code: ErrorCode::DuplicateDrone,
                drone_id: 5,
            },
        ] {
            let mut framed = Vec::new();
            encode_response(&response, &mut framed);
            assert_eq!(decode_response(&framed[4..]).unwrap(), response);
        }
    }

    #[test]
    fn pose_floats_roundtrip_raw_bits() {
        let pose = PoseUpdate {
            drone_id: 1,
            update: 1,
            applied: false,
            x: f32::NAN,
            y: f32::INFINITY,
            theta: -0.0,
            position_std_m: f32::MIN_POSITIVE,
            yaw_std_rad: 0.0,
            neff: f32::MAX,
        };
        let mut framed = Vec::new();
        encode_response(&Response::Pose(pose), &mut framed);
        match decode_response(&framed[4..]).unwrap() {
            Response::Pose(decoded) => {
                assert_eq!(decoded.x.to_bits(), pose.x.to_bits());
                assert_eq!(decoded.y.to_bits(), pose.y.to_bits());
                assert_eq!(decoded.theta.to_bits(), pose.theta.to_bits());
            }
            other => panic!("expected pose, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Unknown type.
        assert_eq!(
            decode_request(&[0x7F]),
            Err(ProtocolError::UnknownType(0x7F))
        );
        // Truncated register body.
        assert_eq!(
            decode_request(&[MSG_REGISTER, 1, 2, 3]),
            Err(ProtocolError::Truncated)
        );
        // Trailing bytes after a deregister.
        let mut framed = Vec::new();
        encode_request(&Request::Deregister { drone_id: 2 }, &mut framed);
        let mut payload = framed[4..].to_vec();
        payload.push(0xAB);
        assert_eq!(decode_request(&payload), Err(ProtocolError::TrailingBytes));
        // Beam count not matching the body length.
        let mut framed = Vec::new();
        encode_request(
            &Request::Frame {
                drone_id: 1,
                delta: MotionDelta::new(0.0, 0.0, 0.0),
                beams: Vec::new(),
                ranges: Vec::new(),
            },
            &mut framed,
        );
        let mut payload = framed[4..].to_vec();
        let count_at = payload.len() - 2;
        payload[count_at..].copy_from_slice(&4u16.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(ProtocolError::Truncated));
        // Non-finite odometry.
        let mut framed = Vec::new();
        encode_request(
            &Request::Frame {
                drone_id: 1,
                delta: MotionDelta::new(0.0, 0.0, 0.0),
                beams: Vec::new(),
                ranges: Vec::new(),
            },
            &mut framed,
        );
        let mut payload = framed[4..].to_vec();
        payload[9..13].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::BadValue("odometry dx"))
        );
    }

    #[test]
    fn read_frame_handles_eof_and_bad_lengths() {
        let mut buf = Vec::new();
        // Clean EOF at a boundary.
        let mut empty: &[u8] = &[];
        assert!(!read_frame(&mut empty, &mut buf).unwrap());
        // Truncated length prefix.
        let mut short: &[u8] = &[0x05, 0x00];
        let err = read_frame(&mut short, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncated body.
        let mut body: &[u8] = &[0x05, 0x00, 0x00, 0x00, 0x01, 0x02];
        let err = read_frame(&mut body, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Oversize length prefix.
        let mut huge: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x00];
        let err = read_frame(&mut huge, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Zero length prefix.
        let mut zero: &[u8] = &[0x00, 0x00, 0x00, 0x00];
        let err = read_frame(&mut zero, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
