//! The one byte codec of the workspace. The wire frames
//! (`locble-net`), the WAL records ([`crate::wal`]) and the snapshot
//! body ([`crate::snapshot`]) all write and read through it, so each
//! layout below exists once:
//!
//! * the primitives: integers big-endian, every `f64` as its IEEE-754
//!   bit pattern in a big-endian `u64` (NaN payloads survive), option
//!   flags as single bytes, variable-length sequences as a `u32` count
//!   validated against the bytes actually present before any
//!   allocation ([`Reader::counted`]);
//! * an advert ([`put_advert`], [`Reader::advert`]): beacon `u32`, `t`,
//!   `rssi_dbm`;
//! * a location estimate ([`put_estimate`], [`Reader::estimate`]): the
//!   §5 fit's position, mirror candidate, confidence, exponent, Γ,
//!   environment class, points used, fit rung and residual;
//! * the environment-class and fit-method byte maps;
//! * the engine state a snapshot body carries (crate-private: only
//!   [`crate::snapshot`] reads and writes it).
//!
//! The encoders write to any [`Sink`]: a `Vec<u8>`, or a body streamed
//! to a file. The decoder is total: for any byte slice it returns a
//! value or a typed [`CodecError`], never a panic. The primitives are
//! `#[inline]` because the wire decodes every advert through them and
//! no release profile enables cross-crate LTO.

use locble_ble::BeaconId;
use locble_core::{FitMethod, LocationEstimate, StreamingState};
use locble_engine::{Advert, BeaconSessionState, EngineState, EngineStats, SessionState};
use locble_geom::{EnvClass, TimedPoint, Trajectory, Vec2};
use locble_motion::{DetectedTurn, MotionTrack, StepResult};

/// Encoded size of one advert.
pub const ADVERT_LEN: usize = 4 + 8 + 8;

/// Smallest encoded estimate (no mirror candidate).
pub const ESTIMATE_MIN_LEN: usize = 8 + 8 + 1 + 8 + 8 + 8 + 1 + 8 + 1 + 8;

/// Why a byte slice did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The slice ends before the value does.
    Truncated {
        /// What was being parsed when the bytes ran out.
        context: &'static str,
    },
    /// The bytes contradict their own layout (bad discriminant, count
    /// larger than the remaining bytes, trailing garbage).
    Malformed {
        /// What the decoder was parsing when it gave up.
        context: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { context } => write!(f, "truncated while reading {context}"),
            CodecError::Malformed { context } => write!(f, "malformed {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Where the encoders write: a growable buffer, or a body streamed
/// straight to a file (the snapshot writer). Writing cannot fail here;
/// a streaming sink keeps its first I/O error for its owner to report.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Writes a big-endian `u16`.
#[inline]
pub fn put_u16(out: &mut impl Sink, v: u16) {
    out.put(&v.to_be_bytes());
}

/// Writes a big-endian `u32`.
#[inline]
pub fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_be_bytes());
}

/// Writes a big-endian `u64`.
#[inline]
pub fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_be_bytes());
}

/// Writes an `f64` as its bit pattern.
#[inline]
pub fn put_f64(out: &mut impl Sink, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64s(out: &mut impl Sink, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f64(out, v);
    }
}

/// Writes one advert ([`ADVERT_LEN`] bytes).
#[inline]
pub fn put_advert(out: &mut impl Sink, a: &Advert) {
    put_u32(out, a.beacon.0);
    put_f64(out, a.t);
    put_f64(out, a.rssi_dbm);
}

fn env_byte(env: Option<EnvClass>) -> u8 {
    match env {
        None => 0,
        Some(EnvClass::Los) => 1,
        Some(EnvClass::PartialLos) => 2,
        Some(EnvClass::NonLos) => 3,
    }
}

/// Writes one location estimate.
pub fn put_estimate(out: &mut impl Sink, e: &LocationEstimate) {
    put_f64(out, e.position.x);
    put_f64(out, e.position.y);
    match e.mirror {
        Some(m) => {
            out.put(&[1]);
            put_f64(out, m.x);
            put_f64(out, m.y);
        }
        None => out.put(&[0]),
    }
    put_f64(out, e.confidence);
    put_f64(out, e.exponent);
    put_f64(out, e.gamma_dbm);
    out.put(&[env_byte(e.env)]);
    put_u64(out, e.points_used as u64);
    out.put(&[match e.method {
        FitMethod::FreeJoint => 1,
        FitMethod::Anchored => 2,
        FitMethod::Leg => 3,
        FitMethod::Gradient => 4,
        FitMethod::Particle => 5,
        FitMethod::Fingerprint => 6,
    }]);
    put_f64(out, e.residual_db);
}

fn put_estimate_opt(out: &mut impl Sink, e: &Option<LocationEstimate>) {
    match e {
        Some(e) => {
            out.put(&[1]);
            put_estimate(out, e);
        }
        None => out.put(&[0]),
    }
}

fn put_streaming(out: &mut impl Sink, s: &StreamingState) {
    put_f64s(out, &s.series_t);
    put_f64s(out, &s.series_v);
    put_u64(out, s.restarts as u64);
    put_estimate_opt(out, &s.current);
    put_u64(out, s.refit_stride as u64);
    put_u64(out, s.batches_since_refit as u64);
    out.put(&[env_byte(s.env_current)]);
    match s.env_pending {
        Some((class, votes)) => {
            out.put(&[env_byte(Some(class))]);
            put_u64(out, votes as u64);
        }
        None => out.put(&[0]),
    }
}

fn put_motion(out: &mut impl Sink, m: &MotionTrack) {
    let points = m.trajectory.points();
    put_u32(out, points.len() as u32);
    for p in points {
        put_f64(out, p.t);
        put_f64(out, p.pos.x);
        put_f64(out, p.pos.y);
    }
    put_f64s(out, &m.steps.step_times);
    put_f64(out, m.steps.frequency_hz);
    put_f64(out, m.steps.step_length_m);
    put_f64(out, m.steps.distance_m);
    put_u32(out, m.turns.len() as u32);
    for t in &m.turns {
        put_f64(out, t.t_start);
        put_f64(out, t.t_end);
        put_f64(out, t.angle);
        put_f64(out, t.gyro_angle);
    }
}

fn put_stats(out: &mut impl Sink, s: &EngineStats) {
    for v in [
        s.samples_routed,
        s.samples_rejected,
        s.samples_processed,
        s.sessions_created,
        s.sessions_evicted,
        s.sessions_live as u64,
        s.batches_pushed,
        s.batches_rejected,
        s.processes,
    ] {
        put_u64(out, v);
    }
}

/// Serializes a complete [`EngineState`].
pub(crate) fn put_engine_state(out: &mut impl Sink, state: &EngineState) {
    put_u32(out, state.shards as u32);
    put_f64(out, state.watermark);
    put_stats(out, &state.stats);
    put_motion(out, &state.motion);
    put_u32(out, state.sessions.len() as u32);
    for s in &state.sessions {
        put_u32(out, s.beacon.0);
        put_u64(out, s.shard as u64);
        put_f64(out, s.last_t);
        put_f64(out, s.created_t);
        put_u64(out, s.samples_routed);
        match &s.session {
            Some(b) => {
                // The session flag, then the estimator tag: always 1,
                // the streaming estimator.
                out.put(&[1, 1]);
                put_streaming(out, &b.estimator);
                put_f64s(out, &b.batch_t);
                put_f64s(out, &b.batch_v);
                put_f64(out, b.batch_start);
                put_u64(out, b.samples);
                put_u64(out, b.batches);
            }
            None => out.put(&[0]),
        }
    }
    put_u32(out, state.queued.len() as u32);
    for queue in &state.queued {
        put_u32(out, queue.len() as u32);
        for a in queue {
            put_advert(out, a);
        }
    }
}

/// Bounds-checked reader over a body. An underrun is
/// [`CodecError::Truncated`] with the caller's context.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, context)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads an option flag: 0 or 1, anything else is malformed.
    #[inline]
    pub fn flag(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed { context }),
        }
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// actually present (`min_item` each), so a corrupt count cannot
    /// drive allocation.
    #[inline]
    pub fn counted(&mut self, min_item: usize, context: &'static str) -> Result<usize, CodecError> {
        let n = self.u32(context)? as usize;
        if n.saturating_mul(min_item) > self.remaining() {
            return Err(CodecError::Malformed { context });
        }
        Ok(n)
    }

    fn f64s(&mut self, context: &'static str) -> Result<Vec<f64>, CodecError> {
        let n = self.counted(8, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64(context)?);
        }
        Ok(out)
    }

    /// Decodes one advert.
    #[inline]
    pub fn advert(&mut self) -> Result<Advert, CodecError> {
        Ok(Advert {
            beacon: BeaconId(self.u32("advert beacon")?),
            t: self.f64("advert t")?,
            rssi_dbm: self.f64("advert rssi")?,
        })
    }

    fn env(&mut self, context: &'static str) -> Result<Option<EnvClass>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(EnvClass::Los)),
            2 => Ok(Some(EnvClass::PartialLos)),
            3 => Ok(Some(EnvClass::NonLos)),
            _ => Err(CodecError::Malformed { context }),
        }
    }

    /// Decodes one location estimate.
    pub fn estimate(&mut self) -> Result<LocationEstimate, CodecError> {
        let x = self.f64("estimate x")?;
        let y = self.f64("estimate y")?;
        let mirror = if self.flag("mirror flag")? {
            Some(Vec2::new(self.f64("mirror x")?, self.f64("mirror y")?))
        } else {
            None
        };
        let confidence = self.f64("confidence")?;
        let exponent = self.f64("exponent")?;
        let gamma_dbm = self.f64("gamma")?;
        let env = self.env("estimate env")?;
        let points_used = self.u64("points_used")? as usize;
        let method = match self.u8("fit method")? {
            1 => FitMethod::FreeJoint,
            2 => FitMethod::Anchored,
            3 => FitMethod::Leg,
            4 => FitMethod::Gradient,
            5 => FitMethod::Particle,
            6 => FitMethod::Fingerprint,
            _ => {
                return Err(CodecError::Malformed {
                    context: "fit method",
                })
            }
        };
        let residual_db = self.f64("residual")?;
        Ok(LocationEstimate {
            position: Vec2::new(x, y),
            mirror,
            confidence,
            exponent,
            gamma_dbm,
            env,
            points_used,
            method,
            residual_db,
        })
    }

    fn streaming(&mut self) -> Result<StreamingState, CodecError> {
        let series_t = self.f64s("series_t")?;
        let series_v = self.f64s("series_v")?;
        if series_t.len() != series_v.len() {
            return Err(CodecError::Malformed {
                context: "series length mismatch",
            });
        }
        let restarts = self.u64("restarts")? as usize;
        let current = if self.flag("estimate flag")? {
            Some(self.estimate()?)
        } else {
            None
        };
        let refit_stride = self.u64("refit_stride")? as usize;
        let batches_since_refit = self.u64("batches_since_refit")? as usize;
        let env_current = self.env("env_current")?;
        let env_pending = match self.env("env_pending")? {
            Some(class) => Some((class, self.u64("pending votes")? as usize)),
            None => None,
        };
        Ok(StreamingState {
            series_t,
            series_v,
            restarts,
            current,
            refit_stride,
            batches_since_refit,
            env_current,
            env_pending,
        })
    }

    fn motion(&mut self) -> Result<MotionTrack, CodecError> {
        let n_points = self.counted(24, "trajectory points")?;
        let mut points = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            let t = self.f64("point t")?;
            let x = self.f64("point x")?;
            let y = self.f64("point y")?;
            points.push(TimedPoint {
                t,
                pos: Vec2::new(x, y),
            });
        }
        let step_times = self.f64s("step_times")?;
        let frequency_hz = self.f64("frequency_hz")?;
        let step_length_m = self.f64("step_length_m")?;
        let distance_m = self.f64("distance_m")?;
        let n_turns = self.counted(32, "turns")?;
        let mut turns = Vec::with_capacity(n_turns);
        for _ in 0..n_turns {
            turns.push(DetectedTurn {
                t_start: self.f64("turn t_start")?,
                t_end: self.f64("turn t_end")?,
                angle: self.f64("turn angle")?,
                gyro_angle: self.f64("turn gyro_angle")?,
            });
        }
        Ok(MotionTrack {
            trajectory: Trajectory::from_points(points),
            steps: StepResult {
                step_times,
                frequency_hz,
                step_length_m,
                distance_m,
            },
            turns,
        })
    }

    fn stats(&mut self) -> Result<EngineStats, CodecError> {
        Ok(EngineStats {
            samples_routed: self.u64("samples_routed")?,
            samples_rejected: self.u64("samples_rejected")?,
            samples_processed: self.u64("samples_processed")?,
            sessions_created: self.u64("sessions_created")?,
            sessions_evicted: self.u64("sessions_evicted")?,
            sessions_live: self.u64("sessions_live")? as usize,
            batches_pushed: self.u64("batches_pushed")?,
            batches_rejected: self.u64("batches_rejected")?,
            processes: self.u64("processes")?,
        })
    }

    /// Decodes a complete [`EngineState`]; rejects trailing bytes.
    pub(crate) fn engine_state(&mut self) -> Result<EngineState, CodecError> {
        let shards = self.u32("shards")? as usize;
        let watermark = self.f64("watermark")?;
        let stats = self.stats()?;
        let motion = self.motion()?;
        let n_sessions = self.counted(29, "sessions")?;
        let mut sessions = Vec::with_capacity(n_sessions);
        for _ in 0..n_sessions {
            let beacon = BeaconId(self.u32("session beacon")?);
            let shard = self.u64("session shard")? as usize;
            let last_t = self.f64("session last_t")?;
            let created_t = self.f64("session created_t")?;
            let samples_routed = self.u64("session samples_routed")?;
            let session = if self.flag("session flag")? {
                // Older builds tagged particle (2) and fingerprint
                // (3) sessions too; only streaming ones restore.
                if self.u8("backend tag")? != 1 {
                    return Err(CodecError::Malformed {
                        context: "backend tag",
                    });
                }
                let estimator = self.streaming()?;
                let batch_t = self.f64s("batch_t")?;
                let batch_v = self.f64s("batch_v")?;
                if batch_t.len() != batch_v.len() {
                    return Err(CodecError::Malformed {
                        context: "batch length mismatch",
                    });
                }
                Some(BeaconSessionState {
                    estimator,
                    batch_t,
                    batch_v,
                    batch_start: self.f64("batch_start")?,
                    samples: self.u64("session samples")?,
                    batches: self.u64("session batches")?,
                })
            } else {
                None
            };
            sessions.push(SessionState {
                beacon,
                shard,
                last_t,
                created_t,
                samples_routed,
                session,
            });
        }
        let n_queues = self.counted(4, "shard queues")?;
        if n_queues != shards {
            return Err(CodecError::Malformed {
                context: "queue count does not match shard count",
            });
        }
        let mut queued = Vec::with_capacity(n_queues);
        for _ in 0..n_queues {
            let n = self.counted(ADVERT_LEN, "queued adverts")?;
            let mut q = Vec::with_capacity(n);
            for _ in 0..n {
                q.push(self.advert()?);
            }
            queued.push(q);
        }
        if self.remaining() != 0 {
            return Err(CodecError::Malformed {
                context: "trailing bytes after engine state",
            });
        }
        Ok(EngineState {
            shards,
            watermark,
            stats,
            motion,
            sessions,
            queued,
        })
    }
}
