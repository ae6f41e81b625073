//! Engine snapshots: the full [`EngineState`] plus the WAL position it
//! was taken at, in one CRC-guarded, atomically-replaced file.
//!
//! File layout (integers big-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "LBSN"
//! 4       1     format version (currently 1)
//! 5       4     body length N (u32)
//! 9       N     body: wal_records u64, then the EngineState codec
//! 9+N     4     CRC-32 of the body
//! ```
//!
//! `wal_records` is the number of WAL records already *folded into*
//! this state. Recovery replays only records after that position —
//! position-based skipping is what makes replay idempotent even though
//! duplicate adverts (equal timestamps are legal) would be re-admitted
//! by the engine itself.
//!
//! [`write_snapshot`] streams the image into a `.tmp` sibling: a
//! placeholder header, then the body through a buffered writer with a
//! running CRC, then the CRC, then the real length patched into the
//! header. The file is fsynced and renamed over the
//! live one, so a crash mid-checkpoint leaves the previous snapshot
//! untouched (and a stale `.tmp`, which nothing reads and the next
//! write truncates). No copy of the image is held in memory; the file
//! is byte-identical to [`encode_snapshot`]'s image. A missing file
//! reads as "no snapshot"; a damaged one is an error (the caller
//! decides whether to fall back to WAL-only recovery or surface it).

use crate::codec::{put_u64, CodecError, Reader, Sink};
use crate::crc32::{crc32, Crc32};
use locble_engine::EngineState;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"LBSN";
const VERSION: u8 = 1;

/// Why a snapshot file could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with the `LBSN` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    BadVersion(u8),
    /// The file is shorter than its header claims.
    Truncated,
    /// The body CRC does not match — the file is damaged.
    CrcMismatch,
    /// The body CRC matched but the state did not decode.
    Codec(CodecError),
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotError::BadVersion(v) => write!(f, "snapshot: unsupported version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot: file shorter than header claims"),
            SnapshotError::CrcMismatch => write!(f, "snapshot: body CRC mismatch"),
            SnapshotError::Codec(e) => write!(f, "snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// A decoded snapshot: the engine state and the WAL position it covers.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// WAL records already folded into `state`.
    pub wal_records: u64,
    /// The engine state at that position.
    pub state: EngineState,
}

/// Bytes before the body: magic, version, body length.
const HEADER_LEN: usize = 9;

/// The header for a body of `body_len` bytes.
fn header(body_len: u32) -> [u8; HEADER_LEN] {
    let mut out = [0; HEADER_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5..].copy_from_slice(&body_len.to_be_bytes());
    out
}

/// The body: the WAL position, then the engine state.
fn put_body(out: &mut impl Sink, wal_records: u64, state: &EngineState) {
    put_u64(out, wal_records);
    crate::codec::put_engine_state(out, state);
}

/// Serializes a snapshot to its file image, encoding the body in place
/// after a placeholder header.
pub fn encode_snapshot(wal_records: u64, state: &EngineState) -> Vec<u8> {
    let mut out = header(0).to_vec();
    put_body(&mut out, wal_records, state);
    let len = out.len() - HEADER_LEN;
    out[5..HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    let crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Decodes a snapshot file image.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < 9 {
        return Err(
            if bytes.get(..bytes.len().min(4)) == Some(&MAGIC[..bytes.len().min(4)]) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            },
        );
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(SnapshotError::BadVersion(bytes[4]));
    }
    let body_len = u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
    let Some(body) = bytes.get(9..9 + body_len) else {
        return Err(SnapshotError::Truncated);
    };
    let Some(crc_bytes) = bytes.get(9 + body_len..9 + body_len + 4) else {
        return Err(SnapshotError::Truncated);
    };
    let crc = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != crc {
        return Err(SnapshotError::CrcMismatch);
    }
    let mut reader = Reader::new(body);
    let wal_records = reader.u64("snapshot wal position")?;
    let state = reader.engine_state()?;
    Ok(Snapshot { wal_records, state })
}

/// A snapshot body streamed to a file through a `BufWriter`, with a
/// running CRC and length. The first write error is kept and every
/// later write skipped.
struct BodyWriter {
    out: BufWriter<File>,
    crc: Crc32,
    len: u64,
    error: Option<std::io::Error>,
}

impl Sink for BodyWriter {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

/// Writes a snapshot atomically: the image is streamed into a `.tmp`
/// sibling of `path` (placeholder header, body through a buffered
/// writer with a running CRC, CRC trailer, then the real length patched
/// into the header), which is fsynced and renamed over `path`. The file
/// is byte-identical to [`encode_snapshot`]'s image, but no image is
/// held in memory. A stale `.tmp` is overwritten. Returns the file
/// size in bytes.
pub fn write_snapshot(path: &Path, wal_records: u64, state: &EngineState) -> std::io::Result<u64> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&header(0))?;
    let mut body = BodyWriter {
        out: BufWriter::with_capacity(64 * 1024, file),
        crc: Crc32::new(),
        len: 0,
        error: None,
    };
    put_body(&mut body, wal_records, state);
    if let Some(e) = body.error {
        return Err(e);
    }
    let body_len = u32::try_from(body.len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "snapshot body exceeds the format's u32 length field",
        )
    })?;
    let mut file = body.out.into_inner().map_err(|e| e.into_error())?;
    file.write_all(&body.crc.finish().to_be_bytes())?;
    file.seek(SeekFrom::Start(5))?;
    file.write_all(&body_len.to_be_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(HEADER_LEN as u64 + body.len + 4)
}

/// Reads the snapshot at `path`. A missing file is `Ok(None)`.
pub fn read_snapshot(path: &Path) -> Result<Option<Snapshot>, SnapshotError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    decode_snapshot(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_ble::BeaconId;
    use locble_core::{FitMethod, LocationEstimate, StreamingState};
    use locble_engine::{BeaconSessionState, SessionState};
    use locble_geom::{EnvClass, Trajectory, Vec2};
    use locble_motion::{MotionTrack, StepResult};

    fn empty_state(shards: usize) -> EngineState {
        EngineState {
            shards,
            watermark: 12.5,
            stats: Default::default(),
            motion: MotionTrack {
                trajectory: Trajectory::new(),
                steps: StepResult {
                    step_times: Vec::new(),
                    frequency_hz: 0.0,
                    step_length_m: 0.0,
                    distance_m: 0.0,
                },
                turns: Vec::new(),
            },
            sessions: Vec::new(),
            queued: vec![Vec::new(); shards],
        }
    }

    /// Two shards, one streaming session with a current estimate and
    /// an open one-sample batch.
    fn one_session_state() -> EngineState {
        let mut state = empty_state(2);
        state.watermark = 3.25;
        state.sessions.push(SessionState {
            beacon: BeaconId(7),
            shard: 1,
            last_t: 3.25,
            created_t: 0.5,
            samples_routed: 4,
            session: Some(BeaconSessionState {
                estimator: StreamingState {
                    series_t: vec![0.5, 1.0],
                    series_v: vec![-60.0, -61.5],
                    restarts: 0,
                    current: Some(LocationEstimate {
                        position: Vec2::new(1.5, -2.0),
                        mirror: None,
                        confidence: 0.75,
                        exponent: 2.0,
                        gamma_dbm: -59.0,
                        env: Some(EnvClass::Los),
                        points_used: 2,
                        method: FitMethod::FreeJoint,
                        residual_db: 0.5,
                    }),
                    refit_stride: 1,
                    batches_since_refit: 0,
                    env_current: Some(EnvClass::Los),
                    env_pending: None,
                },
                batch_t: vec![3.25],
                batch_v: vec![-62.0],
                batch_start: 3.25,
                samples: 3,
                batches: 1,
            }),
        });
        state
    }

    /// `encode_snapshot(11, &one_session_state())` as format version 1
    /// has always written it, hex-encoded.
    const ONE_SESSION_IMAGE: [&str; 12] = [
        "4c42534e0100000164000000000000000b00000002400a000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000001000000070000000000000001400a0000000000",
        "003fe000000000000000000000000000040101000000023fe00000000000003f",
        "f000000000000000000002c04e000000000000c04ec000000000000000000000",
        "000000013ff8000000000000c000000000000000003fe8000000000000400000",
        "0000000000c04d800000000000010000000000000002013fe000000000000000",
        "000000000000010000000000000000010000000001400a000000000000000000",
        "01c04f000000000000400a000000000000000000000000000300000000000000",
        "0100000002000000000000000049f2c765",
    ];

    /// Offset of the first session's estimator tag in that image:
    /// header 9, WAL position 8, shards 4, watermark 8, stats 72, empty
    /// motion 36, session count 4, session fields 36, session flag 1.
    const SESSION_TAG_OFFSET: usize = 178;

    fn unhex(lines: &[&str]) -> Vec<u8> {
        let hex: String = lines.concat();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn roundtrip_empty_state() {
        let image = encode_snapshot(42, &empty_state(4));
        let snap = decode_snapshot(&image).expect("decode");
        assert_eq!(snap.wal_records, 42);
        assert_eq!(snap.state.shards, 4);
        assert_eq!(snap.state.watermark.to_bits(), 12.5f64.to_bits());
    }

    /// The in-place encoder and the streamed writer keep the format:
    /// the image equals one assembled field by field from a separately
    /// encoded body.
    #[test]
    fn image_layout_is_unchanged() {
        let state = empty_state(3);
        let mut body = Vec::new();
        put_u64(&mut body, 11);
        crate::codec::put_engine_state(&mut body, &state);
        let mut want = b"LBSN\x01".to_vec();
        want.extend_from_slice(&(body.len() as u32).to_be_bytes());
        want.extend_from_slice(&body);
        want.extend_from_slice(&crc32(&body).to_be_bytes());
        assert_eq!(encode_snapshot(11, &state), want);

        let path =
            std::env::temp_dir().join(format!("locble-snap-layout-{}.bin", std::process::id()));
        let bytes = write_snapshot(&path, 11, &state).expect("write");
        assert_eq!(bytes, want.len() as u64);
        assert_eq!(std::fs::read(&path).expect("read"), want);
        let _ = std::fs::remove_file(&path);

        // A session's layout is pinned byte for byte, estimator tag 1
        // included, so every snapshot written so far still recovers.
        let image = encode_snapshot(11, &one_session_state());
        assert_eq!(image, unhex(&ONE_SESSION_IMAGE));
        assert_eq!(image[SESSION_TAG_OFFSET], 1);
        let snap = decode_snapshot(&image).expect("decode");
        assert_eq!(
            snap.state.sessions[0].session,
            one_session_state().sessions[0].session
        );

        // Tags 2 and 3 (particle and fingerprint sessions, which older
        // builds also wrote) are refused, even under a valid CRC.
        for tag in [2, 3] {
            let mut bad = image.clone();
            bad[SESSION_TAG_OFFSET] = tag;
            let crc_at = bad.len() - 4;
            let crc = crc32(&bad[HEADER_LEN..crc_at]);
            bad[crc_at..].copy_from_slice(&crc.to_be_bytes());
            assert!(
                matches!(
                    decode_snapshot(&bad),
                    Err(SnapshotError::Codec(CodecError::Malformed {
                        context: "backend tag"
                    }))
                ),
                "tag {tag} must not decode"
            );
        }
    }

    #[test]
    fn damage_is_detected() {
        let image = encode_snapshot(7, &empty_state(2));
        // Magic.
        let mut bad = image.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Version.
        let mut bad = image.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::BadVersion(99))
        ));
        // Truncation at every prefix shorter than the full image.
        for cut in 0..image.len() {
            let r = decode_snapshot(&image[..cut]);
            assert!(r.is_err(), "truncation at {cut} must not decode");
        }
        // Body corruption.
        let mut bad = image.clone();
        bad[15] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::CrcMismatch)
        ));
    }

    #[test]
    fn atomic_write_and_missing_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("locble-snap-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(read_snapshot(&path).expect("missing is None").is_none());
        let bytes = write_snapshot(&path, 3, &empty_state(1)).expect("write");
        assert!(bytes > 0);
        let snap = read_snapshot(&path).expect("read").expect("present");
        assert_eq!(snap.wal_records, 3);
        // Overwrite is atomic (tmp sibling must not survive).
        write_snapshot(&path, 9, &empty_state(1)).expect("rewrite");
        assert!(!path.with_extension("tmp").exists());
        let snap = read_snapshot(&path).expect("read").expect("present");
        assert_eq!(snap.wal_records, 9);
        let _ = std::fs::remove_file(&path);
    }
}
