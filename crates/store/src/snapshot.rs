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
//! Writes go to a `.tmp` sibling, are fsynced, then renamed over the
//! live file, so a crash mid-checkpoint leaves the previous snapshot
//! untouched. A missing file reads as "no snapshot"; a damaged one is
//! an error (the caller decides whether to fall back to WAL-only
//! recovery or surface it).

use crate::codec::{put_u64, CodecError, Reader};
use crate::crc32::crc32;
use locble_engine::EngineState;
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

/// Serializes a snapshot to its file image.
pub fn encode_snapshot(wal_records: u64, state: &EngineState) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, wal_records);
    crate::codec::put_engine_state(&mut body, state);
    let mut out = Vec::with_capacity(body.len() + 13);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_be_bytes());
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

/// Writes a snapshot atomically with [`locble_obs::atomic_write`]
/// (tmp file, fsync, rename over `path`). Returns the file size in
/// bytes.
pub fn write_snapshot(path: &Path, wal_records: u64, state: &EngineState) -> std::io::Result<u64> {
    let image = encode_snapshot(wal_records, state);
    locble_obs::atomic_write(path, &image)?;
    Ok(image.len() as u64)
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
    use locble_geom::Trajectory;
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

    #[test]
    fn roundtrip_empty_state() {
        let image = encode_snapshot(42, &empty_state(4));
        let snap = decode_snapshot(&image).expect("decode");
        assert_eq!(snap.wal_records, 42);
        assert_eq!(snap.state.shards, 4);
        assert_eq!(snap.state.watermark.to_bits(), 12.5f64.to_bits());
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
