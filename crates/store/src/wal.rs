//! The write-ahead log: every advert *offered* to the engine, in offer
//! order, one CRC-guarded record each.
//!
//! Record layout (integers big-endian; the advert body is the advert
//! layout of [`crate::codec`], the codec the wire frames use too):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (u32) — bytes after the CRC word
//! 4       4     CRC-32 of the payload
//! 8       1     record tag (1 = advert)
//! 9       N-1   tag-specific body (advert: beacon u32, t u64, rssi u64)
//! ```
//!
//! Logging *offered* (pre-validation) adverts is what makes replay
//! exact: the recovered engine re-runs every admit/reject decision
//! through the normal ingest path, so rejection counters — not just
//! estimates — reconcile bit-for-bit with an uninterrupted run.
//!
//! **Torn-tail rule:** a crash can leave a final record with a short
//! header, a short payload, or a CRC mismatch. Readers stop at the
//! first such record and report `torn_tail = true`; everything before
//! it is intact (each record is self-delimiting). Opening the log for
//! append truncates the torn bytes so the next record starts clean —
//! the torn record was never acknowledged as durable, so dropping it
//! loses nothing a correct client hasn't already retried.
//!
//! **One reader:** every read of the log — [`Wal::open`] counting what
//! it appends after, [`WalTailer`] streaming it to a follower, and
//! recovery replaying it ([`SessionStore::recover`](crate::SessionStore::recover))
//! — goes through one record scanner that streams the file through a
//! buffered reader once, so no reader holds more than one buffer of it.

use crate::codec::{put_advert, Reader, ADVERT_LEN};
use crate::crc32::crc32;
use locble_engine::Advert;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Record tag: one advert.
const TAG_ADVERT: u8 = 1;

/// Bytes of an encoded advert payload (tag + beacon + t + rssi).
const ADVERT_PAYLOAD_LEN: usize = 1 + ADVERT_LEN;

/// Per-record framing overhead (length prefix + CRC word).
const RECORD_HEADER_LEN: usize = 8;

/// On-disk size of one advert record, header included.
pub const ADVERT_RECORD_LEN: usize = RECORD_HEADER_LEN + ADVERT_PAYLOAD_LEN;

/// Largest payload a reader will accept — a defence against interpreting
/// garbage as a multi-gigabyte record, sized generously above any
/// payload this module writes.
const MAX_PAYLOAD_LEN: usize = 1 << 16;

/// Read buffer of one scan: a full replication chunk of records takes
/// two reads, and a whole-log scan holds no more than this of the file.
const SCAN_BUF_LEN: usize = 64 * 1024;

/// When the log file is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (the OS flushes on its own schedule). Fastest;
    /// recent records may be lost on power failure, though not on a
    /// process crash.
    Never,
    /// fsync after every append call — full durability, highest cost.
    EveryAppend,
}

/// What a scan of the log found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReadReport {
    /// Intact records decoded.
    pub records: u64,
    /// Bytes of intact records: the end of the last record handed out,
    /// which is where a torn tail starts.
    pub intact_bytes: u64,
    /// `true` when trailing bytes did not form a complete, CRC-valid
    /// record (tolerated: the tail is ignored).
    pub torn_tail: bool,
}

/// The log's one record decoder. Reads records from `input` in order
/// and hands each intact advert to `emit`, stopping after `max`
/// records, at the end of the input, or at the first record that is
/// torn or undecodable (which sets `torn_tail`). The input is read
/// through a buffer of [`SCAN_BUF_LEN`] bytes, so a scan reads each
/// byte once and holds at most one buffer of the log; the report's
/// `intact_bytes` counts records handed out, never bytes read ahead.
pub(crate) fn scan<R: Read>(
    input: R,
    max: u64,
    mut emit: impl FnMut(Advert),
) -> std::io::Result<WalReadReport> {
    let mut input = BufReader::with_capacity(SCAN_BUF_LEN, input);
    let mut report = WalReadReport::default();
    let mut payload = Vec::new();
    while report.records < max && !input.fill_buf()?.is_empty() {
        let Some(advert) = read_record(&mut input, &mut payload)? else {
            report.torn_tail = true;
            break;
        };
        emit(advert);
        report.records += 1;
        report.intact_bytes += (RECORD_HEADER_LEN + payload.len()) as u64;
    }
    Ok(report)
}

/// Reads one record, leaving its payload in `payload`. `Ok(None)` when
/// the record is torn or undecodable; an error is the input's own.
fn read_record(input: &mut impl Read, payload: &mut Vec<u8>) -> std::io::Result<Option<Advert>> {
    let mut header = [0u8; RECORD_HEADER_LEN];
    if !read_whole(input, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len == 0 || len > MAX_PAYLOAD_LEN {
        // A zero or absurd length prefix is corruption, not a record;
        // treat everything from here as the torn tail.
        return Ok(None);
    }
    payload.resize(len, 0);
    if !read_whole(input, payload)? || crc32(payload) != crc {
        return Ok(None);
    }
    let mut reader = Reader::new(payload);
    // A CRC-valid but undecodable payload was written by a future
    // version or is corrupt in a CRC-colliding way. Either way the
    // record boundary is still trustworthy, but replaying past an
    // unintelligible record would silently skip data — stop here, like
    // a torn tail.
    Ok(match reader.u8("record tag") {
        Ok(TAG_ADVERT) => reader.advert().ok().filter(|_| reader.remaining() == 0),
        _ => None,
    })
}

/// Fills `buf` from `input`; `Ok(false)` when the input ends first.
fn read_whole(input: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    match input.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// [`scan`] over the log file at `path` from byte `offset`. A missing
/// file is an empty log.
pub(crate) fn scan_file(
    path: &Path,
    offset: u64,
    max: u64,
    emit: impl FnMut(Advert),
) -> std::io::Result<WalReadReport> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(WalReadReport::default()),
        Err(e) => return Err(e),
    };
    file.seek(SeekFrom::Start(offset))?;
    scan(file, max, emit)
}

/// An open, appendable WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Encode buffer reused by every append.
    buf: Vec<u8>,
    records: u64,
    policy: FsyncPolicy,
}

impl Wal {
    /// Opens (or creates) the log at `path` for appending. Existing
    /// intact records are counted; a torn tail is truncated away so new
    /// records start on a clean boundary. Returns the WAL and the read
    /// report of the pre-existing content.
    pub fn open(path: &Path, policy: FsyncPolicy) -> std::io::Result<(Wal, WalReadReport)> {
        let report = scan_file(path, 0, u64::MAX, |_| {})?;
        Ok((Wal::resume(path, policy, report)?, report))
    }

    /// Opens (or creates) the log at `path` for appending after the
    /// scan that found `report`, without reading it again: the file is
    /// cut to `report.intact_bytes` and counting goes on from
    /// `report.records`.
    pub(crate) fn resume(
        path: &Path,
        policy: FsyncPolicy,
        report: WalReadReport,
    ) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(report.intact_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            buf: Vec::new(),
            records: report.records,
            policy,
        })
    }

    /// Records appended so far (pre-existing + this process).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record per advert, in slice order, then applies the
    /// fsync policy. Returns the number of records now in the log.
    pub fn append(&mut self, adverts: &[Advert]) -> std::io::Result<u64> {
        if adverts.is_empty() {
            return Ok(self.records);
        }
        // One buffer the log keeps: each record's payload is encoded
        // after a placeholder header, CRC'd in place, then the header
        // is filled in. A warm append does not allocate.
        let buf = &mut self.buf;
        buf.clear();
        for advert in adverts {
            let start = buf.len();
            buf.extend_from_slice(&[0; RECORD_HEADER_LEN]);
            buf.push(TAG_ADVERT);
            put_advert(buf, advert);
            let crc = crc32(&buf[start + RECORD_HEADER_LEN..]);
            buf[start..start + 4].copy_from_slice(&(ADVERT_PAYLOAD_LEN as u32).to_be_bytes());
            buf[start + 4..start + RECORD_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        }
        self.file.write_all(buf)?;
        self.records += adverts.len() as u64;
        if self.policy == FsyncPolicy::EveryAppend {
            self.file.sync_data()?;
        }
        Ok(self.records)
    }

    /// A second handle on the log file, for syncing it from another
    /// thread while appends continue through this one.
    pub fn sync_handle(&self) -> std::io::Result<File> {
        self.file.try_clone()
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// An incremental reader over a live WAL file — the replication source
/// for streaming an owner's log to a follower node.
///
/// A tailer remembers the byte offset of the last *complete* record it
/// emitted and, on each [`WalTailer::poll`], scans only the records
/// appended since, reading at most one scan buffer past the last record
/// it emits. A partial record at the end of the file (an append
/// in flight, or a torn tail after a crash) is left unconsumed: the
/// next poll retries it from the same offset, so a record is emitted
/// exactly once and only when whole and CRC-valid. Corruption below
/// the high-water mark therefore parks the tailer permanently at the
/// damaged record — exactly the torn-tail rule readers already follow.
///
/// The tailer holds no lock and keeps no file handle between polls, so
/// it may trail a [`Wal`] owned by the same process or by another one.
#[derive(Debug)]
pub struct WalTailer {
    path: PathBuf,
    offset: u64,
    records: u64,
}

impl WalTailer {
    /// A tailer positioned at the start of the log at `path` (which may
    /// not exist yet — polls treat a missing file as empty).
    pub fn open(path: &Path) -> WalTailer {
        WalTailer {
            path: path.to_path_buf(),
            offset: 0,
            records: 0,
        }
    }

    /// Complete records emitted (or skipped) so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Byte offset of the next unread record.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Emits up to `max` complete records appended since the last poll.
    /// An empty result means the tailer has caught up (or the tail is
    /// still partial).
    pub fn poll(&mut self, max: usize) -> std::io::Result<Vec<Advert>> {
        let mut out = Vec::new();
        self.advance(max as u64, |advert| out.push(advert))?;
        Ok(out)
    }

    /// Skips the next `n` records without emitting them (positioning a
    /// fresh tailer past what a follower already holds), in one pass
    /// over the file. Skipping stops early at a partial tail; returns
    /// how many records were skipped.
    pub fn skip(&mut self, n: u64) -> std::io::Result<u64> {
        self.advance(n, |_| {})
    }

    /// Scans up to `max` records from the current offset and moves past
    /// them; returns how many there were.
    fn advance(&mut self, max: u64, emit: impl FnMut(Advert)) -> std::io::Result<u64> {
        let report = scan_file(&self.path, self.offset, max, emit)?;
        self.offset += report.intact_bytes;
        self.records += report.records;
        Ok(report.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_ble::BeaconId;

    fn sample_adverts(n: usize) -> Vec<Advert> {
        (0..n)
            .map(|i| Advert {
                beacon: BeaconId((i % 7) as u32),
                t: i as f64 * 0.05,
                rssi_dbm: -60.0 - (i % 13) as f64,
            })
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("locble-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Every record the scanner hands out of `input`, with its report.
    fn scan_all(input: impl Read) -> (Vec<Advert>, WalReadReport) {
        let mut adverts = Vec::new();
        let report = scan(input, u64::MAX, |a| adverts.push(a)).expect("scan");
        (adverts, report)
    }

    fn bits(adverts: &[Advert]) -> Vec<(u32, u64, u64)> {
        adverts
            .iter()
            .map(|a| (a.beacon.0, a.t.to_bits(), a.rssi_dbm.to_bits()))
            .collect()
    }

    #[test]
    fn roundtrip_including_non_finite() {
        let path = temp_path("roundtrip");
        let mut adverts = sample_adverts(25);
        adverts.push(Advert {
            beacon: BeaconId(9),
            t: f64::NAN,
            rssi_dbm: f64::NEG_INFINITY,
        });
        let (mut wal, report) = Wal::open(&path, FsyncPolicy::EveryAppend).expect("open");
        assert_eq!(report.records, 0);
        wal.append(&adverts).expect("append");
        assert_eq!(wal.records(), 26);
        let (read, report) = scan_all(File::open(&path).expect("read"));
        assert!(!report.torn_tail);
        assert_eq!(report.records, 26);
        assert_eq!(bits(&read), bits(&adverts), "WAL must be bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_point_is_tolerated() {
        let adverts = sample_adverts(8);
        let mut image = Vec::new();
        let mut payload = Vec::new();
        for a in &adverts {
            payload.clear();
            payload.push(TAG_ADVERT);
            put_advert(&mut payload, a);
            image.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            image.extend_from_slice(&crc32(&payload).to_be_bytes());
            image.extend_from_slice(&payload);
        }
        let record_len = RECORD_HEADER_LEN + ADVERT_PAYLOAD_LEN;
        for cut in 0..image.len() {
            let (read, report) = scan_all(&image[..cut]);
            let whole = cut / record_len;
            assert_eq!(read.len(), whole, "cut at {cut}");
            assert_eq!(report.records as usize, whole);
            assert_eq!(report.torn_tail, cut % record_len != 0, "cut at {cut}");
            assert_eq!(report.intact_bytes as usize, whole * record_len);
            assert_eq!(bits(&read), bits(&adverts[..whole]));
        }
    }

    #[test]
    fn corrupt_byte_stops_at_the_damaged_record() {
        let adverts = sample_adverts(5);
        let mut image = Vec::new();
        let mut payload = Vec::new();
        for a in &adverts {
            payload.clear();
            payload.push(TAG_ADVERT);
            put_advert(&mut payload, a);
            image.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            image.extend_from_slice(&crc32(&payload).to_be_bytes());
            image.extend_from_slice(&payload);
        }
        let record_len = RECORD_HEADER_LEN + ADVERT_PAYLOAD_LEN;
        // Flip one payload byte in record 3: records 0..3 survive.
        let mut corrupt = image.clone();
        corrupt[3 * record_len + RECORD_HEADER_LEN + 2] ^= 0x40;
        let (read, report) = scan_all(&corrupt[..]);
        assert_eq!(read.len(), 3);
        assert!(report.torn_tail);
        assert_eq!(bits(&read), bits(&adverts[..3]));
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let path = temp_path("truncate");
        let adverts = sample_adverts(6);
        {
            let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            wal.append(&adverts).expect("append");
        }
        // Tear the last record mid-payload.
        let len = std::fs::metadata(&path).expect("meta").len();
        let torn = len - 7;
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(torn).expect("truncate");
        drop(f);
        // Re-open: the torn tail is dropped; appending keeps going.
        let (mut wal, report) = Wal::open(&path, FsyncPolicy::EveryAppend).expect("reopen");
        assert!(report.torn_tail);
        assert_eq!(report.records, 5);
        assert_eq!(wal.records(), 5);
        wal.append(&sample_adverts(2)[..1])
            .expect("append after tear");
        let (read, report) = scan_all(File::open(&path).expect("read"));
        assert!(!report.torn_tail, "tail must be clean after re-append");
        assert_eq!(report.records, 6);
        assert_eq!(bits(&read[..5]), bits(&adverts[..5]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_prefix_is_reported_not_panicked() {
        let (read, report) = scan_all(&[0xFF; 37][..]);
        assert!(read.is_empty());
        assert!(report.torn_tail);
        assert_eq!(report.intact_bytes, 0);
        let (read, report) = scan_all(&[][..]);
        assert!(read.is_empty());
        assert!(!report.torn_tail);
    }

    #[test]
    fn scan_stops_after_max_and_reports_only_what_it_handed_out() {
        let path = temp_path("scan-max");
        let adverts = sample_adverts(10);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        wal.append(&adverts).expect("append");
        let mut read = Vec::new();
        let file = File::open(&path).expect("open for scan");
        let report = scan(file, 4, |a| read.push(a)).expect("scan");
        assert_eq!(bits(&read), bits(&adverts[..4]));
        assert_eq!(report.records, 4);
        assert!(!report.torn_tail, "stopping at max is not a torn tail");
        // The whole file fits the scan buffer, but the offset is the end
        // of the fourth record, not of what the buffer read.
        assert_eq!(report.intact_bytes, 4 * ADVERT_RECORD_LEN as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_emits_each_record_exactly_once_across_appends() {
        let path = temp_path("tailer");
        let adverts = sample_adverts(9);
        let mut tailer = WalTailer::open(&path);
        // Missing file: an empty log, not an error.
        assert!(tailer.poll(16).expect("poll missing").is_empty());
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        wal.append(&adverts[..4]).expect("append");
        let first = tailer.poll(16).expect("poll");
        assert_eq!(bits(&first), bits(&adverts[..4]));
        // Caught up: nothing new, no repeats.
        assert!(tailer.poll(16).expect("poll again").is_empty());
        wal.append(&adverts[4..]).expect("append");
        // A small `max` chunks without losing position.
        let mut rest = Vec::new();
        loop {
            let chunk = tailer.poll(2).expect("poll chunk");
            if chunk.is_empty() {
                break;
            }
            rest.extend(chunk);
        }
        assert_eq!(bits(&rest), bits(&adverts[4..]));
        assert_eq!(tailer.records(), 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_parks_at_a_torn_tail_until_it_heals() {
        let path = temp_path("tailer-torn");
        let adverts = sample_adverts(6);
        {
            let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            wal.append(&adverts).expect("append");
        }
        // Tear the final record mid-payload.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 5).expect("truncate");
        drop(f);
        let mut tailer = WalTailer::open(&path);
        let read = tailer.poll(16).expect("poll");
        assert_eq!(bits(&read), bits(&adverts[..5]));
        // The torn record is not consumed; re-opening for append heals
        // the tail and the tailer resumes from the same offset.
        assert!(tailer.poll(16).expect("poll torn").is_empty());
        let (mut wal, report) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert!(report.torn_tail);
        wal.append(&adverts[5..]).expect("append");
        let healed = tailer.poll(16).expect("poll healed");
        assert_eq!(bits(&healed), bits(&adverts[5..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailer_skip_positions_past_already_replicated_records() {
        let path = temp_path("tailer-skip");
        let adverts = sample_adverts(8);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        wal.append(&adverts).expect("append");
        let mut tailer = WalTailer::open(&path);
        assert_eq!(tailer.skip(5).expect("skip"), 5);
        let rest = tailer.poll(16).expect("poll");
        assert_eq!(bits(&rest), bits(&adverts[5..]));
        // Skipping past the end stops at the high-water mark.
        let mut beyond = WalTailer::open(&path);
        assert_eq!(beyond.skip(100).expect("skip beyond"), 8);
        let _ = std::fs::remove_file(&path);
    }
}
