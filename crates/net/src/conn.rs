//! Per-connection state machines for the reactor server.
//!
//! Three pieces, each independently testable:
//!
//! * [`FrameAssembler`] — carries partial frames across readiness
//!   events. Bytes go in at any split the transport produces; complete
//!   frames come out in order, with the same
//!   recoverable-vs-framing-lost distinction the blocking read loop
//!   drew: a framed-but-malformed payload is skipped and reported
//!   ([`Assembled::Skipped`]), an unusable length prefix is fatal
//!   (`Err`). The property suite proves any byte-boundary split decodes
//!   to the identical frame list as one contiguous feed.
//! * `Conn` — one nonblocking connection: the assembler plus a
//!   buffered write half. Replies queue into a write buffer that is
//!   flushed opportunistically and on write readiness; a peer that
//!   stops reading its acks fills the buffer until the reactor pauses
//!   reading from it (backpressure), never blocking the event loop.
//! * `TimerWheel` — hashed-wheel deadlines for the slow-loris
//!   defence: a connection holding a *partial* frame arms a deadline
//!   that is re-armed on every byte of progress and disarmed when the
//!   buffer empties, so idle connections still wait forever.

use crate::wire::{decode_frame_with_limit, frame_size, DecodeError, Frame, DEFAULT_MAX_FRAME_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One unit of progress out of a [`FrameAssembler`].
#[derive(Debug)]
pub enum Assembled {
    /// A complete frame decoded.
    Frame(Frame),
    /// A framed-but-malformed payload (trusted length prefix, broken
    /// body): the bytes were skipped and the connection stays usable.
    Skipped(DecodeError),
}

/// Incremental frame decoder: feed bytes as they arrive, pull frames as
/// they complete. Wraps the wire module's total decoder, so no input —
/// however split or corrupted — can panic it.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
    max_frame_len: usize,
}

impl FrameAssembler {
    /// An empty assembler accepting payloads up to `max_frame_len`.
    pub fn new(max_frame_len: usize) -> FrameAssembler {
        FrameAssembler {
            buf: Vec::new(),
            pos: 0,
            max_frame_len,
        }
    }

    /// Appends bytes read off the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            // Compact before growing: consumed frames never accumulate.
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame. Non-zero
    /// after [`FrameAssembler::next_frame`] returns `Ok(None)` means a partial
    /// frame is pending — the slow-loris timer's arming condition.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// * `Ok(Some(_))` — progress: a frame, or a skipped malformed one.
    /// * `Ok(None)` — need more bytes (call [`FrameAssembler::feed`]).
    /// * `Err(_)` — the length prefix itself is unusable (oversized):
    ///   framing is lost and the connection must close. The buffer is
    ///   left untouched; further calls repeat the error.
    pub fn next_frame(&mut self) -> Result<Option<Assembled>, DecodeError> {
        let pending = &self.buf[self.pos..];
        let total = match frame_size(pending, self.max_frame_len) {
            Err(DecodeError::Incomplete { .. }) => return Ok(None),
            Err(e) => return Err(e),
            Ok(total) => total,
        };
        if pending.len() < total {
            return Ok(None);
        }
        let result = match decode_frame_with_limit(&pending[..total], self.max_frame_len) {
            Ok((frame, _)) => Assembled::Frame(frame),
            // Recoverable by construction: frame_size accepted the
            // prefix, so exactly `total` bytes are skippable.
            Err(e) => Assembled::Skipped(e),
        };
        self.pos += total;
        Ok(Some(result))
    }
}

/// How far a [`Conn::flush`] got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// The write buffer is empty.
    Drained,
    /// The socket would block with bytes still queued; write readiness
    /// will resume the flush.
    Pending,
}

/// Reply bytes queued per connection before the reactor pauses reading
/// from it (a peer that never reads its acks must not grow the buffer
/// unboundedly).
pub const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;

/// One nonblocking connection: read-side assembler + buffered write
/// half + the reactor's per-connection bookkeeping.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) assembler: FrameAssembler,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The peer closed its write half; close once buffered work is done.
    pub(crate) peer_eof: bool,
    /// Close as soon as the write buffer drains (framing lost, or
    /// graceful shutdown).
    pub(crate) close_after_flush: bool,
    /// Reading is paused until the write buffer drains (backpressure
    /// from a peer that does not read its acks).
    pub(crate) paused: bool,
    /// Bumped on every timer arm/disarm; stale wheel entries carry an
    /// old generation and are ignored when they fire.
    pub(crate) timer_gen: u64,
    /// The live slow-loris deadline, if a partial frame is pending.
    pub(crate) deadline: Option<Instant>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(DEFAULT_MAX_FRAME_LEN),
            wbuf: Vec::new(),
            wpos: 0,
            peer_eof: false,
            close_after_flush: false,
            paused: false,
            timer_gen: 0,
            deadline: None,
        }
    }

    /// Reads until the socket would block (bounded per event for
    /// fairness; level-triggered epoll re-notifies), feeding the
    /// assembler. Returns bytes read; EOF sets [`Conn::peer_eof`]. An
    /// `Err` is a transport failure — close the connection.
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8]) -> std::io::Result<usize> {
        let mut total = 0;
        for _ in 0..8 {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.assembler.feed(&scratch[..n]);
                    total += n;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Queues reply bytes for writing.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Reply bytes queued and not yet accepted by the socket.
    pub(crate) fn write_backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes queued bytes until the socket blocks or the buffer drains.
    pub(crate) fn flush(&mut self) -> std::io::Result<Flush> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            return Ok(Flush::Drained);
        }
        if self.wpos > 64 * 1024 {
            self.wbuf.copy_within(self.wpos.., 0);
            self.wbuf.truncate(self.wbuf.len() - self.wpos);
            self.wpos = 0;
        }
        Ok(Flush::Pending)
    }
}

/// Hashed timer wheel: O(1) arm, O(slots touched) advance. Slots are
/// coarse on purpose — entries past the horizon clamp to the last slot
/// and deadlines are validated against the connection's own state when
/// they fire, so coarseness only delays a fire, never loses one.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    granularity: Duration,
    cursor: usize,
    /// The instant slot `cursor` began.
    epoch: Instant,
}

impl TimerWheel {
    pub(crate) fn new(granularity: Duration, slots: usize, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            cursor: 0,
            epoch: now,
        }
    }

    /// Schedules `(conn, gen)` to fire at `deadline` (clamped into the
    /// wheel's horizon; the reactor re-arms early fires).
    pub(crate) fn arm(&mut self, conn: usize, gen: u64, deadline: Instant) {
        let n = self.slots.len();
        let ahead = deadline
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .checked_div(self.granularity.as_nanos())
            .unwrap_or(0) as usize;
        let idx = (self.cursor + ahead.clamp(1, n - 1)) % n;
        self.slots[idx].push((conn, gen));
    }

    /// Advances the wheel to `now`, returning every entry whose slot
    /// elapsed. The caller validates each against the connection's live
    /// deadline/generation (stale or early entries are re-armed or
    /// dropped there).
    pub(crate) fn advance(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let mut fired = Vec::new();
        while now.saturating_duration_since(self.epoch) >= self.granularity {
            fired.append(&mut self.slots[self.cursor]);
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.epoch += self.granularity;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let frames = vec![Frame::QueryStats, Frame::QueryBeacon(9), Frame::Finish];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut asm = FrameAssembler::new(1024);
        let mut out = Vec::new();
        for b in bytes {
            asm.feed(&[b]);
            while let Some(a) = asm.next_frame().expect("framing intact") {
                match a {
                    Assembled::Frame(f) => out.push(f),
                    Assembled::Skipped(e) => panic!("unexpected skip: {e}"),
                }
            }
        }
        assert_eq!(out, frames);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_skips_malformed_and_recovers() {
        let mut asm = FrameAssembler::new(1024);
        // Unknown tag (recoverable), then a valid frame.
        asm.feed(&[0, 0, 0, 2, crate::wire::WIRE_VERSION, 200]);
        asm.feed(&encode_frame(&Frame::Finish));
        match asm.next_frame().expect("recoverable") {
            Some(Assembled::Skipped(DecodeError::BadTag { got: 200 })) => {}
            other => panic!("expected skipped bad tag, got {other:?}"),
        }
        match asm.next_frame().expect("frame after skip") {
            Some(Assembled::Frame(Frame::Finish)) => {}
            other => panic!("expected Finish, got {other:?}"),
        }
    }

    #[test]
    fn assembler_loses_framing_on_oversized_prefix() {
        let mut asm = FrameAssembler::new(64);
        asm.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(
            asm.next_frame(),
            Err(DecodeError::Oversized { .. })
        ));
        // The error is sticky: framing cannot be recovered.
        assert!(matches!(
            asm.next_frame(),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn wheel_fires_after_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 16, t0);
        wheel.arm(3, 1, t0 + Duration::from_millis(45));
        assert!(wheel.advance(t0 + Duration::from_millis(30)).is_empty());
        let fired = wheel.advance(t0 + Duration::from_millis(60));
        assert_eq!(fired, vec![(3, 1)]);
    }

    #[test]
    fn wheel_clamps_past_horizon_rather_than_dropping() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, t0);
        wheel.arm(1, 7, t0 + Duration::from_secs(3600));
        // Fires within one horizon; the reactor's validation re-arms it.
        let fired = wheel.advance(t0 + Duration::from_millis(100));
        assert_eq!(fired, vec![(1, 7)]);
    }
}
