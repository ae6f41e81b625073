//! The closed-loop load generator: one thread drives every connection
//! through one epoll set, keeping at most [`WINDOW`] requests unacked per
//! connection, and blocks in `epoll_wait` whenever it has nothing to do.
//! It never spins: a spinning generator competes with the server for the
//! two cores and inflates the server's CPU per advert.

use crate::inputs::Lane;
use crate::stats::{machine_ticks, thread_cpu_s};
use locble_net::wire::{Frame, DEFAULT_MAX_FRAME_LEN};
use locble_net::{Assembled, FrameAssembler, Interest, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How far (stream seconds) one connection may run ahead of another.
/// Far below the engine's 60 s idle eviction, so no beacon's session is
/// evicted while its own connection still has adverts for it.
pub const MAX_SKEW_S: f64 = 20.0;

/// A reply that does not arrive within this long fails the run.
const STALL: Duration = Duration::from_secs(60);

/// Requests each connection keeps unacked, on every workload. On
/// trickle a deeper window (16 or 32) queued more requests behind each
/// `Engine::process` stall, so its p99 rested on fewer stalls: over five
/// seeds the ack p99 spread 0.23 at 32 and 0.12 at 16 against 0.07 at 8,
/// and in a stolen-time episode it rose 38% at 32 and not at all at 8.
pub const WINDOW: usize = 8;

/// How often the generator reads the machine's stolen time.
const STEAL_WINDOW: Duration = Duration::from_millis(100);

/// What one drive observed, client side.
#[derive(Debug, Default)]
pub struct DriveOutcome {
    /// Adverts sent in batches.
    pub adverts: u64,
    /// Batches sent.
    pub batches: u64,
    /// Queries sent.
    pub queries: u64,
    /// Adverts the acks report routed.
    pub routed: u64,
    /// Adverts the acks report rejected.
    pub rejected: u64,
    /// Batches answered with anything but a full `IngestAck`.
    pub failed_batches: u64,
    /// Adverts in those batches.
    pub failed_adverts: u64,
    /// Queries answered with anything but a `BeaconReply`.
    pub failed_queries: u64,
    /// Send → ack per batch, µs.
    pub ack_us: Vec<f64>,
    /// Send → reply per query, µs.
    pub query_us: Vec<f64>,
    /// Send time of each `ack_us` sample, seconds since the drive began.
    pub ack_sent_s: Vec<f64>,
    /// Send time of each `query_us` sample, seconds since the drive began.
    pub query_sent_s: Vec<f64>,
    /// `(seconds since the drive began, machine stolen ticks)`, read
    /// about every `STEAL_WINDOW`.
    pub steal_marks: Vec<(f64, u64)>,
    /// Wall time of the drive, seconds.
    pub wall_s: f64,
    /// CPU the generator thread used, seconds.
    pub generator_cpu_s: f64,
}

struct Conn<'a> {
    lane: &'a Lane,
    sock: TcpStream,
    /// Next request to admit.
    next: usize,
    /// Bytes of admitted requests already written.
    written: usize,
    /// Admitted, unanswered requests with their send time.
    inflight: VecDeque<(usize, Instant)>,
    assembler: FrameAssembler,
    interest: Interest,
}

impl Conn<'_> {
    fn done(&self) -> bool {
        self.next == self.lane.requests.len() && self.inflight.is_empty()
    }

    /// Stream time of the next request to admit (`+inf` once all are).
    fn frontier(&self) -> f64 {
        self.lane
            .requests
            .get(self.next)
            .map_or(f64::INFINITY, |r| r.t)
    }

    /// End of the admitted bytes.
    fn admitted_end(&self) -> usize {
        match self.next {
            0 => 0,
            n => self.lane.requests[n - 1].end,
        }
    }
}

/// Replays every lane against `addr`, one connection per lane. Panics on
/// transport failures (a benchmark is not a fault injector); protocol
/// refusals are counted as failures in the outcome.
pub fn drive(addr: SocketAddr, lanes: &[Lane]) -> DriveOutcome {
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let mut poller = Poller::new().expect("generator poller");
    let mut conns: Vec<Conn> = lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            let sock = TcpStream::connect(addr).expect("connect to the server");
            sock.set_nodelay(true).expect("nodelay");
            sock.set_nonblocking(true).expect("nonblocking");
            poller
                .add(sock.as_raw_fd(), i as u64, Interest::READ)
                .expect("register connection");
            Conn {
                lane,
                sock,
                next: 0,
                written: 0,
                inflight: VecDeque::with_capacity(WINDOW),
                assembler: FrameAssembler::new(DEFAULT_MAX_FRAME_LEN),
                interest: Interest::READ,
            }
        })
        .collect();
    let mut out = DriveOutcome {
        ack_us: Vec::with_capacity(lanes.iter().map(Lane::batches).sum()),
        query_us: Vec::with_capacity(lanes.iter().map(Lane::queries).sum()),
        ..DriveOutcome::default()
    };
    let mut events = Vec::with_capacity(lanes.len() * 2);
    let mut scratch = vec![0u8; 256 * 1024];
    let mut last_progress = Instant::now();
    out.steal_marks.push((0.0, machine_ticks().1));
    while conns.iter().any(|c| !c.done()) {
        // Admit and write: each connection fills its window, unless it
        // would run too far ahead of the slowest connection.
        for i in 0..conns.len() {
            let slowest_other = conns
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c.frontier())
                .fold(f64::INFINITY, f64::min);
            let c = &mut conns[i];
            while c.inflight.len() < WINDOW
                && c.next < c.lane.requests.len()
                && c.frontier() <= slowest_other + MAX_SKEW_S
            {
                c.inflight.push_back((c.next, Instant::now()));
                c.next += 1;
            }
            write_pending(c);
            let want = if c.written < c.admitted_end() {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if want != c.interest {
                poller
                    .modify(c.sock.as_raw_fd(), i as u64, want)
                    .expect("update interest");
                c.interest = want;
            }
        }
        poller.wait(&mut events, 100).expect("generator poll");
        let since = t0.elapsed();
        if since.as_secs_f64()
            >= out.steal_marks.last().map_or(0.0, |m| m.0) + STEAL_WINDOW.as_secs_f64()
        {
            out.steal_marks
                .push((since.as_secs_f64(), machine_ticks().1));
        }
        if events.is_empty() {
            assert!(
                last_progress.elapsed() < STALL,
                "no reply for {STALL:?}: the server stalled"
            );
            continue;
        }
        last_progress = Instant::now();
        for ev in &events {
            let c = &mut conns[ev.token as usize];
            if ev.writable {
                write_pending(c);
            }
            if ev.readable || ev.hangup {
                read_replies(c, t0, &mut scratch, &mut out);
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.steal_marks.push((out.wall_s, machine_ticks().1));
    out.generator_cpu_s = thread_cpu_s() - cpu0;
    for c in &conns {
        poller.delete(c.sock.as_raw_fd()).expect("deregister");
    }
    out
}

fn write_pending(c: &mut Conn) {
    let end = c.admitted_end();
    while c.written < end {
        match c.sock.write(&c.lane.bytes[c.written..end]) {
            Ok(0) => panic!("server closed the connection mid-stream"),
            Ok(n) => c.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("write to the server failed: {e}"),
        }
    }
}

fn read_replies(c: &mut Conn, t0: Instant, scratch: &mut [u8], out: &mut DriveOutcome) {
    loop {
        match c.sock.read(scratch) {
            Ok(0) => {
                assert!(c.done(), "server closed with requests unanswered");
                return;
            }
            Ok(n) => c.assembler.feed(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("read from the server failed: {e}"),
        }
    }
    let now = Instant::now();
    loop {
        let frame = match c.assembler.next_frame() {
            Ok(Some(Assembled::Frame(frame))) => frame,
            Ok(Some(Assembled::Skipped(e))) => panic!("malformed reply: {e:?}"),
            Ok(None) => return,
            Err(e) => panic!("reply framing lost: {e:?}"),
        };
        let (idx, sent) = c
            .inflight
            .pop_front()
            .expect("a reply matches an unanswered request");
        let req = c.lane.requests[idx];
        let us = now.duration_since(sent).as_secs_f64() * 1e6;
        let sent_s = sent.duration_since(t0).as_secs_f64();
        if req.is_query() {
            out.queries += 1;
            match frame {
                Frame::BeaconReply(_) => {
                    out.query_us.push(us);
                    out.query_sent_s.push(sent_s);
                }
                _ => out.failed_queries += 1,
            }
        } else {
            let adverts = u64::from(req.adverts);
            out.batches += 1;
            out.adverts += adverts;
            match frame {
                Frame::IngestAck(summary) if summary.consumed == adverts => {
                    out.ack_us.push(us);
                    out.ack_sent_s.push(sent_s);
                    out.routed += summary.routed;
                    out.rejected += summary.rejected();
                }
                _ => {
                    out.failed_batches += 1;
                    out.failed_adverts += adverts;
                }
            }
        }
    }
}
