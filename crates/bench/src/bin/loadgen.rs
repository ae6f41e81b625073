//! Connection-scale accounting check for the `locble-net` reactor.
//!
//! ```text
//! loadgen [--connections <n>]
//! ```
//!
//! Binds an in-process reactor server on `127.0.0.1:0` and drives it
//! from one client thread multiplexing every connection (default 4)
//! through the same [`Poller`]/[`FrameAssembler`] primitives the server
//! uses: one beacon per connection, [`BATCHES`] pre-encoded
//! `AdvertBatch` frames of [`BATCH_LEN`] adverts each. After the last
//! ack it drains, shuts down, and reconciles
//! delivered/accepted/rejected exactly against the engine's own
//! [`EngineStats`](locble_engine::EngineStats). Exits non-zero when any
//! advert goes unaccounted; `scripts/check.sh` runs it at 10 000
//! connections.
//!
//! This is an accounting check, not a throughput benchmark: every
//! timestamp sits inside one engine batch window, so nothing refits.
//! Serving throughput comes from `perfbench` (see `perfbench/README.md`).

use locble_bench::util::{header, row};
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Engine, EngineConfig};
use locble_net::wire::{encode_frame, Frame, WireAdvert, DEFAULT_MAX_FRAME_LEN};
use locble_net::{Assembled, FrameAssembler, Interest, Poller, Server, ServerConfig, ServerHandle};
use locble_obs::Obs;
use serde::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn main() {
    // When one process's fd limit cannot hold both ends of every
    // connection, `run` re-executes this binary as the client-side
    // worker; the env gate routes that child straight into the driver.
    if worker_from_env() {
        return;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let connections = take_usize(&mut args, "--connections").unwrap_or(4);
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        eprintln!("usage: loadgen [--connections <n>]");
        std::process::exit(2);
    }

    let report = run(connections);
    let mut out = header(
        "loadgen",
        &format!("{connections} multiplexed connections, one beacon each, over loopback TCP"),
        "exact end-to-end accounting through the reactor at epoll scale",
    );
    out.push_str(&rows(&report));
    print!("{out}");
    if !report.reconciles() {
        eprintln!("loadgen: accounting mismatch — see report above");
        std::process::exit(1);
    }
}

/// Removes `flag <value>` from `args`, parsed as a positive usize.
fn take_usize(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("{flag} requires a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// `AdvertBatch` frames each connection sends.
const BATCHES: usize = 2;

/// Adverts per frame.
const BATCH_LEN: usize = 64;

/// Engine sized for `connections` lanes: one worker (the reactor
/// already serializes on the engine lock; extra workers only add
/// scheduling noise on small machines), a session slot per connection,
/// and eviction off so lane scheduling cannot perturb session
/// lifetimes.
fn engine_config(connections: usize) -> EngineConfig {
    EngineConfig {
        threads: 1,
        max_sessions: connections.max(4096),
        idle_evict_s: f64::INFINITY,
        shard_queue_cap: 1 << 16,
        ..EngineConfig::default()
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
struct Report {
    /// Concurrent client connections (= beacons = engine sessions).
    connections: usize,
    /// Adverts put on the wire (every lane sent its whole stream).
    delivered: u64,
    /// Adverts acked as routed.
    accepted: u64,
    /// Adverts acked as rejected.
    rejected: u64,
    /// `samples_routed` from the engine after shutdown.
    engine_routed: u64,
    /// `samples_rejected` from the engine after shutdown.
    engine_rejected: u64,
    /// `samples_processed` after the shutdown drain.
    engine_processed: u64,
    /// Queue depth after shutdown (must be 0).
    queued_after: usize,
    /// Request frames the server decoded.
    frames_rx: u64,
    /// Connect ramp wall-clock, seconds.
    connect_s: f64,
    /// First byte to last ack, seconds.
    stream_s: f64,
    /// Graceful shutdown drain, seconds.
    drain_s: f64,
}

impl Report {
    /// `true` when every advert is accounted for exactly, on both sides
    /// of the wire: client-side sums match the acks, the acks match the
    /// engine's own counters, and the shutdown drain left nothing
    /// queued.
    fn reconciles(&self) -> bool {
        self.delivered == self.accepted + self.rejected
            && self.accepted == self.engine_routed
            && self.rejected == self.engine_rejected
            && self.engine_processed == self.engine_routed
            && self.queued_after == 0
    }
}

/// Formats a [`Report`] as the standard row block.
fn rows(r: &Report) -> String {
    let mut out = String::new();
    out.push_str(&row("connections", r.connections));
    out.push_str(&row(
        "batches x adverts per connection",
        format!("{BATCHES} x {BATCH_LEN}"),
    ));
    out.push_str(&row("request frames", r.frames_rx));
    out.push_str(&row(
        "delivered / accepted / rejected",
        format!("{} / {} / {}", r.delivered, r.accepted, r.rejected),
    ));
    out.push_str(&row(
        "engine routed / processed",
        format!("{} / {}", r.engine_routed, r.engine_processed),
    ));
    out.push_str(&row("connect ramp (s)", format!("{:.3}", r.connect_s)));
    out.push_str(&row("stream wall (s)", format!("{:.3}", r.stream_s)));
    out.push_str(&row("shutdown drain (s)", format!("{:.3}", r.drain_s)));
    out.push_str(&row("accounting reconciles exactly", r.reconciles()));
    out
}

/// `setrlimit(2)` plumbing: a 10k-connection loopback self-test holds
/// both ends of every socket in one process, which blows through the
/// usual 1024-fd soft limit. Raised best-effort at run start; declared
/// directly (same std-only discipline as the server's signal handling).
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Raises the fd soft limit to at least `needed` (capped by the hard
/// limit). Best effort: if it fails, the connect ramp surfaces the real
/// error with an accurate count.
fn raise_nofile_limit(needed: u64) {
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 || lim.cur >= needed {
            return;
        }
        if lim.max < needed {
            // A privileged process may raise the hard limit too; if this
            // fails, the fallback below still lifts the soft limit as
            // far as the hard limit allows.
            let raised = Rlimit {
                cur: needed,
                max: needed,
            };
            if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
                return;
            }
        }
        lim.cur = needed.min(lim.max);
        let _ = setrlimit(RLIMIT_NOFILE, &lim);
    }
}

/// The fd soft limit in force right now (0 when the probe fails, which
/// conservatively forces the child-process driver).
fn nofile_soft_limit() -> u64 {
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            0
        } else {
            lim.cur
        }
    }
}

#[repr(C)]
struct LingerOpt {
    onoff: i32,
    linger: i32,
}

const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

extern "C" {
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const LingerOpt, optlen: u32) -> i32;
}

/// RST-on-close: a finished lane skips TIME_WAIT entirely, so a
/// 10k-connection run doesn't leave ~20k lingering kernel sockets to
/// skew whatever runs next. Best effort — TIME_WAIT residue is only
/// noise, never a correctness issue.
fn set_abortive_close(sock: &TcpStream) {
    let opt = LingerOpt {
        onoff: 1,
        linger: 0,
    };
    unsafe {
        let _ = setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &opt,
            std::mem::size_of::<LingerOpt>() as u32,
        );
    }
}

/// One multiplexed client connection's state.
struct Lane {
    sock: TcpStream,
    /// The lane's whole pre-encoded request stream.
    out: Vec<u8>,
    sent: usize,
    assembler: FrameAssembler,
    acks: usize,
    accepted: u64,
    rejected: u64,
    done: bool,
}

/// Blocks until the server has accepted `want` connections — the ramp
/// paces itself against this counter so it never overruns the listen
/// backlog.
fn wait_for_accepts(server: &ServerHandle, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.obs().metrics().counter("net.connections_opened") < want {
        assert!(
            Instant::now() < deadline,
            "server stalled accepting connections (want {want})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Connections per ramp wave, kept under the listener's 128-entry
/// backlog so a wave never overflows the accept queue.
const RAMP_WAVE: usize = 96;

/// What the client side of one drive measured.
struct DriveOutcome {
    accepted: u64,
    rejected: u64,
    connect_s: f64,
    stream_s: f64,
}

/// Connects `connections` lanes against `addr` (calling `pace` at
/// every [`RAMP_WAVE`] boundary with the lane count so far, so the ramp
/// never overruns the listen backlog), streams every pre-encoded frame,
/// and drains every ack — one thread, one epoll set. Panics on any
/// protocol deviation (missing ack, wrong count, early close): this is
/// an accounting check, not a fault injector.
fn drive(
    addr: std::net::SocketAddr,
    connections: usize,
    mut pace: impl FnMut(usize),
) -> DriveOutcome {
    // Pre-encode every lane's stream (untimed setup). All timestamps sit
    // strictly inside one batch window, strictly increasing per beacon.
    let dt = 2.0 / (BATCHES * BATCH_LEN) as f64;
    let outs: Vec<Vec<u8>> = (0..connections)
        .map(|i| {
            let beacon = i as u32 + 1;
            let mut out = Vec::with_capacity(BATCHES * (BATCH_LEN * 20 + 16));
            for k in 0..BATCHES {
                let batch: Vec<WireAdvert> = (0..BATCH_LEN)
                    .map(|j| WireAdvert {
                        beacon,
                        t: (k * BATCH_LEN + j + 1) as f64 * dt,
                        rssi_dbm: -60.0,
                    })
                    .collect();
                out.extend_from_slice(&encode_frame(&Frame::AdvertBatch(batch)));
            }
            out
        })
        .collect();

    // Connect ramp, paced in waves.
    let t_connect = Instant::now();
    let mut poller = Poller::new().expect("client poller");
    let mut lanes: Vec<Lane> = Vec::with_capacity(connections);
    for (i, out) in outs.into_iter().enumerate() {
        if i > 0 && i % RAMP_WAVE == 0 {
            pace(i);
        }
        let sock = TcpStream::connect(addr).expect("connect lane");
        sock.set_nonblocking(true).expect("nonblocking lane");
        sock.set_nodelay(true).expect("nodelay lane");
        set_abortive_close(&sock);
        poller
            .add(sock.as_raw_fd(), i as u64, Interest::READ_WRITE)
            .expect("register lane");
        lanes.push(Lane {
            sock,
            out,
            sent: 0,
            assembler: FrameAssembler::new(DEFAULT_MAX_FRAME_LEN),
            acks: 0,
            accepted: 0,
            rejected: 0,
            done: false,
        });
    }
    pace(connections);
    let connect_s = t_connect.elapsed().as_secs_f64();

    // The drive loop: one thread multiplexing every lane. Writes push
    // until the kernel pushes back; reads drain acks as they arrive.
    let t_stream = Instant::now();
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 256 * 1024];
    let mut remaining = lanes.len();
    let stall_deadline = Instant::now() + Duration::from_secs(300);
    while remaining > 0 {
        assert!(
            Instant::now() < stall_deadline,
            "drive loop stalled with {remaining} lanes unfinished"
        );
        poller.wait(&mut events, 50).expect("client poll");
        for ev in &events {
            let idx = ev.token as usize;
            let lane = &mut lanes[idx];
            if lane.done {
                continue;
            }
            if ev.writable && lane.sent < lane.out.len() {
                loop {
                    match lane.sock.write(&lane.out[lane.sent..]) {
                        Ok(0) => panic!("lane {idx}: server closed mid-stream"),
                        Ok(n) => {
                            lane.sent += n;
                            if lane.sent == lane.out.len() {
                                poller
                                    .modify(lane.sock.as_raw_fd(), ev.token, Interest::READ)
                                    .expect("drop write interest");
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("lane {idx}: write failed: {e}"),
                    }
                }
            }
            if ev.readable || ev.hangup {
                loop {
                    match lane.sock.read(&mut scratch) {
                        Ok(0) => {
                            assert_eq!(
                                lane.acks, BATCHES,
                                "lane {idx}: server EOF before all acks"
                            );
                            break;
                        }
                        Ok(n) => {
                            lane.assembler.feed(&scratch[..n]);
                            drain_acks(lane, idx);
                            if lane.acks == BATCHES {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("lane {idx}: read failed: {e}"),
                    }
                }
                if lane.acks == BATCHES && lane.sent == lane.out.len() {
                    poller
                        .delete(lane.sock.as_raw_fd())
                        .expect("deregister lane");
                    lane.done = true;
                    remaining -= 1;
                }
            }
        }
    }
    let stream_s = t_stream.elapsed().as_secs_f64();
    DriveOutcome {
        accepted: lanes.iter().map(|l| l.accepted).sum(),
        rejected: lanes.iter().map(|l| l.rejected).sum(),
        connect_s,
        stream_s,
    }
}

/// Pulls every complete ack out of a lane's assembler and tallies it.
fn drain_acks(lane: &mut Lane, idx: usize) {
    loop {
        match lane.assembler.next_frame() {
            Ok(Some(Assembled::Frame(Frame::IngestAck(summary)))) => {
                assert_eq!(
                    summary.consumed, BATCH_LEN as u64,
                    "lane {idx}: truncated ack"
                );
                lane.acks += 1;
                lane.accepted += summary.routed;
                lane.rejected += summary.rejected();
            }
            Ok(Some(Assembled::Frame(other))) => {
                panic!("lane {idx}: unexpected reply {other:?}")
            }
            Ok(Some(Assembled::Skipped(e))) => panic!("lane {idx}: malformed reply: {e:?}"),
            Ok(None) => return,
            Err(e) => panic!("lane {idx}: reply framing lost: {e:?}"),
        }
    }
}

/// Runs one multiplexed load against a fresh reactor server.
///
/// The client side runs in-process when one process's fd limit can hold
/// both ends of every connection; otherwise (10k connections under a
/// 20k-fd cap) this binary is re-executed as a client worker — see
/// [`worker_from_env`] — so each process only holds its own ends, the
/// way real phones would.
fn run(connections: usize) -> Report {
    let needed = (2 * connections + 64) as u64;
    raise_nofile_limit(needed);

    let engine = Engine::new(
        engine_config(connections),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    // Generous stall deadlines: a lane may legitimately wait behind
    // 9 999 others for its first service tick.
    let server_config = ServerConfig {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = Server::bind(engine, server_config, Obs::ring(1024)).expect("bind on loopback");
    let addr = server.addr();

    let outcome = if nofile_soft_limit() >= needed {
        drive(addr, connections, |i| wait_for_accepts(&server, i as u64))
    } else {
        drive_in_child(&server, connections)
    };

    let obs = server.obs().clone();
    let t_drain = Instant::now();
    let engine = server.shutdown();
    let drain_s = t_drain.elapsed().as_secs_f64();
    let stats = engine.stats();
    Report {
        connections,
        delivered: (connections * BATCHES * BATCH_LEN) as u64,
        accepted: outcome.accepted,
        rejected: outcome.rejected,
        engine_routed: stats.samples_routed,
        engine_rejected: stats.samples_rejected,
        engine_processed: stats.samples_processed,
        queued_after: engine.queued(),
        frames_rx: obs.metrics().counter("net.frames_rx"),
        connect_s: outcome.connect_s,
        stream_s: outcome.stream_s,
        drain_s,
    }
}

/// The worker's result line prefix on stdout.
const WORKER_RESULT_PREFIX: &str = "SYNTH_WORKER_RESULT ";
const WORKER_ADDR_ENV: &str = "LOCBLE_SYNTH_WORKER_ADDR";
const WORKER_CONNS_ENV: &str = "LOCBLE_SYNTH_WORKER_CONNS";

/// Re-executes this binary as the client worker and collects its
/// result.
fn drive_in_child(server: &ServerHandle, connections: usize) -> DriveOutcome {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("own binary path");
    let mut child = std::process::Command::new(exe)
        .env(WORKER_ADDR_ENV, server.addr().to_string())
        .env(WORKER_CONNS_ENV, connections.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn client worker");
    let reader = std::io::BufReader::new(child.stdout.take().expect("worker stdout"));
    let mut outcome = None;
    for line in reader.lines() {
        let line = line.expect("worker line");
        if let Some(json) = line.strip_prefix(WORKER_RESULT_PREFIX) {
            let v: Value = serde::json::parse(json).expect("worker result JSON");
            outcome = Some(DriveOutcome {
                accepted: num_u64(&v, "accepted"),
                rejected: num_u64(&v, "rejected"),
                connect_s: num_f64(&v, "connect_seconds"),
                stream_s: num_f64(&v, "stream_seconds"),
            });
        }
    }
    let status = child.wait().expect("worker exit");
    assert!(status.success(), "client worker failed");
    outcome.expect("client worker printed no result")
}

fn num_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) => *n as u64,
        Some(Value::F64(x)) => *x as u64,
        other => panic!("worker result missing {key}: {other:?}"),
    }
}

fn num_f64(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        other => panic!("worker result missing {key}: {other:?}"),
    }
}

/// The out-of-process client driver's entry gate, checked first thing
/// in `main`. Returns `false` when the env gate is absent (the normal
/// case). When set, it drives the whole load against the parent's
/// server, prints one result line on stdout, and returns `true` — the
/// caller must then exit without doing anything else.
fn worker_from_env() -> bool {
    let Ok(addr) = std::env::var(WORKER_ADDR_ENV) else {
        return false;
    };
    let connections: usize = std::env::var(WORKER_CONNS_ENV)
        .expect("worker env complete")
        .parse()
        .expect("worker env numeric");
    raise_nofile_limit((connections + 64) as u64);
    let addr: std::net::SocketAddr = addr.parse().expect("worker addr");
    // No accept counter across the process boundary: pace each wave on
    // the reactor's tick instead (it accepts a whole backlog per tick).
    let outcome = drive(addr, connections, |_| {
        std::thread::sleep(Duration::from_millis(2));
    });
    let result = Value::Map(vec![
        ("accepted".to_string(), Value::U64(outcome.accepted)),
        ("rejected".to_string(), Value::U64(outcome.rejected)),
        ("connect_seconds".to_string(), Value::F64(outcome.connect_s)),
        ("stream_seconds".to_string(), Value::F64(outcome.stream_s)),
    ]);
    println!("{WORKER_RESULT_PREFIX}{}", serde::json::to_string(&result));
    true
}

#[cfg(test)]
mod tests {
    /// The multiplexed driver at a debug-friendly scale: every lane's
    /// acks accounted, nothing rejected, nothing left queued.
    #[test]
    fn multiplexed_run_reconciles() {
        let report = super::run(64);
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(
            report.delivered,
            (64 * super::BATCHES * super::BATCH_LEN) as u64
        );
        assert_eq!(report.rejected, 0, "{report:?}");
    }
}
