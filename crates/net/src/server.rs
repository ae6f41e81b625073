//! The TCP ingest/query server — a single-threaded epoll reactor.
//!
//! One [`Server::bind`] call owns an [`Engine`] behind a mutex and
//! serves the wire protocol to any number of connections from one
//! readiness-driven event loop (no thread per connection):
//!
//! * every connection is nonblocking; a [`crate::conn::FrameAssembler`]
//!   carries partial frames across readiness events, and a *partial*
//!   frame that stalls longer than the read timeout closes the
//!   connection via the timer wheel (slow-loris defence), while an idle
//!   connection between frames may wait indefinitely;
//! * recoverable decode errors (bad tag, bad version, malformed body)
//!   are answered with a typed [`Frame::Error`] and the connection
//!   stays usable — only a lost framing (oversized length prefix) or a
//!   transport error closes it;
//! * requests decoded during a tick are *coalesced*: the reactor locks
//!   the engine once at tick end, executes every connection's queued
//!   requests in arrival order, then runs a single `Engine::process`
//!   pass that drains what all of them enqueued — one engine pass
//!   serves many clients;
//! * engine admission outcomes are mapped to typed frames: per-advert
//!   `AdmitError` rejections travel as exact counts in the
//!   [`Frame::IngestAck`], and shard-queue `Backpressure` is drained
//!   in-line by interleaving `Engine::process` (never by dropping the
//!   connection);
//! * replies queue into per-connection write buffers, written once per
//!   connection per tick (before the coalesced pass) and flushed on
//!   write readiness; a peer that never reads its acks trips write
//!   backpressure, which pauses *reading* from that peer until the
//!   buffer drains — the event loop itself never blocks;
//! * [`ServerHandle::shutdown`] is graceful and ordered: stop
//!   accepting, execute + ack every complete frame connections have
//!   buffered (ingest is refused with `ShuttingDown`), flush within the
//!   write-timeout grace, join the reactor, then drain every queued
//!   shard before handing the [`Engine`] back to the caller.

use crate::client::{Client, ClientError};
use crate::conn::{Assembled, Conn, Flush, TimerWheel, WRITE_BACKPRESSURE_BYTES};
use crate::poll::{Event, Interest, Poller};
use crate::wire::{
    encode_frame, ClusterSummary, DecodeError, ErrorCode, FinishSummary, Frame, IngestSummary,
    NodeRole, TracedAck, WireError, WireEstimate, WireMetrics, WirePartitionMap, WireStats,
    DEFAULT_MAX_FRAME_LEN,
};
use locble_ble::BeaconId;
use locble_engine::{Advert, Engine, IngestReport};
use locble_obs::{Obs, Stage, TraceCtx};
use locble_store::{SessionStore, WalTailer, WAL_FILE};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free one (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// How long a *partial* frame may stall before the connection is
    /// closed. Also sets the timer wheel's granularity (1/32 of this).
    pub read_timeout: Duration,
    /// Grace period for flushing replies to a peer that has stopped
    /// reading (lingering close, shutdown flush).
    pub write_timeout: Duration,
    /// Maximum accepted frame payload, bytes.
    pub max_frame_len: usize,
    /// Where flight-recorder dumps go (JSON Lines, written atomically
    /// via tmp + rename). `None` disables every dump trigger.
    pub flight_dump_path: Option<PathBuf>,
    /// Dump once after this many recoverable decode errors accumulate
    /// across all connections (a *decode storm* — a confused or hostile
    /// peer). 0 disables the trigger.
    pub decode_storm_threshold: u64,
    /// Dump on SIGTERM (handler installed at bind; the reactor performs
    /// the dump and begins shutdown on its next tick).
    pub dump_on_sigterm: bool,
    /// Dump on panic (chains onto the existing panic hook; the hook
    /// holds a clone of the server's obs handle for the process
    /// lifetime, which is why this is opt-in).
    pub dump_on_panic: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            flight_dump_path: None,
            decode_storm_threshold: 0,
            dump_on_sigterm: false,
            dump_on_panic: false,
        }
    }
}

/// When an owner may ack a batch relative to WAL replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Ack once the local WAL holds the batch. Records still stream to
    /// the follower on the ingest path, but a replication failure is
    /// tolerated: it is counted (`net.replication_failures`), the link
    /// is dropped, and the node keeps serving unreplicated.
    LocalOnly,
    /// Ack only after the follower has acked the batch's records
    /// durable. A replication failure refuses the batch with a typed
    /// `Internal` error (the local WAL keeps the records — recovery
    /// trusts the log, as with a failed append) and then degrades the
    /// node to unreplicated serving, so a dead follower cannot wedge
    /// the owner.
    SyncAck,
}

/// What a reactor needs to take part in a cluster
/// ([`Server::bind_cluster`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Stable node id — the rendezvous-hash identity. It must survive
    /// restarts *and* failover: a promoted follower keeps its dead
    /// owner's id, which is what keeps the partition assignment fixed.
    pub node_id: u64,
    /// Role at startup ([`NodeRole::Owner`] or [`NodeRole::Follower`];
    /// the front role lives in `locble-cluster`, not in this reactor).
    pub role: NodeRole,
    /// Initial membership view.
    pub map: WirePartitionMap,
    /// Follower to stream WAL records to (owners only). The follower
    /// must already be listening: the link attaches at bind.
    pub replica_addr: Option<String>,
    /// When a batch may be acked.
    pub replication: ReplicationPolicy,
}

/// How many WAL records one `Replicate` frame carries at most.
const REPLICATE_CHUNK: usize = 4096;

/// Flattens a client-layer failure into the io error the replication
/// path reports.
fn client_io(e: ClientError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// The owner → follower replication link: a blocking protocol client
/// plus a [`WalTailer`] over the owner's *own* WAL file. The WAL is the
/// replication stream — whatever the ingest path made durable locally
/// is exactly what the tailer emits, so the follower's log is a byte
/// prefix of the owner's by construction.
struct ReplicaLink {
    client: Client,
    tailer: WalTailer,
    /// Records the follower has acked durable.
    durable: u64,
    /// Per-link replication sequence number.
    seq: u64,
}

impl ReplicaLink {
    /// Connects to the follower, asks how many records it already holds
    /// (a crash-recovered follower resumes mid-log), and positions the
    /// tailer past them.
    fn attach(replica_addr: &str, wal_path: &Path) -> std::io::Result<ReplicaLink> {
        let mut client = Client::connect(replica_addr).map_err(client_io)?;
        let summary = client.cluster().map_err(client_io)?;
        let durable = summary.replicated_records;
        let mut tailer = WalTailer::open(wal_path);
        let skipped = tailer.skip(durable)?;
        if skipped != durable {
            return Err(std::io::Error::other(format!(
                "follower already holds {durable} records but the local WAL has only {skipped}"
            )));
        }
        Ok(ReplicaLink {
            client,
            tailer,
            durable,
            seq: 0,
        })
    }

    /// Streams every WAL record appended since the last call and waits
    /// for the follower's durable ack; returns its new durable count.
    fn pump(&mut self) -> std::io::Result<u64> {
        loop {
            let records = self.tailer.poll(REPLICATE_CHUNK)?;
            if records.is_empty() {
                return Ok(self.durable);
            }
            let sent = records.len() as u64;
            self.seq += 1;
            let durable = self
                .client
                .replicate(self.seq, self.durable, &records)
                .map_err(client_io)?;
            if durable != self.durable + sent {
                return Err(std::io::Error::other(format!(
                    "follower acked {durable} durable records, expected {}",
                    self.durable + sent
                )));
            }
            self.durable = durable;
        }
    }
}

/// A node's live cluster state (absent on standalone servers).
struct ClusterState {
    node_id: u64,
    role: NodeRole,
    map: WirePartitionMap,
    /// The address peers reach this node at (the bound listener) —
    /// compared against the node's own map entry to detect promotion
    /// and demotion when a new map is installed.
    listen_addr: String,
    replication: ReplicationPolicy,
    /// Live link to this owner's follower (owners that have one).
    link: Option<ReplicaLink>,
}

/// An attached durability store plus its checkpoint cadence.
struct DurableStore {
    store: SessionStore,
    /// Checkpoint once this many new WAL records accumulate since the
    /// last snapshot; 0 = checkpoint only at shutdown.
    checkpoint_every: u64,
    last_checkpoint: u64,
}

/// State shared by the reactor thread and the control handle.
struct Shared {
    engine: Mutex<Engine>,
    /// Lock ordering: always `engine` first, then `store` — WAL order
    /// must equal offer order, and both are serialized by the engine
    /// lock.
    store: Option<Mutex<DurableStore>>,
    /// Cluster attachment; locked after `engine` (and never while
    /// `store` is held — the replication stream reads the WAL *file*,
    /// not the store).
    cluster: Option<Mutex<ClusterState>>,
    obs: Obs,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Recoverable decode errors across all connections (decode-storm
    /// trigger).
    decode_errors: AtomicU64,
    /// One flight dump per server lifetime, whichever trigger fires
    /// first.
    dumped: AtomicBool,
}

/// Set by the SIGTERM handler; polled by every reactor tick. A signal
/// handler may only do async-signal-safe work, so the dump itself runs
/// on the reactor thread.
static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn sigterm_handler(_signum: i32) {
    SIGTERM_FLAG.store(true, Ordering::SeqCst);
}

/// SIGTERM's number on every platform this crate targets.
const SIGTERM: i32 = 15;

fn install_sigterm_handler() {
    // `signal` comes from the C runtime std already links; declaring it
    // here avoids a libc dependency. The return value (the previous
    // handler) is pointer-sized and unused.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, sigterm_handler);
    }
}

/// Writes the recent event history (JSON Lines) to the configured dump
/// path — atomically, so a crash mid-dump never leaves a torn file — at
/// most once per server. Returns whether this call performed the dump.
fn flight_dump(shared: &Shared, trigger: &'static str) -> bool {
    let Some(path) = &shared.config.flight_dump_path else {
        return false;
    };
    if shared.dumped.swap(true, Ordering::SeqCst) {
        return false;
    }
    shared
        .obs
        .event("net", "flight_dump", &[("trigger", trigger.into())]);
    shared.obs.counter_add("net.flight_dumps", 1);
    let ok = locble_obs::atomic_write(path, shared.obs.events_to_jsonl().as_bytes()).is_ok();
    if !ok {
        shared.obs.counter_add("net.flight_dump_failures", 1);
    }
    ok
}

/// Counts a recoverable decode error toward the decode-storm trigger:
/// crossing the configured threshold dumps the flight recorder once.
fn note_decode_error(shared: &Shared) {
    let threshold = shared.config.decode_storm_threshold;
    if threshold == 0 {
        return;
    }
    if shared.decode_errors.fetch_add(1, Ordering::SeqCst) + 1 == threshold {
        flight_dump(shared, "decode_storm");
    }
}

/// Namespace for [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds a listener, takes ownership of `engine`, and starts the
    /// reactor. Instrumentation (connection/frame counters, ingest
    /// latency histograms, reactor pass metrics) goes through `obs`.
    pub fn bind(engine: Engine, config: ServerConfig, obs: Obs) -> std::io::Result<ServerHandle> {
        Server::bind_inner(engine, None, None, config, obs)
    }

    /// [`Server::bind`] with crash-safe durability attached: every
    /// offered advert batch is WAL-logged (under the engine lock,
    /// *before* ingest) through `store`, a snapshot is taken every
    /// `checkpoint_every` WAL records (0 = shutdown only), and shutdown
    /// writes a final checkpoint after the drain. Recover the session
    /// with [`SessionStore::recover`] and pass the engine + store back
    /// here to resume after a crash.
    ///
    /// If a WAL append fails (e.g. disk full) the batch is refused with
    /// a typed `Internal` error and the engine never sees it; records
    /// already durable from the failed append are replayed on recovery
    /// even though the live engine refused the batch — recovery trusts
    /// the log.
    pub fn bind_durable(
        engine: Engine,
        store: SessionStore,
        checkpoint_every: u64,
        config: ServerConfig,
        obs: Obs,
    ) -> std::io::Result<ServerHandle> {
        let last_checkpoint = store.wal_records();
        Server::bind_inner(
            engine,
            Some(DurableStore {
                store,
                checkpoint_every,
                last_checkpoint,
            }),
            None,
            config,
            obs,
        )
    }

    /// [`Server::bind_durable`] with a cluster attachment: the node
    /// serves the cluster frames (`Forward`/`Replicate`/`PartitionMap`/
    /// `ClusterQuery`/`Handoff`/…) alongside the ordinary protocol and —
    /// when `cluster.replica_addr` is set — streams every WAL record to
    /// that follower on the ingest path, acking clients per
    /// `cluster.replication`. The follower must already be listening:
    /// the link attaches here, querying how many records the follower
    /// holds and positioning the WAL tailer past them, so a recovered
    /// pair resumes mid-log without re-sending.
    ///
    /// A follower-role node refuses direct `AdvertBatch` ingest (only
    /// its owner's `Replicate` stream may feed its engine — the
    /// divergence guard that makes promotion lossless); it flips to
    /// serving when a newer [`Frame::PartitionMap`] lists this node's
    /// own address under its node id.
    pub fn bind_cluster(
        engine: Engine,
        store: SessionStore,
        checkpoint_every: u64,
        config: ServerConfig,
        cluster: ClusterConfig,
        obs: Obs,
    ) -> std::io::Result<ServerHandle> {
        let last_checkpoint = store.wal_records();
        Server::bind_inner(
            engine,
            Some(DurableStore {
                store,
                checkpoint_every,
                last_checkpoint,
            }),
            Some(cluster),
            config,
            obs,
        )
    }

    fn bind_inner(
        engine: Engine,
        store: Option<DurableStore>,
        cluster: Option<ClusterConfig>,
        config: ServerConfig,
        obs: Obs,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cluster = match cluster {
            None => None,
            Some(cfg) => {
                let link = match (&cfg.replica_addr, &store) {
                    (Some(replica), Some(durable)) => {
                        let wal_path = durable.store.dir().join(WAL_FILE);
                        Some(ReplicaLink::attach(replica, &wal_path)?)
                    }
                    (Some(_), None) => {
                        return Err(std::io::Error::other(
                            "a replica link requires a durability store \
                             (the WAL is the replication stream)",
                        ));
                    }
                    (None, _) => None,
                };
                Some(ClusterState {
                    node_id: cfg.node_id,
                    role: cfg.role,
                    map: cfg.map,
                    listen_addr: addr.to_string(),
                    replication: cfg.replication,
                    link,
                })
            }
        };
        if config.dump_on_sigterm && config.flight_dump_path.is_some() {
            install_sigterm_handler();
        }
        if config.dump_on_panic {
            if let Some(path) = config.flight_dump_path.clone() {
                let hook_obs = obs.clone();
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let _ = locble_obs::atomic_write(&path, hook_obs.events_to_jsonl().as_bytes());
                    prev(info);
                }));
            }
        }
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            store: store.map(Mutex::new),
            cluster: cluster.map(Mutex::new),
            obs: obs.clone(),
            config,
            shutdown: AtomicBool::new(false),
            decode_errors: AtomicU64::new(0),
            dumped: AtomicBool::new(false),
        });
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::spawn(move || reactor_loop(listener, reactor_shared));
        Ok(ServerHandle {
            addr,
            obs,
            inner: Some(HandleInner { shared, reactor }),
        })
    }
}

/// Control handle for a running server. Dropping it without calling
/// [`ServerHandle::shutdown`] still shuts the server down (the drained
/// engine is discarded).
pub struct ServerHandle {
    addr: SocketAddr,
    obs: Obs,
    inner: Option<HandleInner>,
}

struct HandleInner {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Graceful shutdown. Ordering guarantee: (1) stop accepting, (2)
    /// every connection's buffered complete frames are executed and
    /// acked, (3) the reactor joins, (4) every still-queued shard
    /// sample is processed — only then is the engine returned, so
    /// nothing a client was ever acked for is lost.
    pub fn shutdown(mut self) -> Engine {
        self.shutdown_inner()
            .expect("shutdown consumes the handle; inner state is present")
    }

    fn shutdown_inner(&mut self) -> Option<Engine> {
        let inner = self.inner.take()?;
        inner.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = inner.reactor.join();
        let shared = Arc::try_unwrap(inner.shared)
            .ok()
            .expect("the reactor joined; no other handle owners remain");
        let mut engine = shared
            .engine
            .into_inner()
            .expect("engine mutex not poisoned");
        engine.drain();
        if let Some(store) = shared.store {
            // Final checkpoint: the snapshot captures the fully drained
            // state, so a restart recovers without replaying anything.
            let mut durable = store.into_inner().expect("store mutex not poisoned");
            if durable.store.checkpoint(&engine).is_err() {
                self.obs.counter_add("net.checkpoint_failures", 1);
            }
        }
        Some(engine)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("running", &self.inner.is_some())
            .finish()
    }
}

/// The listener's registration token; connections use their slab index.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Epoll wait bound per tick, so the shutdown/SIGTERM flags and timer
/// deadlines are polled on the same cadence the old accept loop used.
const TICK_MS: i32 = 2;

/// Timer wheel slots: with granularity `read_timeout / 32` the horizon
/// is two read timeouts, so a freshly armed deadline always fits.
const WHEEL_SLOTS: usize = 64;

/// One unit of work queued on a connection between its readiness event
/// and the tick-end engine pass.
enum Op {
    /// A decoded request awaiting execution. `decoded_us` is nonzero
    /// for traced batches: when decode finished, the start of the
    /// coalesce lap.
    Request { frame: Frame, decoded_us: u64 },
    /// A preformed reply (recoverable decode error) that skips the
    /// engine.
    Reply(Frame),
}

/// One slab entry: the connection plus the reactor's per-tick state.
struct Slot {
    conn: Conn,
    /// Work decoded this tick, executed in arrival order at tick end.
    ops: VecDeque<Op>,
    /// Already on the tick's dirty list.
    dirty: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

/// The event loop: owns the poller, the connection slab, and the timer
/// wheel; shares the engine with the control handle.
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    slots: Vec<Option<Slot>>,
    /// Free slab indices, reusable by accepts.
    free: Vec<usize>,
    /// Indices freed during the current tick. Merged into `free` only
    /// at tick end, so a stale event later in the same batch finds
    /// `None` instead of an unrelated new connection.
    freed_this_tick: Vec<usize>,
    /// Connections with queued ops, in first-dirtied order.
    dirty: Vec<usize>,
    wheel: TimerWheel,
    scratch: Vec<u8>,
    /// Traced acks queued on the connection being executed, awaiting
    /// the flush that closes their ack lap.
    traced_acks: Vec<(u64, u64, Instant)>,
}

/// Runs the reactor until shutdown, then drains and closes everything.
fn reactor_loop(listener: TcpListener, shared: Arc<Shared>) {
    let poller = match Poller::new() {
        Ok(p) => p,
        // Without a readiness source the loop cannot serve; exiting
        // leaves the handle's shutdown path fully functional.
        Err(_) => return,
    };
    if poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    let wheel = TimerWheel::new(shared.config.read_timeout / 32, WHEEL_SLOTS, Instant::now());
    let mut reactor = Reactor {
        shared,
        poller,
        listener,
        slots: Vec::new(),
        free: Vec::new(),
        freed_this_tick: Vec::new(),
        dirty: Vec::new(),
        wheel,
        scratch: vec![0u8; 64 * 1024],
        traced_acks: Vec::new(),
    };
    reactor.run();
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            if self.shared.config.dump_on_sigterm && SIGTERM_FLAG.load(Ordering::SeqCst) {
                // Dump the recent history while it's still warm, then
                // begin the normal graceful shutdown.
                flight_dump(&self.shared, "sigterm");
                self.shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            if self.poller.wait(&mut events, TICK_MS).is_err() {
                // EINTR already folds into Ok(0); any other failure of
                // the readiness source is unrecoverable for this loop.
                break;
            }
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev);
                }
            }
            self.execute_dirty();
            self.fire_timers(Instant::now());
            let freed = std::mem::take(&mut self.freed_this_tick);
            self.free.extend(freed);
        }
        self.shutdown_drain();
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let idx = match self.free.pop() {
                        Some(idx) => idx,
                        None => {
                            self.slots.push(None);
                            self.slots.len() - 1
                        }
                    };
                    if self.poller.add(fd, idx as u64, Interest::READ).is_err() {
                        // Cannot watch it: drop the connection, keep
                        // the slot.
                        self.free.push(idx);
                        continue;
                    }
                    self.slots[idx] = Some(Slot {
                        conn: Conn::new(stream, self.shared.config.max_frame_len),
                        ops: VecDeque::new(),
                        dirty: false,
                        interest: Interest::READ,
                    });
                    self.shared.obs.counter_add("net.connections_opened", 1);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Dispatches one connection readiness event.
    fn conn_ready(&mut self, ev: Event) {
        let idx = ev.token as usize;
        if self.slots.get(idx).is_none_or(|s| s.is_none()) {
            // Closed earlier in this same tick; stale event.
            return;
        }
        if ev.writable && !self.flush_ready(idx) {
            return;
        }
        if ev.readable || ev.hangup {
            self.read_ready(idx);
        }
    }

    /// Write readiness: drain the buffer; a drained lingering close
    /// completes here. Returns whether the connection is still open.
    fn flush_ready(&mut self, idx: usize) -> bool {
        let slot = self.slots[idx].as_mut().expect("caller checked");
        match slot.conn.flush() {
            Ok(Flush::Drained) => {
                if slot.conn.close_after_flush {
                    self.close(idx);
                    return false;
                }
                slot.conn.paused = false;
                self.sync_interest(idx);
                true
            }
            Ok(Flush::Pending) => true,
            Err(_) => {
                self.close(idx);
                false
            }
        }
    }

    /// Read readiness: pull bytes, assemble frames into ops, manage the
    /// slow-loris deadline.
    fn read_ready(&mut self, idx: usize) {
        {
            let slot = self.slots[idx].as_ref().expect("caller checked");
            if slot.conn.paused {
                // Backpressure: leave the bytes in the kernel buffer
                // until the peer drains its replies.
                return;
            }
        }
        let read = {
            let slot = self.slots[idx].as_mut().expect("caller checked");
            slot.conn.read_ready(&mut self.scratch)
        };
        let n = match read {
            Ok(n) => n,
            Err(_) => {
                self.close(idx);
                return;
            }
        };
        if n > 0 {
            self.shared.obs.counter_add("net.bytes_rx", n as u64);
        }
        self.drain_assembler(idx);
        let slot = self.slots[idx].as_mut().expect("still open");
        if !slot.ops.is_empty() && !slot.dirty {
            slot.dirty = true;
            self.dirty.push(idx);
        }
        if slot.conn.peer_eof {
            // Execute what arrived before EOF, flush the replies, then
            // close (the blocking server answered pre-EOF frames too).
            slot.conn.close_after_flush = true;
        }
        // Slow-loris deadline: armed while a partial frame is pending,
        // re-armed on every byte of progress, disarmed when the buffer
        // empties — an idle connection waits forever.
        if slot.conn.assembler.buffered() > 0 && !slot.conn.close_after_flush {
            if n > 0 || slot.conn.deadline.is_none() {
                slot.conn.timer_gen += 1;
                let deadline = Instant::now() + self.shared.config.read_timeout;
                slot.conn.deadline = Some(deadline);
                let gen = slot.conn.timer_gen;
                self.wheel.arm(idx, gen, deadline);
            }
        } else if slot.conn.deadline.is_some() {
            slot.conn.timer_gen += 1;
            slot.conn.deadline = None;
        }
        let idle_close =
            slot.conn.close_after_flush && slot.ops.is_empty() && slot.conn.write_backlog() == 0;
        if idle_close {
            self.close(idx);
        }
    }

    /// Pulls every completed frame out of the assembler into the op
    /// queue, drawing the recoverable-vs-framing-lost line.
    fn drain_assembler(&mut self, idx: usize) {
        let shared = Arc::clone(&self.shared);
        let obs = &shared.obs;
        let Some(slot) = self.slots[idx].as_mut() else {
            return;
        };
        if slot.conn.close_after_flush {
            // Framing already lost (or EOF already seen): whatever else
            // is buffered is not trusted.
            return;
        }
        loop {
            let decode_t0 = obs.enabled().then(Instant::now);
            match slot.conn.assembler.next_frame() {
                Ok(Some(Assembled::Frame(frame))) => {
                    obs.counter_add("net.frames_rx", 1);
                    let mut decoded_us = 0;
                    // A traced batch's decode lap: measured here, where
                    // the trace id first becomes known.
                    if let (Frame::TracedAdvertBatch(ctx, _), Some(t0)) = (&frame, decode_t0) {
                        let duration_us = t0.elapsed().as_micros() as u64;
                        let ctx = ctx.with_stage(Stage::Decode);
                        obs.trace_begin(ctx);
                        let now_us = obs.now_us();
                        obs.trace_stage(
                            ctx.trace_id,
                            Stage::Decode,
                            now_us.saturating_sub(duration_us),
                            duration_us,
                        );
                        decoded_us = now_us;
                    }
                    slot.ops.push_back(Op::Request { frame, decoded_us });
                }
                Ok(Some(Assembled::Skipped(e))) => {
                    // Recoverable by construction: the length prefix
                    // was accepted, so the frame was skippable.
                    obs.counter_add("net.frame_errors", 1);
                    note_decode_error(&shared);
                    slot.ops.push_back(Op::Reply(Frame::Error(WireError {
                        code: match e {
                            DecodeError::BadVersion { .. } => ErrorCode::UnsupportedVersion,
                            _ => ErrorCode::BadFrame,
                        },
                        message: e.to_string(),
                    })));
                }
                Ok(None) => break,
                Err(e) => {
                    // Length prefix itself is unusable: framing is
                    // lost. Report once, then close after the reply
                    // flushes.
                    obs.counter_add("net.framing_lost", 1);
                    slot.ops.push_back(Op::Reply(Frame::Error(WireError {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    })));
                    slot.conn.close_after_flush = true;
                    break;
                }
            }
        }
    }

    /// The tick-end engine pass: one lock, every dirty connection's ops
    /// in order, then a single coalesced `process` that drains what all
    /// of them enqueued.
    fn execute_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        let shared = Arc::clone(&self.shared);
        let obs = &shared.obs;
        let mut engine = shared.engine.lock().expect("engine mutex not poisoned");
        let mut executed: u64 = 0;
        for idx in dirty {
            if self.slots[idx].is_none() {
                continue;
            }
            let mut close_now = false;
            {
                let slot = self.slots[idx].as_mut().expect("checked above");
                slot.dirty = false;
                while let Some(op) = slot.ops.pop_front() {
                    let reply = match op {
                        Op::Reply(frame) => frame,
                        Op::Request { frame, decoded_us } => {
                            if decoded_us > 0 {
                                if let Frame::TracedAdvertBatch(ctx, _) = &frame {
                                    // Coalesce lap: how long the decoded
                                    // batch waited for this engine pass.
                                    let now_us = obs.now_us();
                                    obs.trace_stage(
                                        ctx.trace_id,
                                        Stage::Coalesce,
                                        decoded_us,
                                        now_us.saturating_sub(decoded_us),
                                    );
                                }
                            }
                            handle_frame(&shared, &mut engine, frame)
                        }
                    };
                    executed += 1;
                    // The ack lap covers encoding + handing the reply to
                    // the transport; recorded after the connection's
                    // flush, it lands in the trace table (served via
                    // TraceQuery), not in the ack frame itself.
                    if let Frame::TracedIngestAck(ack) = &reply {
                        if obs.enabled() {
                            self.traced_acks
                                .push((ack.ctx.trace_id, obs.now_us(), Instant::now()));
                        }
                    }
                    let bytes = encode_frame(&reply);
                    slot.conn.queue(&bytes);
                    obs.counter_add("net.frames_tx", 1);
                    obs.counter_add("net.bytes_tx", bytes.len() as u64);
                    // A burst whose replies outgrow the backpressure
                    // bound writes early rather than buffering it all.
                    if slot.conn.write_backlog() > WRITE_BACKPRESSURE_BYTES
                        && slot.conn.flush().is_err()
                    {
                        close_now = true;
                        break;
                    }
                }
                // One write for the whole tick's replies.
                if !close_now && slot.conn.flush().is_err() {
                    close_now = true;
                }
                if close_now {
                    self.traced_acks.clear();
                }
                for (trace_id, start_us, t0) in self.traced_acks.drain(..) {
                    obs.trace_stage(
                        trace_id,
                        Stage::Ack,
                        start_us,
                        t0.elapsed().as_micros() as u64,
                    );
                }
                if !close_now {
                    // A peer that never reads its acks: pause reading
                    // until write readiness drains the backlog.
                    let paused = slot.conn.write_backlog() > WRITE_BACKPRESSURE_BYTES;
                    if paused && !slot.conn.paused {
                        obs.counter_add("net.backpressure_pauses", 1);
                    }
                    slot.conn.paused = paused;
                    if slot.conn.close_after_flush && slot.conn.write_backlog() == 0 {
                        close_now = true;
                    }
                }
            }
            if close_now {
                self.close(idx);
                continue;
            }
            self.sync_interest(idx);
            // A lingering close (framing lost / EOF) with replies still
            // queued must not outlive a peer that never drains them:
            // bound it by the write timeout. `close_after_flush` means
            // reads stopped, so the slow-loris deadline is free.
            let arm = {
                let slot = self.slots[idx].as_mut().expect("open");
                if slot.conn.close_after_flush && slot.conn.deadline.is_none() {
                    slot.conn.timer_gen += 1;
                    let deadline = Instant::now() + self.shared.config.write_timeout;
                    slot.conn.deadline = Some(deadline);
                    Some((slot.conn.timer_gen, deadline))
                } else {
                    None
                }
            };
            if let Some((gen, deadline)) = arm {
                self.wheel.arm(idx, gen, deadline);
            }
        }
        if engine.queued() > 0 {
            // The coalesced drain: one pass serves every connection
            // that ingested this tick.
            obs.counter_add("net.reactor.coalesced_passes", 1);
            engine.process();
        }
        drop(engine);
        obs.histogram_observe("net.reactor.ops_per_tick", executed as f64);
    }

    /// Fires elapsed timer-wheel entries, validating each against the
    /// connection's live deadline and generation.
    fn fire_timers(&mut self, now: Instant) {
        for (idx, gen) in self.wheel.advance(now) {
            let Some(slot) = self.slots.get_mut(idx).and_then(|s| s.as_mut()) else {
                continue;
            };
            if slot.conn.timer_gen != gen {
                continue;
            }
            match slot.conn.deadline {
                Some(deadline) if now >= deadline => {
                    if !slot.conn.close_after_flush {
                        // A partial frame stalled a full read timeout:
                        // slow-loris. (Lingering closes reuse the
                        // deadline but are not read timeouts.)
                        self.shared.obs.counter_add("net.read_timeouts", 1);
                    }
                    self.close(idx);
                }
                Some(deadline) => {
                    // Clamped or coarse wheel slot fired early: re-arm
                    // at the real deadline.
                    self.wheel.arm(idx, gen, deadline);
                }
                None => {}
            }
        }
    }

    /// Reconciles the registered poller interest with the connection's
    /// state: paused/lingering → write only; backlog → read + write;
    /// otherwise read only.
    fn sync_interest(&mut self, idx: usize) {
        let Some(slot) = self.slots[idx].as_mut() else {
            return;
        };
        let desired = if slot.conn.paused || slot.conn.close_after_flush {
            Interest::WRITE
        } else if slot.conn.write_backlog() > 0 {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if desired != slot.interest
            && self
                .poller
                .modify(slot.conn.stream.as_raw_fd(), idx as u64, desired)
                .is_ok()
        {
            slot.interest = desired;
        }
    }

    /// Closes and frees one connection. The slot stays unreusable until
    /// tick end so stale events in the same batch miss.
    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.slots[idx].take() {
            let _ = self.poller.delete(slot.conn.stream.as_raw_fd());
            self.shared.obs.counter_add("net.connections_closed", 1);
            self.freed_this_tick.push(idx);
        }
    }

    /// Graceful shutdown: execute + ack every buffered complete frame
    /// (ingest is refused with `ShuttingDown` by `handle_frame`), flush
    /// within the write-timeout grace, close everything.
    fn shutdown_drain(&mut self) {
        let _ = self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..self.slots.len() {
            if self.slots[idx].is_none() {
                continue;
            }
            self.drain_assembler(idx);
            let slot = self.slots[idx].as_mut().expect("open");
            if !slot.ops.is_empty() && !slot.dirty {
                slot.dirty = true;
                self.dirty.push(idx);
            }
        }
        self.execute_dirty();
        let grace = Instant::now() + self.shared.config.write_timeout;
        loop {
            let mut pending = false;
            for idx in 0..self.slots.len() {
                let Some(slot) = self.slots[idx].as_mut() else {
                    continue;
                };
                if slot.conn.write_backlog() == 0 {
                    continue;
                }
                match slot.conn.flush() {
                    Ok(Flush::Pending) => pending = true,
                    Ok(Flush::Drained) => {}
                    Err(_) => self.close(idx),
                }
            }
            if !pending || Instant::now() >= grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for idx in 0..self.slots.len() {
            self.close(idx);
        }
    }
}

/// Executes one request frame against the (already locked) engine,
/// producing the reply.
fn handle_frame(shared: &Shared, engine: &mut Engine, frame: Frame) -> Frame {
    match frame {
        Frame::AdvertBatch(batch) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Frame::Error(WireError {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; ingest refused".to_string(),
                });
            }
            if let Some(refusal) = follower_refusal(shared) {
                return refusal;
            }
            ingest_batch(shared, engine, &batch, None)
        }
        Frame::TracedAdvertBatch(ctx, batch) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Frame::Error(WireError {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; ingest refused".to_string(),
                });
            }
            if let Some(refusal) = follower_refusal(shared) {
                return refusal;
            }
            ingest_batch(shared, engine, &batch, Some(ctx))
        }
        Frame::MetricsQuery => {
            Frame::MetricsReport(WireMetrics::from_snapshot(&shared.obs.metrics()))
        }
        Frame::TraceQuery(id) => Frame::TraceReport(match id {
            None => shared.obs.traces(),
            Some(id) => shared.obs.trace_lookup(id).into_iter().collect(),
        }),
        Frame::QuerySnapshot => {
            let mut span = shared.obs.span("net", "query_snapshot");
            let estimates: Vec<WireEstimate> = engine
                .snapshot()
                .iter()
                .map(|(b, e)| WireEstimate::from_estimate(*b, e))
                .collect();
            span.field("estimates", estimates.len());
            Frame::Snapshot(estimates)
        }
        Frame::QueryBeacon(beacon) => Frame::BeaconReply(
            engine
                .estimate_of(BeaconId(beacon))
                .map(|e| WireEstimate::from_estimate(BeaconId(beacon), &e)),
        ),
        Frame::QueryStats => Frame::Stats(WireStats::from_engine(engine.stats(), engine.queued())),
        Frame::Finish => {
            let mut span = shared.obs.span("net", "finish");
            let report = engine.finish();
            span.field("samples", report.samples_processed);
            Frame::FinishAck(FinishSummary {
                samples_processed: report.samples_processed as u64,
                batches_pushed: report.batches_pushed as u64,
            })
        }
        Frame::Join(_) => match &shared.cluster {
            Some(cluster) => {
                let c = cluster.lock().expect("cluster mutex not poisoned");
                Frame::JoinAck(c.map.clone())
            }
            None => not_clustered(),
        },
        Frame::PartitionMap(map) => {
            let Some(cluster) = &shared.cluster else {
                return not_clustered();
            };
            let mut c = cluster.lock().expect("cluster mutex not poisoned");
            if map.epoch < c.map.epoch {
                return Frame::Error(WireError {
                    code: ErrorCode::BadFrame,
                    message: format!(
                        "stale partition map: epoch {} < held epoch {}",
                        map.epoch, c.map.epoch
                    ),
                });
            }
            c.map = map;
            // Role reconciliation: the map says who serves each node id.
            // Listing this node's own address under its id makes it the
            // owner; anything else makes it a follower.
            let mine = c
                .map
                .nodes
                .iter()
                .find(|n| n.node_id == c.node_id)
                .map(|n| n.addr.clone());
            match mine {
                Some(addr) if addr == c.listen_addr => {
                    if c.role == NodeRole::Follower {
                        // Promotion. The replicated stream already
                        // warmed this engine; drain whatever it still
                        // has queued so the first served query sees the
                        // full replicated history.
                        engine.drain();
                        c.role = NodeRole::Owner;
                        shared.obs.counter_add("net.cluster.promotions", 1);
                    }
                }
                _ => {
                    if c.role == NodeRole::Owner {
                        c.role = NodeRole::Follower;
                        c.link = None;
                        shared.obs.counter_add("net.cluster.demotions", 1);
                    }
                }
            }
            Frame::JoinAck(c.map.clone())
        }
        Frame::Forward { seq, ctx, adverts } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Frame::Error(WireError {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; ingest refused".to_string(),
                });
            }
            if let Some(refusal) = follower_refusal(shared) {
                return refusal;
            }
            let ctx = (ctx.trace_id != 0).then_some(ctx);
            let summary = match ingest_batch(shared, engine, &adverts, ctx) {
                Frame::IngestAck(s) => s,
                Frame::TracedIngestAck(ack) => ack.summary,
                err => return err,
            };
            let replica_durable = shared
                .cluster
                .as_ref()
                .and_then(|cluster| {
                    let c = cluster.lock().expect("cluster mutex not poisoned");
                    c.link.as_ref().map(|l| l.durable)
                })
                .unwrap_or(0);
            Frame::ForwardAck {
                seq,
                summary,
                replica_durable,
            }
        }
        Frame::Replicate { seq, base, adverts } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Frame::Error(WireError {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; replication refused".to_string(),
                });
            }
            let is_follower = shared.cluster.as_ref().is_some_and(|cluster| {
                cluster.lock().expect("cluster mutex not poisoned").role == NodeRole::Follower
            });
            if !is_follower {
                return Frame::Error(WireError {
                    code: ErrorCode::BadFrame,
                    message: "only a follower absorbs Replicate".to_string(),
                });
            }
            let Some(store) = &shared.store else {
                return Frame::Error(WireError {
                    code: ErrorCode::Internal,
                    message: "follower has no durability store".to_string(),
                });
            };
            let held = {
                let durable = store.lock().expect("store mutex not poisoned");
                durable.store.wal_records()
            };
            if base != held {
                // A gap or a replay: refusing keeps the follower's WAL a
                // byte prefix of the owner's instead of silently
                // diverging. The owner treats this as a dead link.
                return Frame::Error(WireError {
                    code: ErrorCode::Internal,
                    message: format!("replication gap: owner base {base}, follower holds {held}"),
                });
            }
            match ingest_batch(shared, engine, &adverts, None) {
                Frame::IngestAck(_) => {
                    let durable = {
                        let durable = store.lock().expect("store mutex not poisoned");
                        durable.store.wal_records()
                    };
                    Frame::ReplicateAck { seq, durable }
                }
                err => err,
            }
        }
        Frame::ClusterQuery => {
            let wal_records = shared
                .store
                .as_ref()
                .map(|s| {
                    s.lock()
                        .expect("store mutex not poisoned")
                        .store
                        .wal_records()
                })
                .unwrap_or(0);
            let owned_sessions = engine.stats().sessions_live as u64;
            let summary = match &shared.cluster {
                Some(cluster) => {
                    let c = cluster.lock().expect("cluster mutex not poisoned");
                    ClusterSummary {
                        node_id: c.node_id,
                        role: c.role,
                        map: c.map.clone(),
                        owned_sessions,
                        forwarded_batches: 0,
                        forwarded_adverts: 0,
                        replicated_records: match c.role {
                            // What the follower acked durable.
                            NodeRole::Owner => c.link.as_ref().map(|l| l.durable).unwrap_or(0),
                            // What this node absorbed — its whole WAL,
                            // which is what a re-attaching owner skips.
                            NodeRole::Follower => wal_records,
                            NodeRole::Front => 0,
                        },
                    }
                }
                // A standalone server answers too (node id 0, empty
                // map), so tooling can probe any node uniformly.
                None => ClusterSummary {
                    node_id: 0,
                    role: NodeRole::Owner,
                    map: WirePartitionMap {
                        epoch: 0,
                        nodes: Vec::new(),
                    },
                    owned_sessions,
                    forwarded_batches: 0,
                    forwarded_adverts: 0,
                    replicated_records: 0,
                },
            };
            Frame::ClusterReport(summary)
        }
        Frame::ExportState => {
            let mut span = shared.obs.span("net", "export_state");
            let state = engine.export_state();
            let sessions = state.sessions.len() as u64;
            span.field("sessions", sessions);
            let mut bytes = Vec::new();
            locble_store::codec::put_engine_state(&mut bytes, &state);
            Frame::StateExport {
                sessions,
                state: bytes,
            }
        }
        Frame::Handoff { epoch, state } => {
            if engine.stats().sessions_live > 0 || engine.queued() > 0 {
                return Frame::Error(WireError {
                    code: ErrorCode::Internal,
                    message: "handoff refused: receiving engine is not empty".to_string(),
                });
            }
            let mut reader = locble_store::codec::Reader::new(&state);
            let decoded = reader
                .engine_state()
                .ok()
                .filter(|_| reader.remaining() == 0);
            let Some(decoded) = decoded else {
                return Frame::Error(WireError {
                    code: ErrorCode::BadFrame,
                    message: "handoff state did not decode".to_string(),
                });
            };
            let sessions = decoded.sessions.len() as u64;
            match Engine::restore(
                engine.config().clone(),
                engine.prototype().clone(),
                shared.obs.clone(),
                decoded,
                &[],
            ) {
                Ok((restored, _)) => {
                    *engine = restored;
                    shared.obs.counter_add("net.cluster.handoffs", 1);
                    Frame::HandoffAck { epoch, sessions }
                }
                Err(e) => Frame::Error(WireError {
                    code: ErrorCode::Internal,
                    message: format!("handoff restore failed: {e:?}"),
                }),
            }
        }
        Frame::IngestAck(_)
        | Frame::TracedIngestAck(_)
        | Frame::MetricsReport(_)
        | Frame::TraceReport(_)
        | Frame::Snapshot(_)
        | Frame::BeaconReply(_)
        | Frame::Stats(_)
        | Frame::FinishAck(_)
        | Frame::JoinAck(_)
        | Frame::ForwardAck { .. }
        | Frame::ReplicateAck { .. }
        | Frame::ClusterReport(_)
        | Frame::HandoffAck { .. }
        | Frame::StateExport { .. }
        | Frame::Error(_) => Frame::Error(WireError {
            code: ErrorCode::BadFrame,
            message: "reply frame sent as a request".to_string(),
        }),
    }
}

/// The reply for a cluster frame sent to a server with no cluster
/// attachment.
fn not_clustered() -> Frame {
    Frame::Error(WireError {
        code: ErrorCode::BadFrame,
        message: "server has no cluster attachment".to_string(),
    })
}

/// `Some(refusal)` when this node is a follower: only its owner's
/// `Replicate` stream may feed a follower's engine — the divergence
/// guard that makes promotion lossless.
fn follower_refusal(shared: &Shared) -> Option<Frame> {
    let cluster = shared.cluster.as_ref()?;
    let c = cluster.lock().expect("cluster mutex not poisoned");
    (c.role == NodeRole::Follower).then(|| {
        Frame::Error(WireError {
            code: ErrorCode::BadFrame,
            message: "node is a follower; it accepts only its owner's Replicate stream".to_string(),
        })
    })
}

/// Ingests one batch, draining shard-queue backpressure in-line so the
/// whole batch is always consumed (mirrors `Engine::ingest_all`, with
/// per-drain instrumentation). With a trace context the batch's WAL,
/// route, shard-queue and refit laps are recorded and the reply is a
/// [`Frame::TracedIngestAck`] carrying the laps closed so far — the
/// estimates themselves are identical either way (telemetry never
/// feeds the math).
fn ingest_batch(
    shared: &Shared,
    engine: &mut Engine,
    batch: &[crate::wire::WireAdvert],
    ctx: Option<TraceCtx>,
) -> Frame {
    let adverts: Vec<Advert> = batch.iter().map(|a| Advert::from(*a)).collect();
    let mut span = shared.obs.span("net", "ingest_batch");
    span.field("adverts", adverts.len());
    if let Some(store) = &shared.store {
        // Write-ahead: the batch must be durable before the engine can
        // see it, in offer order (both serialized by the engine lock,
        // which the reactor holds for the whole tick-end pass).
        let mut durable = store.lock().expect("store mutex not poisoned");
        let wal_t0 = ctx.and_then(|_| shared.obs.enabled().then(Instant::now));
        if let Err(e) = durable.store.append(&adverts) {
            shared.obs.counter_add("net.wal_failures", 1);
            span.field("wal_failed", true);
            return Frame::Error(WireError {
                code: ErrorCode::Internal,
                message: format!("durability append failed; batch refused: {e}"),
            });
        }
        if let (Some(ctx), Some(t0)) = (ctx, wal_t0) {
            let duration_us = t0.elapsed().as_micros() as u64;
            shared.obs.trace_stage(
                ctx.trace_id,
                Stage::Wal,
                shared.obs.now_us().saturating_sub(duration_us),
                duration_us,
            );
        }
    }
    if let Some(cluster) = &shared.cluster {
        // Replicate before ingest, mirroring the WAL-before-ingest rule:
        // under SyncAck a batch the follower never acked is refused
        // before the engine sees it. The tailer reads the WAL file the
        // append above just extended, so the stream is exactly the
        // durable log, in order.
        let mut c = cluster.lock().expect("cluster mutex not poisoned");
        if c.role == NodeRole::Owner && c.link.is_some() {
            let rep_t0 = ctx.and_then(|_| shared.obs.enabled().then(Instant::now));
            let sync = c.replication == ReplicationPolicy::SyncAck;
            let pumped = c.link.as_mut().expect("checked above").pump();
            if let (Some(ctx), Some(t0)) = (ctx, rep_t0) {
                let duration_us = t0.elapsed().as_micros() as u64;
                shared.obs.trace_stage(
                    ctx.trace_id,
                    Stage::Replicate,
                    shared.obs.now_us().saturating_sub(duration_us),
                    duration_us,
                );
            }
            match pumped {
                Ok(durable) => span.field("replica_durable", durable),
                Err(e) => {
                    shared.obs.counter_add("net.replication_failures", 1);
                    span.field("replication_failed", true);
                    c.link = None;
                    if sync {
                        return Frame::Error(WireError {
                            code: ErrorCode::Internal,
                            message: format!("replication failed; batch refused: {e}"),
                        });
                    }
                }
            }
        }
    }
    let mut total = IngestReport::default();
    let mut offset = 0;
    while offset < adverts.len() {
        let report = match ctx {
            Some(ctx) => engine.ingest_traced(&adverts[offset..], ctx, &shared.obs),
            None => engine.ingest(&adverts[offset..]),
        };
        offset += report.consumed;
        total.absorb(report);
        if offset < adverts.len() {
            // Backpressure: a shard queue is full. Drain and re-offer
            // instead of surfacing an error or dropping the connection.
            shared.obs.counter_add("net.backpressure_drains", 1);
            engine.process();
            if report.consumed == 0 && engine.queued() > 0 {
                // Defensive: draining freed nothing, so no progress is
                // possible. Unreachable with the current engine, but a
                // stuck loop must never hold the engine lock forever.
                span.field("stalled", true);
                return Frame::Error(WireError {
                    code: ErrorCode::Backpressure,
                    message: format!(
                        "ingest stalled with {} samples queued after a drain",
                        engine.queued()
                    ),
                });
            }
        }
    }
    if let Some(store) = &shared.store {
        // Checkpoint after ingest, so the snapshot's WAL position and
        // the engine state agree (a snapshot taken between append and
        // ingest would skip records the state doesn't contain).
        let mut durable = store.lock().expect("store mutex not poisoned");
        let records = durable.store.wal_records();
        if durable.checkpoint_every > 0
            && records - durable.last_checkpoint >= durable.checkpoint_every
        {
            match durable.store.checkpoint(engine) {
                Ok(_) => durable.last_checkpoint = records,
                Err(_) => shared.obs.counter_add("net.checkpoint_failures", 1),
            }
        }
    }
    if ctx.is_some() {
        // Close the batch's pending trace marks (shard-queue wait +
        // refit laps) before acking, so the ack can carry them. Extra
        // process calls are safe: they never perturb estimates.
        engine.process();
    }
    let summary = IngestSummary::from(total);
    span.field("routed", summary.routed);
    span.field("rejected", summary.rejected());
    shared.obs.counter_add("net.adverts_rx", summary.consumed);
    shared.obs.counter_add("net.adverts_routed", summary.routed);
    if summary.rejected() > 0 {
        shared
            .obs
            .counter_add("net.adverts_rejected", summary.rejected());
    }
    match ctx {
        Some(ctx) => {
            // Laps closed so far travel in the ack; the ack lap itself
            // is recorded after the write and lands only in the server's
            // trace table (fetch it with a TraceQuery).
            let (ctx, laps) = match shared.obs.trace_lookup(ctx.trace_id) {
                Some(record) => (record.ctx, record.laps),
                None => (ctx, Vec::new()),
            };
            Frame::TracedIngestAck(TracedAck { summary, ctx, laps })
        }
        None => Frame::IngestAck(summary),
    }
}
