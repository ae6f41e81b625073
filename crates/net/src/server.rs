//! The TCP ingest/query server — a single-threaded epoll reactor.
//!
//! One readiness-driven event loop serves the wire protocol to any
//! number of connections (no thread per connection). What it executes
//! each tick is a [`Service`]: [`Server::bind`] hosts a node owning an
//! [`Engine`]; `locble-cluster` hosts its front via [`Server::host`].
//!
//! * every connection is nonblocking; a [`crate::conn::FrameAssembler`]
//!   carries partial frames across readiness events, and a *partial*
//!   frame that stalls longer than the read timeout closes the
//!   connection via the timer wheel (slow-loris defence), while an idle
//!   connection between frames may wait indefinitely;
//! * recoverable decode errors and reply frames sent as requests are
//!   answered with a typed [`Frame::Error`] and the connection stays
//!   usable — only a lost framing (oversized length prefix) or a
//!   transport error closes it;
//! * requests decoded during a tick are *coalesced*: at tick end the
//!   service executes every connection's requests in arrival order in
//!   one call. A node runs them as a *group commit*: it appends every
//!   batch to the WAL, waits on one replication barrier (an owner's
//!   single follower round trip), ingests and answers every request in
//!   order, writes the replies, then one `Engine::process` pass drains
//!   what all of them enqueued. A `PartitionMap` can flip the node's
//!   role, so it ends the group before it and runs in its own;
//! * per-advert `AdmitError` rejections travel as exact counts in the
//!   [`Frame::IngestAck`]; shard-queue `Backpressure` is drained in-line
//!   by interleaving `Engine::process`, never by dropping a connection;
//! * replies are written once per connection per tick (before the
//!   node's coalesced pass) and flushed on write readiness; a peer that
//!   never reads its acks pauses *reading* from that peer until its
//!   buffer drains — the event loop never blocks on a client;
//! * shutdown is graceful and ordered: stop accepting, execute + ack
//!   every complete buffered frame (ingest is refused with
//!   `ShuttingDown`), flush within the write-timeout grace, join the
//!   reactor; a node then drains every queued shard before
//!   [`ReactorHandle::shutdown`] hands the [`Engine`] back.

use crate::client::{Client, ClientError};
use crate::conn::{Assembled, Conn, Flush, TimerWheel, WRITE_BACKPRESSURE_BYTES};
use crate::poll::{Event, Interest, Poller};
use crate::wire::{
    encode_frame, ClusterSummary, DecodeError, ErrorCode, FinishSummary, Frame, IngestSummary,
    NodeRole, WireAdvert, WireEstimate, WireMetrics, WirePartitionMap, WireStats,
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free one (see
    /// [`ReactorHandle::addr`]).
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
    /// via tmp + rename). `None` disables the decode-storm dump.
    pub flight_dump_path: Option<PathBuf>,
    /// Dump once after this many recoverable decode errors accumulate
    /// across all connections (a *decode storm* — a confused or hostile
    /// peer). 0 disables the trigger.
    pub decode_storm_threshold: u64,
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
    /// durable. The records of a whole group (a tick's batches up to
    /// the next `PartitionMap`) replicate in one barrier, so a
    /// replication failure refuses every batch of the group with the
    /// same typed `Internal` error (the local WAL keeps the records —
    /// recovery trusts the log, as with a failed append) and then
    /// degrades the node to unreplicated serving, so a dead follower
    /// cannot wedge the owner.
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
    /// the front is a separate service in `locble-cluster`).
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
            // Only the reactor appends to this WAL, and the reactor is
            // the thread running this pump: a poll that came back short
            // has read every record appended so far, and polling again
            // would only reopen and reread the file to find nothing.
            if records.len() < REPLICATE_CHUNK {
                return Ok(self.durable);
            }
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

/// One request a tick executes.
#[derive(Debug)]
pub struct Request {
    /// The decoded request frame (never a reply frame).
    pub frame: Frame,
    /// For a traced batch, when its decode finished (`Obs::now_us`):
    /// the start of its coalesce lap. 0 otherwise.
    pub decoded_us: u64,
}

/// What a reactor executes each tick — the one part that differs
/// between a node and a cluster front. Accept, framing, timers, write
/// backpressure, ordered shutdown and the decode-storm dump belong to
/// the reactor.
pub trait Service: Send + 'static {
    /// What the service hands back once the reactor has shut down.
    type Output;

    /// Executes one tick's requests (each connection's in arrival
    /// order, connection after connection) and returns one reply per
    /// request, in order. Once `draining`, ingest must be refused with
    /// `ShuttingDown`.
    fn execute(&mut self, requests: Vec<Request>, draining: bool) -> Vec<Frame>;

    /// Runs after the tick's replies are written (a node's coalesced
    /// engine pass).
    fn settle(&mut self) {}

    /// Runs once the reactor has joined; [`ReactorHandle::shutdown`]
    /// returns the result.
    fn finish(self) -> Self::Output;
}

/// A node ([`Server::bind`]): the engine plus its optional durability
/// and cluster attachments, owned by the reactor thread — no locks, and
/// WAL order equals offer order because requests execute one at a time.
pub struct NodeService {
    engine: Engine,
    store: Option<DurableStore>,
    cluster: Option<ClusterState>,
    obs: Obs,
    /// Traced batches routed into the shard queues and not yet drained:
    /// `(trace_id, routed_us)`. The next engine pass closes their
    /// `ShardQueue` and `Refit` laps; cleared every tick.
    traced: Vec<(u64, u64)>,
}

/// State shared by the reactor thread and the control handle.
struct Shared {
    obs: Obs,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Recoverable decode errors across all connections (decode-storm
    /// trigger).
    decode_errors: AtomicU64,
}

/// Counts a recoverable decode error toward the decode-storm trigger.
/// The error that reaches the configured threshold writes the recent
/// event history (JSON Lines) to the dump path — atomically, so a crash
/// mid-dump never leaves a torn file — once per server lifetime.
fn note_decode_error(shared: &Shared) {
    let threshold = shared.config.decode_storm_threshold;
    let Some(path) = &shared.config.flight_dump_path else {
        return;
    };
    if threshold == 0 || shared.decode_errors.fetch_add(1, Ordering::SeqCst) + 1 != threshold {
        return;
    }
    shared
        .obs
        .event("net", "flight_dump", &[("trigger", "decode_storm".into())]);
    shared.obs.counter_add("net.flight_dumps", 1);
    if locble_obs::atomic_write(path, shared.obs.events_to_jsonl().as_bytes()).is_err() {
        shared.obs.counter_add("net.flight_dump_failures", 1);
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
    /// offered advert batch is WAL-logged (on the reactor thread,
    /// *before* ingest) through `store`, a snapshot is taken every
    /// `checkpoint_every` WAL records (0 = shutdown only) on the store's
    /// writer thread, and shutdown writes a final, synchronous
    /// checkpoint after the drain. Recover the session
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
        Server::bind_inner(engine, Some((store, checkpoint_every)), None, config, obs)
    }

    /// [`Server::bind_durable`] with a cluster attachment: the node
    /// serves the cluster frames (`Forward`/`Replicate`/`PartitionMap`/
    /// `ClusterQuery`) alongside the ordinary protocol and — when
    /// `cluster.replica_addr` is set — streams every WAL record to
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
        Server::bind_inner(
            engine,
            Some((store, checkpoint_every)),
            Some(cluster),
            config,
            obs,
        )
    }

    fn bind_inner(
        engine: Engine,
        store: Option<(SessionStore, u64)>,
        cluster: Option<ClusterConfig>,
        config: ServerConfig,
        obs: Obs,
    ) -> std::io::Result<ServerHandle> {
        let node_obs = obs.clone();
        Server::host(config, obs, move |addr| {
            NodeService::new(engine, store, cluster, addr, node_obs)
        })
    }

    /// Binds a listener on `config.addr` and starts a reactor executing
    /// the service `make` builds from the bound address. Connection and
    /// frame counters (`net.*`) and the decode-storm dump go through
    /// `obs`.
    pub fn host<S: Service>(
        config: ServerConfig,
        obs: Obs,
        make: impl FnOnce(SocketAddr) -> std::io::Result<S>,
    ) -> std::io::Result<ReactorHandle<S>> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service = make(addr)?;
        let shared = Arc::new(Shared {
            obs,
            config,
            shutdown: AtomicBool::new(false),
            decode_errors: AtomicU64::new(0),
        });
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::spawn(move || reactor_loop(listener, reactor_shared, service));
        Ok(ReactorHandle {
            addr,
            shared,
            reactor: Some(reactor),
        })
    }
}

/// Control handle for a running reactor. Dropping it without calling
/// [`ReactorHandle::shutdown`] still shuts the reactor down (the
/// service's output is discarded).
pub struct ReactorHandle<S: Service> {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<S>>,
}

/// Control handle for a running node; [`ReactorHandle::shutdown`]
/// returns its drained [`Engine`].
pub type ServerHandle = ReactorHandle<NodeService>;

impl<S: Service> ReactorHandle<S> {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The reactor's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Graceful shutdown. Ordering guarantee: (1) stop accepting, (2)
    /// every connection's buffered complete frames are executed and
    /// acked, (3) the reactor joins, (4) the service finishes — a node
    /// processes every still-queued shard sample before its engine is
    /// returned, so nothing a client was ever acked for is lost.
    pub fn shutdown(mut self) -> S::Output {
        self.stop().expect("the reactor thread exited cleanly")
    }

    /// `None` once stopped, or when the reactor thread panicked (so
    /// `Drop` never panics).
    fn stop(&mut self) -> Option<S::Output> {
        let reactor = self.reactor.take()?;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        reactor.join().ok().map(Service::finish)
    }
}

impl<S: Service> Drop for ReactorHandle<S> {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

impl<S: Service> std::fmt::Debug for ReactorHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("addr", &self.addr)
            .field("running", &self.reactor.is_some())
            .finish()
    }
}

/// The listener's registration token; connections use their slab index.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Epoll wait bound per tick: the cadence at which the shutdown flag
/// and timer deadlines are polled.
const TICK_MS: i32 = 2;

/// Timer wheel slots: with granularity `read_timeout / 32` the horizon
/// is two read timeouts, so a freshly armed deadline always fits.
const WHEEL_SLOTS: usize = 64;

/// One slab entry: the connection plus the reactor's per-tick state.
struct Slot {
    conn: Conn,
    /// This tick's replies, in arrival order.
    ops: VecDeque<Op>,
    /// Requests decoded this tick, executed at tick end.
    requests: Vec<Request>,
    /// Already on the tick's dirty list.
    dirty: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

/// One reply slot of a connection's tick.
enum Op {
    /// A preformed reply: a decode error or a misdirected reply frame.
    Ready(Frame),
    /// The next of the service's replies to `requests`. A traced
    /// request's `trace_id` (0 = untraced) keys the lap of the reply's
    /// write.
    Service { trace_id: u64 },
}

/// The event loop: owns the poller, the connection slab, the timer
/// wheel and the service.
struct Reactor<S> {
    shared: Arc<Shared>,
    service: S,
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
    /// Traced replies queued on the connection being flushed, awaiting
    /// the write that closes their ack lap.
    traced_acks: Vec<(u64, u64, Instant)>,
}

/// Runs the reactor until shutdown, then drains and closes everything
/// and hands the service back.
fn reactor_loop<S: Service>(listener: TcpListener, shared: Arc<Shared>, service: S) -> S {
    let poller = match Poller::new() {
        Ok(p) => p,
        // Without a readiness source the loop cannot serve; exiting
        // leaves the handle's shutdown path fully functional.
        Err(_) => return service,
    };
    if poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .is_err()
    {
        return service;
    }
    let wheel = TimerWheel::new(shared.config.read_timeout / 32, WHEEL_SLOTS, Instant::now());
    let mut reactor = Reactor {
        shared,
        service,
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
    reactor.service
}

impl<S: Service> Reactor<S> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        while !self.shared.shutdown.load(Ordering::SeqCst) {
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
                        requests: Vec::new(),
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
                    if !frame.is_request() {
                        slot.ops.push_back(Op::Ready(Frame::error(
                            ErrorCode::BadFrame,
                            "reply frame sent as a request",
                        )));
                        continue;
                    }
                    let ctx = ingest_payload(&frame).and_then(|(_, ctx)| ctx);
                    let mut decoded_us = 0;
                    // A traced batch's decode lap: measured here, where
                    // the trace id first becomes known.
                    if let (Some(ctx), Some(t0)) = (ctx, decode_t0) {
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
                    slot.requests.push(Request { frame, decoded_us });
                    slot.ops.push_back(Op::Service {
                        trace_id: ctx.map_or(0, |c| c.trace_id),
                    });
                }
                Ok(Some(Assembled::Skipped(e))) => {
                    // Recoverable by construction: the length prefix
                    // was accepted, so the frame was skippable.
                    obs.counter_add("net.frame_errors", 1);
                    note_decode_error(&shared);
                    slot.ops.push_back(Op::Ready(Frame::error(
                        match e {
                            DecodeError::BadVersion { .. } => ErrorCode::UnsupportedVersion,
                            _ => ErrorCode::BadFrame,
                        },
                        e.to_string(),
                    )));
                }
                Ok(None) => break,
                Err(e) => {
                    // Length prefix itself is unusable: framing is
                    // lost. Report once, then close after the reply
                    // flushes.
                    obs.counter_add("net.framing_lost", 1);
                    slot.ops
                        .push_back(Op::Ready(Frame::error(ErrorCode::BadFrame, e.to_string())));
                    slot.conn.close_after_flush = true;
                    break;
                }
            }
        }
    }

    /// The tick-end pass: the service executes every dirty
    /// connection's requests in one call, each connection's replies are
    /// written with one write, then the service settles (a node's
    /// coalesced `process`).
    fn execute_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        let mut requests = Vec::new();
        for &idx in &dirty {
            if let Some(slot) = self.slots[idx].as_mut() {
                slot.dirty = false;
                requests.append(&mut slot.requests);
            }
        }
        let draining = self.shared.shutdown.load(Ordering::SeqCst);
        let mut replies = self.service.execute(requests, draining).into_iter();
        let shared = Arc::clone(&self.shared);
        let obs = &shared.obs;
        let mut executed: u64 = 0;
        for idx in dirty {
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            let mut close_now = false;
            for op in slot.ops.drain(..) {
                let (reply, trace_id) = match op {
                    Op::Ready(reply) => (reply, 0),
                    Op::Service { trace_id } => {
                        (replies.next().expect("one reply per request"), trace_id)
                    }
                };
                executed += 1;
                if close_now {
                    continue;
                }
                // The ack lap covers encoding + handing the reply to
                // the transport; recorded after the connection's
                // flush, it lands in the trace table (served via
                // TraceQuery), never in a reply frame.
                if trace_id != 0 && obs.enabled() {
                    self.traced_acks
                        .push((trace_id, obs.now_us(), Instant::now()));
                }
                let bytes = encode_frame(&reply);
                slot.conn.queue(&bytes);
                obs.counter_add("net.frames_tx", 1);
                obs.counter_add("net.bytes_tx", bytes.len() as u64);
                // A burst whose replies outgrow the backpressure bound
                // writes early rather than buffering it all.
                if slot.conn.write_backlog() > WRITE_BACKPRESSURE_BYTES
                    && slot.conn.flush().is_err()
                {
                    close_now = true;
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
                // A peer that never reads its acks: pause reading until
                // write readiness drains the backlog.
                let paused = slot.conn.write_backlog() > WRITE_BACKPRESSURE_BYTES;
                if paused && !slot.conn.paused {
                    obs.counter_add("net.backpressure_pauses", 1);
                }
                slot.conn.paused = paused;
                if slot.conn.close_after_flush && slot.conn.write_backlog() == 0 {
                    close_now = true;
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
            let slot = self.slots[idx].as_mut().expect("open");
            if slot.conn.close_after_flush && slot.conn.deadline.is_none() {
                slot.conn.timer_gen += 1;
                let deadline = Instant::now() + self.shared.config.write_timeout;
                slot.conn.deadline = Some(deadline);
                self.wheel.arm(idx, slot.conn.timer_gen, deadline);
            }
        }
        self.service.settle();
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
    /// (the service refuses ingest with `ShuttingDown`), flush
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

impl Service for NodeService {
    type Output = Engine;

    fn execute(&mut self, mut requests: Vec<Request>, draining: bool) -> Vec<Frame> {
        let mut replies = Vec::with_capacity(requests.len());
        while !requests.is_empty() {
            // A group ends before the next `PartitionMap`, which runs in
            // a group of its own: only that frame can flip the role that
            // decides ingest refusal, so a group's batches share one.
            let len = match requests
                .iter()
                .position(|r| matches!(r.frame, Frame::PartitionMap(_)))
            {
                Some(0) => 1,
                Some(end) => end,
                None => requests.len(),
            };
            self.execute_group(requests.drain(..len), draining, &mut replies);
        }
        replies
    }

    fn settle(&mut self) {
        if self.engine.queued() > 0 {
            // The coalesced drain: one pass serves every connection
            // that ingested this tick.
            self.obs.counter_add("net.reactor.coalesced_passes", 1);
            self.pass(Engine::process);
        }
        self.traced.clear();
    }

    fn finish(self) -> Engine {
        let mut engine = self.engine;
        engine.drain();
        if let Some(mut durable) = self.store {
            // A background checkpoint that failed is counted here; then
            // the final, synchronous checkpoint captures the fully
            // drained state, so a restart recovers without replaying
            // anything.
            if durable.store.wait_checkpoint().is_err() {
                self.obs.counter_add("net.checkpoint_failures", 1);
            }
            if durable.store.checkpoint(&engine).is_err() {
                self.obs.counter_add("net.checkpoint_failures", 1);
            }
        }
        engine
    }
}

impl NodeService {
    /// A node listening at `addr`; an owner with a `replica_addr`
    /// attaches its replication link here.
    fn new(
        engine: Engine,
        store: Option<(SessionStore, u64)>,
        cluster: Option<ClusterConfig>,
        addr: SocketAddr,
        obs: Obs,
    ) -> std::io::Result<NodeService> {
        let store = store.map(|(store, checkpoint_every)| DurableStore {
            last_checkpoint: store.wal_records(),
            store,
            checkpoint_every,
        });
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
        Ok(NodeService {
            engine,
            store,
            cluster,
            obs,
            traced: Vec::new(),
        })
    }

    /// Executes one group as a group commit, so its batches share one
    /// follower round trip:
    /// 1. append every ingest batch to the WAL, in offer order;
    /// 2. one replication barrier ([`NodeService::replicate`]);
    /// 3. ingest and answer every request, in order;
    /// 4. checkpoint, now that the WAL and the engine agree.
    fn execute_group(
        &mut self,
        group: impl Iterator<Item = Request>,
        draining: bool,
        replies: &mut Vec<Frame>,
    ) {
        let mut staged: Vec<(Frame, Option<Commit>)> = Vec::new();
        for Request { frame, decoded_us } in group {
            let commit = ingest_payload(&frame).map(|(batch, ctx)| {
                if let (Some(ctx), true) = (ctx, decoded_us > 0) {
                    // Coalesce lap: how long the decoded batch waited for
                    // this tick's commit.
                    let now_us = self.obs.now_us();
                    self.obs.trace_stage(
                        ctx.trace_id,
                        Stage::Coalesce,
                        decoded_us,
                        now_us.saturating_sub(decoded_us),
                    );
                }
                if let Some(refusal) = self.ingest_refusal(draining) {
                    return Err(refusal);
                }
                let adverts: Vec<Advert> = batch.iter().map(|a| Advert::from(*a)).collect();
                self.append(&adverts, ctx).map(|()| adverts)
            });
            staged.push((frame, commit));
        }
        if let Err(refusal) = self.replicate(&staged) {
            for (_, commit) in &mut staged {
                if let Some(commit @ Ok(_)) = commit {
                    *commit = Err(refusal.clone());
                }
            }
        }
        for (frame, commit) in staged {
            replies.push(self.handle_frame(frame, commit, draining));
        }
        self.maybe_checkpoint();
    }

    /// Executes one request frame against the engine, producing the
    /// reply. `commit` is `Some` exactly for the ingest frames: their
    /// group's append-and-barrier outcome.
    fn handle_frame(&mut self, frame: Frame, commit: Option<Commit>, draining: bool) -> Frame {
        let adverts = match commit {
            Some(Err(refusal)) => return refusal,
            Some(Ok(adverts)) => adverts,
            None => Vec::new(),
        };
        match frame {
            Frame::AdvertBatch(_) => self.ingest_batch(&adverts, None),
            Frame::MetricsQuery => {
                Frame::MetricsReport(WireMetrics::from_snapshot(&self.obs.metrics()))
            }
            Frame::TraceQuery(id) => Frame::TraceReport(match id {
                None => self.obs.traces(),
                Some(id) => self.obs.trace_lookup(id).into_iter().collect(),
            }),
            Frame::QuerySnapshot => {
                let mut span = self.obs.span("net", "query_snapshot");
                let estimates: Vec<WireEstimate> = self
                    .engine
                    .snapshot()
                    .iter()
                    .map(|(b, e)| WireEstimate::from_estimate(*b, e))
                    .collect();
                span.field("estimates", estimates.len());
                Frame::Snapshot(estimates)
            }
            Frame::QueryBeacon(beacon) => Frame::BeaconReply(
                self.engine
                    .estimate_of(BeaconId(beacon))
                    .map(|e| WireEstimate::from_estimate(BeaconId(beacon), &e)),
            ),
            Frame::QueryStats => Frame::Stats(WireStats::from_engine(
                self.engine.stats(),
                self.engine.queued(),
            )),
            Frame::Finish => {
                let mut span = self.obs.span("net", "finish");
                let report = self.pass(Engine::finish);
                span.field("samples", report.samples_processed);
                Frame::FinishAck(FinishSummary {
                    samples_processed: report.samples_processed as u64,
                    batches_pushed: report.batches_pushed as u64,
                })
            }
            Frame::PartitionMap(map) => {
                let Some(c) = self.cluster.as_mut() else {
                    return not_clustered();
                };
                if map.epoch < c.map.epoch {
                    return Frame::error(
                        ErrorCode::BadFrame,
                        format!(
                            "stale partition map: epoch {} < held epoch {}",
                            map.epoch, c.map.epoch
                        ),
                    );
                }
                c.map = map;
                // Role reconciliation: the map says who serves each node
                // id. Listing this node's own address under its id makes
                // it the owner; anything else makes it a follower.
                let mine = c
                    .map
                    .nodes
                    .iter()
                    .find(|n| n.node_id == c.node_id)
                    .map(|n| n.addr.clone());
                let held = Frame::JoinAck(c.map.clone());
                match mine {
                    Some(addr) if addr == c.listen_addr => {
                        if c.role == NodeRole::Follower {
                            // Promotion. The replicated stream already
                            // warmed this engine; drain whatever it still
                            // has queued so the first served query sees
                            // the full replicated history.
                            c.role = NodeRole::Owner;
                            self.obs.counter_add("net.cluster.promotions", 1);
                            self.pass(Engine::drain);
                        }
                    }
                    _ => {
                        if c.role == NodeRole::Owner {
                            c.role = NodeRole::Follower;
                            c.link = None;
                            self.obs.counter_add("net.cluster.demotions", 1);
                        }
                    }
                }
                held
            }
            Frame::Forward { seq, ctx, .. } => {
                let ctx = (ctx.trace_id != 0).then_some(ctx);
                let summary = match self.ingest_batch(&adverts, ctx) {
                    Frame::IngestAck(s) => s,
                    err => return err,
                };
                let replica_durable = self
                    .cluster
                    .as_ref()
                    .and_then(|c| c.link.as_ref().map(|l| l.durable))
                    .unwrap_or(0);
                Frame::ForwardAck {
                    seq,
                    summary,
                    replica_durable,
                }
            }
            Frame::Replicate { seq, base, adverts } => {
                if draining {
                    return Frame::error(
                        ErrorCode::ShuttingDown,
                        "server is draining; replication refused",
                    );
                }
                let is_follower = self
                    .cluster
                    .as_ref()
                    .is_some_and(|c| c.role == NodeRole::Follower);
                if !is_follower {
                    return Frame::error(ErrorCode::BadFrame, "only a follower absorbs Replicate");
                }
                let Some(held) = self.store.as_ref().map(|d| d.store.wal_records()) else {
                    return Frame::error(ErrorCode::Internal, "follower has no durability store");
                };
                if base != held {
                    // A gap or a replay: refusing keeps the follower's
                    // WAL a byte prefix of the owner's instead of
                    // silently diverging. The owner treats this as a
                    // dead link.
                    return Frame::error(
                        ErrorCode::Internal,
                        format!("replication gap: owner base {base}, follower holds {held}"),
                    );
                }
                // A follower commits inline: append, then ingest. Its
                // owner's barrier is the round trip this reply ends.
                let adverts: Vec<Advert> = adverts.iter().map(|a| Advert::from(*a)).collect();
                if let Err(refusal) = self.append(&adverts, None) {
                    return refusal;
                }
                match self.ingest_batch(&adverts, None) {
                    Frame::IngestAck(_) => Frame::ReplicateAck {
                        seq,
                        durable: self.store.as_ref().map_or(0, |d| d.store.wal_records()),
                    },
                    err => err,
                }
            }
            Frame::ClusterQuery => {
                // A standalone server answers too (node id 0, empty map),
                // so tooling can probe any node uniformly.
                let (node_id, role, map, replicated_records) = match &self.cluster {
                    None => (0, NodeRole::Owner, WirePartitionMap::default(), 0),
                    Some(c) => (
                        c.node_id,
                        c.role,
                        c.map.clone(),
                        match c.role {
                            // What the follower acked durable.
                            NodeRole::Owner => c.link.as_ref().map_or(0, |l| l.durable),
                            // What this node absorbed — its whole WAL,
                            // which is what a re-attaching owner skips.
                            NodeRole::Follower => {
                                self.store.as_ref().map_or(0, |d| d.store.wal_records())
                            }
                            NodeRole::Front => 0,
                        },
                    ),
                };
                Frame::ClusterReport(ClusterSummary {
                    node_id,
                    role,
                    map,
                    owned_sessions: self.engine.stats().sessions_live as u64,
                    forwarded_batches: 0,
                    forwarded_adverts: 0,
                    replicated_records,
                })
            }
            reply => unreachable!("the reactor answers reply frames itself: {reply:?}"),
        }
    }

    /// `Some(refusal)` when this node may not ingest: it is draining
    /// for shutdown, or it is a follower — only its owner's `Replicate`
    /// stream may feed a follower's engine, the divergence guard that
    /// makes promotion lossless.
    fn ingest_refusal(&self, draining: bool) -> Option<Frame> {
        if draining {
            return Some(Frame::error(
                ErrorCode::ShuttingDown,
                "server is draining; ingest refused",
            ));
        }
        let c = self.cluster.as_ref()?;
        (c.role == NodeRole::Follower).then(|| {
            Frame::error(
                ErrorCode::BadFrame,
                "node is a follower; it accepts only its owner's Replicate stream",
            )
        })
    }

    /// Write-ahead: logs one batch before the engine may see it, in
    /// offer order. An `Err` is the batch's reply: a failed append
    /// refuses the batch with a typed `Internal` error.
    fn append(&mut self, adverts: &[Advert], ctx: Option<TraceCtx>) -> Result<(), Frame> {
        let Some(durable) = self.store.as_mut() else {
            return Ok(());
        };
        let obs = &self.obs;
        let wal_t0 = ctx.and_then(|_| obs.enabled().then(Instant::now));
        if let Err(e) = durable.store.append(adverts) {
            obs.counter_add("net.wal_failures", 1);
            return Err(Frame::error(
                ErrorCode::Internal,
                format!("durability append failed; batch refused: {e}"),
            ));
        }
        if let (Some(ctx), Some(t0)) = (ctx, wal_t0) {
            let duration_us = t0.elapsed().as_micros() as u64;
            obs.trace_stage(
                ctx.trace_id,
                Stage::Wal,
                obs.now_us().saturating_sub(duration_us),
                duration_us,
            );
        }
        Ok(())
    }

    /// The group's replication barrier: on an owner with a live link,
    /// one [`ReplicaLink::pump`] streams every record the group appended
    /// and waits for the follower's durable ack. The tailer reads the
    /// WAL file the appends just extended, so the stream is exactly the
    /// durable log, in order. Each traced batch gets the barrier as its
    /// `Replicate` lap. A failure is counted and drops the link; under
    /// `SyncAck` the `Err` is the refusal every batch of the group gets,
    /// before the engine sees any of them.
    fn replicate(&mut self, staged: &[(Frame, Option<Commit>)]) -> Result<(), Frame> {
        let Some(c) = self.cluster.as_mut() else {
            return Ok(());
        };
        let (NodeRole::Owner, Some(link)) = (c.role, c.link.as_mut()) else {
            return Ok(());
        };
        let committed = || {
            staged
                .iter()
                .filter(|(_, commit)| matches!(commit, Some(Ok(_))))
                .map(|(frame, _)| frame)
        };
        if committed().next().is_none() {
            return Ok(());
        }
        let obs = &self.obs;
        let mut span = obs.span("net", "replicate");
        let t0 = obs.enabled().then(Instant::now);
        let pumped = link.pump();
        if let Some(t0) = t0 {
            let duration_us = t0.elapsed().as_micros() as u64;
            let start_us = obs.now_us().saturating_sub(duration_us);
            for ctx in committed().filter_map(|f| ingest_payload(f).and_then(|(_, ctx)| ctx)) {
                obs.trace_stage(ctx.trace_id, Stage::Replicate, start_us, duration_us);
            }
        }
        match pumped {
            Ok(durable) => {
                span.field("replica_durable", durable);
                Ok(())
            }
            Err(e) => {
                obs.counter_add("net.replication_failures", 1);
                span.field("replication_failed", true);
                c.link = None;
                match c.replication {
                    ReplicationPolicy::SyncAck => Err(Frame::error(
                        ErrorCode::Internal,
                        format!("replication failed; every batch of the group refused: {e}"),
                    )),
                    ReplicationPolicy::LocalOnly => Ok(()),
                }
            }
        }
    }

    /// Ingests one committed batch, draining shard-queue backpressure
    /// in-line so the whole batch is always consumed (mirrors
    /// `Engine::ingest_all`, with per-drain instrumentation). A traced
    /// batch takes the same path: its `Route` lap times the
    /// `Engine::ingest` calls, and it waits for the next engine pass
    /// ([`NodeService::pass`]) to close its `ShardQueue` and `Refit`
    /// laps. Telemetry never feeds the math.
    fn ingest_batch(&mut self, adverts: &[Advert], ctx: Option<TraceCtx>) -> Frame {
        let trace = ctx.filter(|_| self.obs.enabled());
        let mut span = self.obs.span("net", "ingest_batch");
        span.field("adverts", adverts.len());
        let route_start_us = trace.map_or(0, |_| self.obs.now_us());
        let mut route_us = 0;
        let mut total = IngestReport::default();
        let mut offset = 0;
        while offset < adverts.len() {
            let t0 = trace.map(|_| Instant::now());
            let report = self.engine.ingest(&adverts[offset..]);
            if let Some(t0) = t0 {
                route_us += t0.elapsed().as_micros() as u64;
            }
            offset += report.consumed;
            total.absorb(report);
            if offset < adverts.len() {
                // Backpressure: a shard queue is full. Drain and re-offer
                // instead of surfacing an error or dropping the
                // connection.
                self.obs.counter_add("net.backpressure_drains", 1);
                self.pass(Engine::process);
                if report.consumed == 0 && self.engine.queued() > 0 {
                    // Defensive: draining freed nothing, so no progress
                    // is possible. Unreachable with the current engine,
                    // but a stuck loop must never wedge the reactor.
                    span.field("stalled", true);
                    return Frame::error(
                        ErrorCode::Backpressure,
                        format!(
                            "ingest stalled with {} samples queued after a drain",
                            self.engine.queued()
                        ),
                    );
                }
            }
        }
        let obs = &self.obs;
        if let Some(ctx) = trace {
            obs.trace_stage(ctx.trace_id, Stage::Route, route_start_us, route_us);
            self.traced.push((ctx.trace_id, obs.now_us()));
        }
        let summary = IngestSummary::from(total);
        span.field("routed", summary.routed);
        span.field("rejected", summary.rejected());
        obs.counter_add("net.adverts_rx", summary.consumed);
        obs.counter_add("net.adverts_routed", summary.routed);
        if summary.rejected() > 0 {
            obs.counter_add("net.adverts_rejected", summary.rejected());
        }
        Frame::IngestAck(summary)
    }

    /// Runs one engine pass (`process`, `drain` or `finish`) and closes
    /// the `ShardQueue` lap (ingest end to pass start) and the `Refit`
    /// lap (the pass's wall time) of every traced batch waiting for it.
    fn pass<R>(&mut self, pass: impl FnOnce(&mut Engine) -> R) -> R {
        if self.traced.is_empty() {
            return pass(&mut self.engine);
        }
        let start_us = self.obs.now_us();
        let t0 = Instant::now();
        let out = pass(&mut self.engine);
        let refit_us = t0.elapsed().as_micros() as u64;
        for (trace_id, routed_us) in self.traced.drain(..) {
            let queued_us = start_us.saturating_sub(routed_us);
            self.obs
                .trace_stage(trace_id, Stage::ShardQueue, routed_us, queued_us);
            self.obs
                .trace_stage(trace_id, Stage::Refit, start_us, refit_us);
        }
        out
    }

    /// Checkpoints once `checkpoint_every` WAL records have accumulated
    /// since the last snapshot. It runs at the end of a group, where the
    /// WAL and the engine agree: a snapshot taken between a batch's
    /// append and its ingest would record a WAL position ahead of the
    /// engine state, and recovery would skip records the state lacks.
    /// Only the state clone runs on the reactor; the WAL sync and the
    /// snapshot write go to the store's writer thread. A failed write
    /// surfaces here at the next cadence point, which then retries.
    fn maybe_checkpoint(&mut self) {
        let Some(durable) = self.store.as_mut() else {
            return;
        };
        let records = durable.store.wal_records();
        if durable.checkpoint_every > 0
            && records - durable.last_checkpoint >= durable.checkpoint_every
        {
            match durable.store.checkpoint_in_background(&self.engine) {
                Ok(_) => durable.last_checkpoint = records,
                Err(_) => self.obs.counter_add("net.checkpoint_failures", 1),
            }
        }
    }
}

/// An ingest batch's fate once its group has been appended and
/// replicated: the adverts to ingest, or the reply that refuses them.
type Commit = Result<Vec<Advert>, Frame>;

/// The batch and trace context of an ingest frame (`AdvertBatch` or
/// `Forward`); `None` for every other frame.
fn ingest_payload(frame: &Frame) -> Option<(&[WireAdvert], Option<TraceCtx>)> {
    match frame {
        Frame::AdvertBatch(batch) => Some((batch, None)),
        Frame::Forward { ctx, adverts, .. } => Some((adverts, (ctx.trace_id != 0).then_some(*ctx))),
        _ => None,
    }
}

/// The reply for a cluster frame sent to a server with no cluster
/// attachment.
fn not_clustered() -> Frame {
    Frame::error(ErrorCode::BadFrame, "server has no cluster attachment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{NodeEntry, WireError};
    use locble_core::{Estimator, EstimatorConfig};
    use locble_engine::EngineConfig;
    use locble_scenario::fleet_session;
    use locble_scenario::runner::track_observer;
    use locble_store::FsyncPolicy;

    const BEACONS: usize = 10;
    const SEED: u64 = 47;

    fn adverts() -> Vec<Advert> {
        fleet_session(BEACONS, SEED)
            .interleaved_rss()
            .into_iter()
            .map(Advert::from)
            .collect()
    }

    fn engine() -> Engine {
        let mut engine = Engine::new(
            EngineConfig::default(),
            Estimator::new(EstimatorConfig::default()),
            Obs::noop(),
        );
        engine.set_motion(track_observer(&fleet_session(BEACONS, SEED)));
        engine
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("locble-group-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(dir: &Path) -> SessionStore {
        SessionStore::open(dir, FsyncPolicy::Never, Obs::noop()).expect("open store")
    }

    fn cluster(
        role: NodeRole,
        replica: Option<SocketAddr>,
        replication: ReplicationPolicy,
    ) -> ClusterConfig {
        ClusterConfig {
            node_id: 1,
            role,
            map: WirePartitionMap::default(),
            replica_addr: replica.map(|a| a.to_string()),
            replication,
        }
    }

    fn follower(dir: &Path) -> ServerHandle {
        let config = cluster(NodeRole::Follower, None, ReplicationPolicy::SyncAck);
        Server::bind_cluster(
            engine(),
            store(dir),
            0,
            ServerConfig::default(),
            config,
            Obs::noop(),
        )
        .expect("bind follower")
    }

    /// An owner driven tick by tick through [`Service::execute`], linked
    /// to the follower at `replica` when there is one.
    fn owner(
        dir: &Path,
        replica: Option<SocketAddr>,
        replication: ReplicationPolicy,
        checkpoint_every: u64,
        obs: Obs,
    ) -> NodeService {
        NodeService::new(
            engine(),
            Some((store(dir), checkpoint_every)),
            Some(cluster(NodeRole::Owner, replica, replication)),
            "127.0.0.1:1".parse().expect("addr"),
            obs,
        )
        .expect("owner")
    }

    fn wire(adverts: &[Advert]) -> Vec<WireAdvert> {
        adverts.iter().map(|a| WireAdvert::from(*a)).collect()
    }

    fn request(frame: Frame) -> Request {
        Request {
            frame,
            decoded_us: 0,
        }
    }

    /// One tick of `AdvertBatch` requests, one per chunk.
    fn batches<'a>(chunks: impl Iterator<Item = &'a [Advert]>) -> Vec<Request> {
        chunks
            .map(|c| request(Frame::AdvertBatch(wire(c))))
            .collect()
    }

    fn wal_records(node: &NodeService) -> u64 {
        node.store.as_ref().map_or(0, |d| d.store.wal_records())
    }

    fn link(node: &NodeService) -> Option<&ReplicaLink> {
        node.cluster.as_ref().and_then(|c| c.link.as_ref())
    }

    fn consumed(reply: &Frame) -> u64 {
        match reply {
            Frame::IngestAck(summary) => summary.consumed,
            other => panic!("expected an ingest ack, got {other:?}"),
        }
    }

    fn error_code(reply: &Frame) -> ErrorCode {
        match reply {
            Frame::Error(WireError { code, .. }) => *code,
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn a_tick_of_batches_costs_one_follower_round_trip() {
        let (follower_dir, owner_dir) = (fresh_dir("rt-follower"), fresh_dir("rt-owner"));
        let follower = follower(&follower_dir);
        let obs = Obs::ring(64);
        let mut node = owner(
            &owner_dir,
            Some(follower.addr()),
            ReplicationPolicy::SyncAck,
            0,
            obs.clone(),
        );
        let adverts = adverts();
        let requests = adverts[..8 * 64]
            .chunks(64)
            .enumerate()
            .map(|(i, chunk)| {
                request(Frame::Forward {
                    seq: i as u64,
                    ctx: TraceCtx::mint(100 + i as u64),
                    adverts: wire(chunk),
                })
            })
            .collect();

        let replies = node.execute(requests, false);
        let wal = wal_records(&node);
        assert_eq!(wal, 8 * 64);
        assert_eq!(replies.len(), 8);
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                Frame::ForwardAck {
                    seq,
                    summary,
                    replica_durable,
                } => {
                    assert_eq!(*seq, i as u64);
                    assert_eq!(summary.consumed, 64);
                    assert_eq!(*replica_durable, wal, "acked after the barrier");
                }
                other => panic!("batch {i}: expected a forward ack, got {other:?}"),
            }
        }
        let link = link(&node).expect("link survives a healthy barrier");
        assert_eq!(link.seq, 1, "one Replicate frame carries the whole tick");
        let mut client = Client::connect(follower.addr()).expect("connect follower");
        let held = client.cluster().expect("cluster query").replicated_records;
        assert_eq!(
            held, wal,
            "the follower holds every record the owner logged"
        );

        // Every traced batch keeps its own WAL lap and shares the
        // barrier as its Replicate lap.
        let replicate_laps: Vec<(u64, u64)> = (0..8)
            .map(|i| {
                let record = obs.trace_lookup(100 + i).expect("trace recorded");
                assert!(
                    record.lap(Stage::Wal).is_some(),
                    "batch {i} lost its WAL lap"
                );
                let lap = record.lap(Stage::Replicate).expect("replicate lap");
                (lap.start_us, lap.duration_us)
            })
            .collect();
        assert!(replicate_laps.iter().all(|lap| *lap == replicate_laps[0]));

        drop(client);
        follower.shutdown();
        let _ = std::fs::remove_dir_all(&follower_dir);
        let _ = std::fs::remove_dir_all(&owner_dir);
    }

    /// A traced batch runs the untraced schedule: a tick of traced
    /// batches costs the one coalesced engine pass an untraced tick
    /// costs, and that pass closes every batch's queue and refit laps.
    #[test]
    fn a_tick_of_traced_batches_costs_one_engine_pass() {
        let obs = Obs::ring(64);
        let addr = "127.0.0.1:1".parse().expect("addr");
        let mut node = NodeService::new(engine(), None, None, addr, obs.clone()).expect("node");
        let adverts = adverts();
        let requests = adverts[..8 * 64]
            .chunks(64)
            .enumerate()
            .map(|(i, chunk)| {
                request(Frame::Forward {
                    seq: i as u64,
                    ctx: TraceCtx::mint(200 + i as u64),
                    adverts: wire(chunk),
                })
            })
            .collect();

        let before = node.engine.stats().processes;
        let replies = node.execute(requests, false);
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                Frame::ForwardAck { seq, summary, .. } => {
                    assert_eq!(*seq, i as u64);
                    assert_eq!(summary.consumed, 64);
                }
                other => panic!("batch {i}: expected a forward ack, got {other:?}"),
            }
        }
        node.settle();
        assert_eq!(
            node.engine.stats().processes,
            before + 1,
            "eight traced batches share the tick's one engine pass"
        );
        for i in 0..8 {
            let record = obs.trace_lookup(200 + i).expect("trace recorded");
            for stage in [Stage::Route, Stage::ShardQueue, Stage::Refit] {
                assert!(
                    record.lap(stage).is_some(),
                    "batch {i} lacks a {} lap: {:?}",
                    stage.name(),
                    record.laps
                );
            }
        }
    }

    /// Runs a 4-batch tick against an owner whose follower has stopped;
    /// returns the owner and the tick's replies.
    fn tick_with_dead_follower(
        tag: &str,
        replication: ReplicationPolicy,
        obs: Obs,
    ) -> (NodeService, Vec<Frame>) {
        let (follower_dir, owner_dir) = (fresh_dir(&format!("{tag}-f")), fresh_dir(tag));
        let follower = follower(&follower_dir);
        let mut node = owner(&owner_dir, Some(follower.addr()), replication, 0, obs);
        follower.shutdown();
        let adverts = adverts();
        let replies = node.execute(batches(adverts[..4 * 50].chunks(50)), false);
        assert_eq!(wal_records(&node), 4 * 50, "the WAL keeps every batch");
        assert!(link(&node).is_none(), "a failed barrier drops the link");
        let _ = std::fs::remove_dir_all(&follower_dir);
        let _ = std::fs::remove_dir_all(&owner_dir);
        (node, replies)
    }

    #[test]
    fn sync_ack_refuses_the_whole_group_when_the_barrier_fails() {
        let (mut node, replies) =
            tick_with_dead_follower("sync", ReplicationPolicy::SyncAck, Obs::noop());
        assert_eq!(replies.len(), 4);
        for reply in &replies {
            assert_eq!(error_code(reply), ErrorCode::Internal);
            assert_eq!(reply, &replies[0], "one refusal for the whole group");
        }
        let stats = node.engine.stats();
        assert_eq!(stats.samples_routed + stats.samples_rejected, 0);

        // Degraded: the next tick is acked unreplicated.
        let adverts = adverts();
        let replies = node.execute(batches(adverts[200..300].chunks(50)), false);
        assert_eq!(replies.iter().map(consumed).sum::<u64>(), 100);
        assert_eq!(wal_records(&node), 300);
    }

    #[test]
    fn local_only_acks_the_group_and_counts_one_failure() {
        let obs = Obs::ring(64);
        let (node, replies) =
            tick_with_dead_follower("local", ReplicationPolicy::LocalOnly, obs.clone());
        assert_eq!(replies.iter().map(consumed).sum::<u64>(), 200);
        assert_eq!(node.engine.stats().samples_routed, 200);
        assert_eq!(obs.metrics().counters["net.replication_failures"], 1);
    }

    #[test]
    fn a_partition_map_ends_the_group_before_it() {
        let dir = fresh_dir("demote");
        let mut node = owner(&dir, None, ReplicationPolicy::SyncAck, 0, Obs::noop());
        let adverts = adverts();
        // Epoch 1 lists node 1 at another address: this node is demoted.
        let demote = WirePartitionMap {
            epoch: 1,
            nodes: vec![NodeEntry {
                node_id: 1,
                addr: "127.0.0.1:2".to_string(),
            }],
        };
        let requests = vec![
            request(Frame::AdvertBatch(wire(&adverts[..40]))),
            request(Frame::PartitionMap(demote)),
            request(Frame::AdvertBatch(wire(&adverts[40..80]))),
        ];
        let replies = node.execute(requests, false);
        assert_eq!(consumed(&replies[0]), 40);
        assert!(matches!(replies[1], Frame::JoinAck(_)), "{:?}", replies[1]);
        assert_eq!(error_code(&replies[2]), ErrorCode::BadFrame);
        assert_eq!(
            wal_records(&node),
            40,
            "the refused batch never reaches the WAL"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_at_group_boundaries_recover_bit_identically() {
        let dir = fresh_dir("checkpoint");
        let mut node = owner(&dir, None, ReplicationPolicy::SyncAck, 1, Obs::noop());
        let adverts = adverts();
        let mut ticks = 0;
        for tick in adverts.chunks(4 * 25) {
            let replies = node.execute(batches(tick.chunks(25)), false);
            assert_eq!(replies.iter().map(consumed).sum::<u64>(), tick.len() as u64);
            node.settle();
            ticks += 1;
        }
        assert!(ticks >= 3, "the stream must span several multi-batch ticks");
        // The last group's checkpoint runs on the writer thread.
        let durable = &mut node.store.as_mut().expect("durable").store;
        durable.wait_checkpoint().expect("background checkpoint");

        let config = node.engine.config().clone();
        let prototype = node.engine.prototype().clone();
        let (_, mut recovered, report) =
            SessionStore::recover(&dir, FsyncPolicy::Never, config, prototype, Obs::noop())
                .expect("recover");
        assert_eq!(report.wal_records, adverts.len() as u64);
        assert_eq!(
            report.replayed, 0,
            "the last group's checkpoint covers the WAL"
        );

        let mut live = node.engine;
        live.finish();
        recovered.finish();
        let (got, want) = (recovered.snapshot(), live.snapshot());
        assert!(want.len() >= 6, "the live engine localized too few beacons");
        // Debug prints every f64 in its shortest round-trip form, so equal
        // text means bit-identical estimates, every field included.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A background checkpoint that fails is counted at the next cadence
    /// point and at shutdown, and leaves the previous snapshot plus the
    /// WAL, which recover bit-identically.
    #[test]
    fn failed_background_checkpoint_is_counted_and_the_previous_snapshot_recovers() {
        let dir = fresh_dir("squat");
        let obs = Obs::ring(64);
        let failures = || obs.metrics().counter("net.checkpoint_failures");
        let mut node = owner(&dir, None, ReplicationPolicy::SyncAck, 1, obs.clone());
        let adverts = adverts();
        let run = |node: &mut NodeService, adverts: &[Advert]| {
            for tick in adverts.chunks(4 * 25) {
                let replies = node.execute(batches(tick.chunks(25)), false);
                assert_eq!(replies.iter().map(consumed).sum::<u64>(), tick.len() as u64);
                node.settle();
            }
        };
        let half = adverts.len() / 2;
        run(&mut node, &adverts[..half]);
        let durable = &mut node.store.as_mut().expect("durable").store;
        durable
            .wait_checkpoint()
            .expect("checkpoints before the fault");
        // A directory squatting on the temp name fails every later write.
        std::fs::create_dir(dir.join("snapshot.tmp")).expect("squat");
        run(&mut node, &adverts[half..]);
        let counted = failures();
        assert!(
            counted > 0,
            "a failed background checkpoint must be counted"
        );

        let config = node.engine.config().clone();
        let prototype = node.engine.prototype().clone();
        let mut live = node.finish();
        assert!(failures() > counted, "the shutdown checkpoint fails too");
        let (_, mut recovered, report) =
            SessionStore::recover(&dir, FsyncPolicy::Never, config, prototype, Obs::noop())
                .expect("recover");
        assert!(report.snapshot_found);
        assert_eq!(report.skipped, half as u64, "the pre-fault snapshot stands");
        assert_eq!(report.replayed, (adverts.len() - half) as u64);

        live.finish();
        recovered.finish();
        let (got, want) = (recovered.snapshot(), live.snapshot());
        assert!(want.len() >= 6, "the live engine localized too few beacons");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
