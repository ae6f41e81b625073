//! The cluster front: a reactor service that partitions client batches
//! across owner nodes.
//!
//! Clients connect to the front exactly as they would to a standalone
//! server — `AdvertBatch` in, `IngestAck` out, or a sequenced (and
//! possibly traced) `Forward` in, `ForwardAck` out — and never see the
//! partitioning. It runs on the same epoll reactor as a node
//! ([`Server::host`]); only the per-tick execute step is its own.
//!
//! Each tick's requests run as one pipeline. A batch is split by the
//! rendezvous router into per-owner [`Frame::Forward`] buckets (arrival
//! order preserved inside each, so every beacon's sample order is
//! untouched), a point query is relayed to its owner, and a
//! snapshot/stats/finish fans out to every owner. All of a tick's
//! sub-requests are written to each owner's cached connection before any
//! reply is read; the replies then fold back into their requests (acks
//! and stats sum, snapshots merge in beacon order). An owner answers a
//! connection in order, so a query that follows a batch on one client
//! connection reaches the owner after that batch.
//!
//! Owner I/O blocks, but every connect, read and write times out after
//! [`OWNER_TIMEOUT`]. An owner failure fails every request of the tick
//! with a part on that owner and evicts its connection.
//!
//! Membership lives here: an installed `PartitionMap` — the failover
//! driver's lever — is re-broadcast to every node it lists, which is
//! what promotes a follower.

use crate::router::ClusterRouter;
use locble_ble::BeaconId;
use locble_net::conn::WRITE_BACKPRESSURE_BYTES;
use locble_net::server::{ReactorHandle, Request, Service};
use locble_net::wire::{
    encode_frame, ClusterSummary, ErrorCode, FinishSummary, Frame, IngestSummary, NodeEntry,
    NodeRole, WireEstimate, WireMetrics, WirePartitionMap, WireStats,
};
use locble_net::{Client, ClientError, Server, ServerConfig};
use locble_obs::{Obs, Stage, TraceCtx};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Front tuning knobs.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Address to bind; port 0 picks a free one.
    pub addr: String,
    /// Initial membership view (may be empty; install one later via
    /// `PartitionMap`).
    pub map: WirePartitionMap,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map: WirePartitionMap::default(),
        }
    }
}

/// Bound on each owner connect, read and write.
const OWNER_TIMEOUT: Duration = Duration::from_secs(5);

/// Sub-requests per owner per round: their replies (each well under
/// 1 KiB) stay below the [`WRITE_BACKPRESSURE_BYTES`] at which an owner
/// stops reading, so a round is always written in full before any reply
/// is read. An unbounded snapshot reply closes its round.
const ROUND_SUBS: usize = WRITE_BACKPRESSURE_BYTES / 1024;

/// Namespace for [`Front::bind`].
pub struct Front;

impl Front {
    /// Binds the front and starts serving client connections.
    pub fn bind(config: FrontConfig, obs: Obs) -> std::io::Result<FrontHandle> {
        let router = Arc::new(Mutex::new(Arc::new(ClusterRouter::new(&config.map))));
        let service = FrontService {
            router: Arc::clone(&router),
            obs: obs.clone(),
            owners: HashMap::new(),
            seq: 0,
            forwarded_batches: 0,
            forwarded_adverts: 0,
        };
        let server = ServerConfig {
            addr: config.addr,
            ..ServerConfig::default()
        };
        let reactor = Server::host(server, obs, |_| Ok(service))?;
        Ok(FrontHandle { reactor, router })
    }
}

/// Control handle for a running front. Dropping it shuts the front
/// down.
pub struct FrontHandle {
    reactor: ReactorHandle<FrontService>,
    router: Arc<Mutex<Arc<ClusterRouter>>>,
}

impl FrontHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// The membership view currently routed by.
    pub fn map(&self) -> WirePartitionMap {
        self.router
            .lock()
            .expect("router mutex not poisoned")
            .to_map()
    }

    /// Graceful shutdown, as for a node: answer every buffered complete
    /// frame (batches get `ShuttingDown`), flush within the write-timeout
    /// grace, join the reactor, close the owner connections.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

impl std::fmt::Debug for FrontHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontHandle")
            .field("addr", &self.addr())
            .finish()
    }
}

/// The front's state, owned by its reactor thread.
struct FrontService {
    /// Shared with the handle, which reads the current map.
    router: Arc<Mutex<Arc<ClusterRouter>>>,
    obs: Obs,
    /// Cached owner connections by node id, dropped whenever a map is
    /// installed (addresses may have moved).
    owners: HashMap<u64, Client>,
    /// Last `Forward` sequence number sent (echoed by its `ForwardAck`).
    seq: u64,
    forwarded_batches: u64,
    forwarded_adverts: u64,
}

/// How one request's reply is built from its owners' replies.
enum Plan {
    /// Settled: answered without the owners, or failed.
    Done(Frame),
    /// A batch forwarded in per-owner buckets; the acks' summaries sum.
    Ingest {
        summary: IngestSummary,
        /// The client's sequence number when the batch came as a
        /// `Forward` (answered with a `ForwardAck`), `None` for an
        /// `AdvertBatch`.
        seq: Option<u64>,
        /// The stamped context, lap start (µs) and start instant of a
        /// traced batch's Forward lap.
        trace: Option<(TraceCtx, u64, Instant)>,
    },
    /// A point query: its owner's reply, verbatim.
    Relay,
    Snapshot(Vec<WireEstimate>),
    Stats(WireStats),
    Finish(FinishSummary),
}

/// One sub-request bound for one owner.
struct Sub {
    /// Index of the request (plan) it belongs to.
    plan: usize,
    /// The `Forward` sequence number its ack must echo (0 otherwise).
    seq: u64,
    frame: Frame,
}

/// A run of owner-bound requests executed as one pipeline.
struct Pipeline {
    router: Arc<ClusterRouter>,
    plans: Vec<Plan>,
    /// Per owner, indexed like `router.nodes()`, in request order.
    subs: Vec<Vec<Sub>>,
}

impl Pipeline {
    fn new(router: Arc<ClusterRouter>) -> Pipeline {
        let subs = router.nodes().iter().map(|_| Vec::new()).collect();
        Pipeline {
            router,
            plans: Vec::new(),
            subs,
        }
    }
}

impl Service for FrontService {
    type Output = ();

    fn execute(&mut self, requests: Vec<Request>, draining: bool) -> Vec<Frame> {
        let mut replies = Vec::with_capacity(requests.len());
        let mut pipeline = Pipeline::new(self.router());
        for Request { frame, .. } in requests {
            match frame {
                Frame::AdvertBatch(_)
                | Frame::Forward { .. }
                | Frame::QueryBeacon(_)
                | Frame::QuerySnapshot
                | Frame::QueryStats
                | Frame::Finish => self.plan(&mut pipeline, frame, draining),
                local => {
                    // Local requests read or change state the requests
                    // before them touch: finish those first.
                    replies.extend(self.run(pipeline));
                    replies.push(self.local(local));
                    pipeline = Pipeline::new(self.router());
                }
            }
        }
        replies.extend(self.run(pipeline));
        replies
    }

    fn finish(self) {}
}

impl FrontService {
    fn router(&self) -> Arc<ClusterRouter> {
        Arc::clone(&self.router.lock().expect("router mutex not poisoned"))
    }

    /// A connected client for `entry`, dialing if needed.
    fn owner(&mut self, entry: &NodeEntry) -> Result<&mut Client, ClientError> {
        match self.owners.entry(entry.node_id) {
            Entry::Occupied(cached) => Ok(cached.into_mut()),
            Entry::Vacant(slot) => Ok(slot.insert(Client::connect_with(
                entry.addr.as_str(),
                OWNER_TIMEOUT,
                OWNER_TIMEOUT,
            )?)),
        }
    }

    /// Adds one owner-bound request to the pipeline.
    fn plan(&mut self, p: &mut Pipeline, frame: Frame, draining: bool) {
        let idx = p.plans.len();
        let plan = match frame {
            Frame::AdvertBatch(_) | Frame::Forward { .. } if draining => Plan::Done(Frame::error(
                ErrorCode::ShuttingDown,
                "front is draining; ingest refused",
            )),
            Frame::AdvertBatch(batch) => self.plan_batch(p, idx, None, None, batch),
            Frame::Forward { seq, ctx, adverts } => {
                let ctx = (ctx.trace_id != 0).then_some(ctx);
                self.plan_batch(p, idx, Some(seq), ctx, adverts)
            }
            Frame::QueryBeacon(beacon) => match p.router.owner_index(BeaconId(beacon)) {
                Some(owner) => {
                    p.subs[owner].push(Sub {
                        plan: idx,
                        seq: 0,
                        frame: Frame::QueryBeacon(beacon),
                    });
                    Plan::Relay
                }
                None => Plan::Done(Frame::error(ErrorCode::Internal, "empty partition map")),
            },
            fan_out => {
                for subs in &mut p.subs {
                    subs.push(Sub {
                        plan: idx,
                        seq: 0,
                        frame: fan_out.clone(),
                    });
                }
                match fan_out {
                    Frame::QuerySnapshot => Plan::Snapshot(Vec::new()),
                    Frame::QueryStats => Plan::Stats(WireStats::default()),
                    _ => Plan::Finish(FinishSummary::default()),
                }
            }
        };
        p.plans.push(plan);
    }

    /// Splits one client batch into per-owner `Forward` buckets. `seq`
    /// is the client's sequence number of a `Forward`.
    fn plan_batch(
        &mut self,
        p: &mut Pipeline,
        idx: usize,
        seq: Option<u64>,
        ctx: Option<TraceCtx>,
        batch: Vec<locble_net::WireAdvert>,
    ) -> Plan {
        let Some(buckets) = p.router.partition(batch, |a| BeaconId(a.beacon)) else {
            return Plan::Done(Frame::error(ErrorCode::Internal, "empty partition map"));
        };
        // The front's trace table gets the Forward lap; the owner's
        // table gets the downstream laps under the same trace id.
        let trace = ctx.map(|c| {
            let stamped = c.with_stage(Stage::Forward);
            self.obs.trace_begin(stamped);
            (stamped, self.obs.now_us(), Instant::now())
        });
        let fwd_ctx = trace.map_or(TraceCtx::default(), |(stamped, _, _)| stamped);
        for (owner, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.seq += 1;
            p.subs[owner].push(Sub {
                plan: idx,
                seq: self.seq,
                frame: Frame::Forward {
                    seq: self.seq,
                    ctx: fwd_ctx,
                    adverts: bucket,
                },
            });
        }
        Plan::Ingest {
            summary: IngestSummary::default(),
            seq,
            trace,
        }
    }

    /// Executes a pipeline: per round, write every owner's next
    /// sub-requests, then read and fold their replies.
    fn run(&mut self, p: Pipeline) -> Vec<Frame> {
        let Pipeline {
            router,
            mut plans,
            subs,
        } = p;
        let mut next = vec![0; subs.len()];
        let mut failed = vec![false; subs.len()];
        loop {
            let mut sent = Vec::with_capacity(subs.len());
            for (owner, queue) in subs.iter().enumerate() {
                let start = next[owner];
                if failed[owner] || start == queue.len() {
                    sent.push(start..start);
                    continue;
                }
                let end = round_end(queue, start);
                let mut bytes = Vec::new();
                for sub in &queue[start..end] {
                    bytes.extend_from_slice(&encode_frame(&sub.frame));
                }
                let entry = &router.nodes()[owner];
                let written = self.owner(entry).and_then(|client| client.send_raw(&bytes));
                if let Err(e) = written {
                    self.fail_owner(entry, queue, &mut plans, e);
                    failed[owner] = true;
                }
                next[owner] = end;
                sent.push(start..end);
            }
            if sent.iter().all(|r| r.is_empty()) {
                break;
            }
            for (owner, range) in sent.into_iter().enumerate() {
                let entry = &router.nodes()[owner];
                for sub in &subs[owner][range] {
                    if failed[owner] {
                        break;
                    }
                    let folded = self
                        .owner(entry)
                        .and_then(|client| client.read_frame())
                        .and_then(|reply| self.fold(&mut plans[sub.plan], sub.seq, reply));
                    if let Err(e) = folded {
                        self.fail_owner(entry, &subs[owner], &mut plans, e);
                        failed[owner] = true;
                    }
                }
            }
        }
        plans.into_iter().map(|plan| self.reply(plan)).collect()
    }

    /// Fails every request with a part on `entry` and drops its
    /// connection so the next use redials.
    fn fail_owner(&mut self, entry: &NodeEntry, queue: &[Sub], plans: &mut [Plan], e: ClientError) {
        self.owners.remove(&entry.node_id);
        self.obs.counter_add("front.forward_failures", 1);
        let message = format!("owner node {} ({}) failed: {e}", entry.node_id, entry.addr);
        for sub in queue {
            plans[sub.plan] = Plan::Done(Frame::error(ErrorCode::Internal, message.clone()));
        }
    }

    /// Folds one owner reply into its request's plan. An `Err` means the
    /// owner's reply stream is out of step: an owner failure.
    fn fold(&mut self, plan: &mut Plan, seq: u64, reply: Frame) -> Result<(), ClientError> {
        match (&mut *plan, reply) {
            // Already settled: the reply only keeps the stream aligned.
            (Plan::Done(_), _) => {}
            (_, Frame::Error(e)) => *plan = Plan::Done(Frame::Error(e)),
            (Plan::Relay, reply) => *plan = Plan::Done(reply),
            (
                Plan::Ingest { summary, .. },
                Frame::ForwardAck {
                    seq: echoed,
                    summary: part,
                    ..
                },
            ) => {
                if echoed != seq {
                    return Err(ClientError::UnexpectedFrame("ForwardAck seq echo"));
                }
                summary.absorb(part);
                self.forwarded_batches += 1;
                self.forwarded_adverts += part.consumed;
            }
            (Plan::Snapshot(all), Frame::Snapshot(part)) => all.extend(part),
            (Plan::Stats(total), Frame::Stats(s)) => {
                total.samples_routed += s.samples_routed;
                total.samples_rejected += s.samples_rejected;
                total.samples_processed += s.samples_processed;
                total.sessions_created += s.sessions_created;
                total.sessions_evicted += s.sessions_evicted;
                total.sessions_live += s.sessions_live;
                total.batches_pushed += s.batches_pushed;
                total.batches_rejected += s.batches_rejected;
                total.processes += s.processes;
                total.queued += s.queued;
            }
            (Plan::Finish(total), Frame::FinishAck(s)) => {
                total.samples_processed += s.samples_processed;
                total.batches_pushed += s.batches_pushed;
            }
            _ => return Err(ClientError::UnexpectedFrame("a reply matching the request")),
        }
        Ok(())
    }

    /// The client reply a settled plan stands for.
    fn reply(&mut self, plan: Plan) -> Frame {
        match plan {
            Plan::Done(reply) => reply,
            Plan::Relay => Frame::error(ErrorCode::Internal, "owner sent no reply"),
            Plan::Ingest {
                summary,
                seq,
                trace,
            } => {
                self.obs
                    .counter_add("front.adverts_forwarded", summary.consumed);
                if let Some((stamped, start_us, t0)) = trace {
                    self.obs.trace_stage(
                        stamped.trace_id,
                        Stage::Forward,
                        start_us,
                        t0.elapsed().as_micros() as u64,
                    );
                }
                match seq {
                    // A front has no follower.
                    Some(seq) => Frame::ForwardAck {
                        seq,
                        summary,
                        replica_durable: 0,
                    },
                    None => Frame::IngestAck(summary),
                }
            }
            // Owners return ascending beacon ids and partitions are
            // disjoint, so a sort by beacon restores the global order a
            // single node would have served.
            Plan::Snapshot(mut merged) => {
                merged.sort_by_key(|e| e.beacon);
                Frame::Snapshot(merged)
            }
            Plan::Stats(total) => Frame::Stats(total),
            Plan::Finish(total) => Frame::FinishAck(total),
        }
    }

    /// Answers a request the front serves itself.
    fn local(&mut self, frame: Frame) -> Frame {
        match frame {
            Frame::MetricsQuery => {
                Frame::MetricsReport(WireMetrics::from_snapshot(&self.obs.metrics()))
            }
            Frame::TraceQuery(id) => Frame::TraceReport(match id {
                None => self.obs.traces(),
                Some(id) => self.obs.trace_lookup(id).into_iter().collect(),
            }),
            Frame::ClusterQuery => Frame::ClusterReport(ClusterSummary {
                node_id: 0,
                role: NodeRole::Front,
                map: self.router().to_map(),
                owned_sessions: 0,
                forwarded_batches: self.forwarded_batches,
                forwarded_adverts: self.forwarded_adverts,
                replicated_records: 0,
            }),
            Frame::PartitionMap(map) => {
                // The failover driver's lever: install and re-broadcast,
                // so every listed node reconciles its role against the
                // new view (that broadcast is what promotes a follower).
                let held = self.router().epoch();
                if map.epoch < held {
                    return Frame::error(
                        ErrorCode::BadFrame,
                        format!(
                            "stale partition map: epoch {} < held epoch {held}",
                            map.epoch
                        ),
                    );
                }
                let installed = self.install(&map);
                self.obs.counter_add("front.map_installs", 1);
                Frame::JoinAck(installed)
            }
            Frame::Replicate { .. } => {
                Frame::error(ErrorCode::BadFrame, "the front owns no partition")
            }
            other => unreachable!("owner-bound or reply frame answered locally: {other:?}"),
        }
    }

    /// Routes by `map` from now on and pushes it to every node it
    /// lists, best-effort over fresh connections (a node being replaced
    /// is typically unreachable — that must not block the install).
    /// Returns the installed map.
    fn install(&mut self, map: &WirePartitionMap) -> WirePartitionMap {
        let router = ClusterRouter::new(map);
        let installed = router.to_map();
        *self.router.lock().expect("router mutex not poisoned") = Arc::new(router);
        self.owners.clear();
        for entry in &installed.nodes {
            let pushed = Client::connect_with(entry.addr.as_str(), OWNER_TIMEOUT, OWNER_TIMEOUT)
                .and_then(|mut client| client.install_map(installed.clone()));
            if pushed.is_err() {
                self.obs.counter_add("front.map_push_failures", 1);
            }
        }
        installed
    }
}

/// Where one owner's round starting at `start` ends: after
/// [`ROUND_SUBS`] sub-requests, or right after a snapshot query.
fn round_end(queue: &[Sub], start: usize) -> usize {
    let end = (start + ROUND_SUBS).min(queue.len());
    queue[start..end]
        .iter()
        .position(|sub| matches!(sub.frame, Frame::QuerySnapshot))
        .map_or(end, |i| start + i + 1)
}
