//! Workload inputs: seeded Table-1 fleet sessions, tiled in time into a
//! long stream, cut into per-connection request lists and pre-encoded as
//! wire frames.
//!
//! Pass `k` replays session `k mod S` with beacon ids offset by `k·N`
//! and timestamps offset by `k·P`. The observer's motion track is tiled
//! the same way, so every pass sees its own session's displacement and
//! ground truth. With `P` well above the walk length and the engine's
//! 60 s idle eviction, the live session count stays bounded (about
//! `N · 60 / P`) however long the stream is.

use locble_ble::BeaconId;
use locble_engine::Advert;
use locble_geom::{TimedPoint, Trajectory, Vec2};
use locble_motion::MotionTrack;
use locble_net::wire::{encode_frame, Frame, WireAdvert};
use locble_scenario::runner::track_observer;
use locble_scenario::world::{fleet_session, Session};
use std::collections::BTreeMap;

/// Beacons per pass (each session's fleet size).
pub const BEACONS: usize = 500;
/// Distinct sessions a stream cycles through. One session replayed
/// over and over made every figure hinge on that one seed's beacon
/// layout and noise (median error varied ±9% between seeds); four
/// average it out.
pub const SESSIONS: usize = 4;
/// Stream-time offset between passes, seconds. The walk lasts 6.4 s;
/// a shorter period packs more than `max_sessions` live sessions into
/// the 60 s eviction horizon and the engine starts refusing adverts.
pub const PERIOD_S: f64 = 15.4;
/// Passes per round: one fresh node replays this many passes.
pub const PASSES: usize = 16;
/// Client connections the generator drives (one per core of the
/// reference 2-core machine).
pub const LANES: usize = 2;
/// The last passes whose beacons are scored for accuracy, one per
/// session: they span `3·P + 6.4 s`, inside the 60 s eviction, so their
/// sessions are still live when the stream ends.
pub const SCORED_PASSES: usize = SESSIONS;

/// The three serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 128-advert frames to one durable node, a query every 16 batches.
    Fleet,
    /// 8-advert frames to one durable node, a query after every batch.
    Trickle,
    /// The fleet's frames through the cluster front to two owners, each
    /// with a synchronously acked follower; a query every 8 batches.
    Cluster,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "trickle" => Some(Workload::Trickle),
            "cluster" => Some(Workload::Cluster),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Trickle => "trickle",
            Workload::Cluster => "cluster",
        }
    }

    /// Adverts per `AdvertBatch` frame.
    pub fn frame_len(self) -> usize {
        match self {
            Workload::Fleet | Workload::Cluster => 128,
            Workload::Trickle => 8,
        }
    }

    /// A `QueryBeacon` follows every this many batches on a connection.
    /// The cluster asks twice as often as the fleet because its rounds
    /// are four times longer: three quiet rounds must hold the 1,000
    /// queries a p99 needs.
    pub fn query_every(self) -> usize {
        match self {
            Workload::Fleet => 16,
            Workload::Trickle => 1,
            Workload::Cluster => 8,
        }
    }
}

/// The time-tiled stream and everything needed to score it.
pub struct Tiled {
    /// Every advert of every pass, in stream-time order.
    pub adverts: Vec<Advert>,
    /// The observer tracks, tiled like the adverts.
    pub motion: MotionTrack,
    /// Ground truth in the observer's local frame, per session, by base
    /// beacon id.
    pub truth: Vec<BTreeMap<u32, Vec2>>,
    /// Passes tiled.
    pub passes: usize,
}

impl Tiled {
    /// Ground truth of a tiled beacon id.
    pub fn truth_of(&self, beacon: BeaconId) -> Option<Vec2> {
        let session = &self.truth[Tiled::pass_of(beacon) % self.truth.len()];
        session.get(&(beacon.0 % BEACONS as u32)).copied()
    }

    /// The pass a tiled beacon id belongs to.
    pub fn pass_of(beacon: BeaconId) -> usize {
        beacon.0 as usize / BEACONS
    }
}

/// Builds the [`SESSIONS`] sessions of `seed` and tiles them over
/// `passes` passes.
pub fn build(seed: u64, passes: usize) -> Tiled {
    let sessions: Vec<Session> = (0..SESSIONS as u64)
        .map(|j| fleet_session(BEACONS, seed.wrapping_mul(SESSIONS as u64).wrapping_add(j)))
        .collect();
    tile(&sessions, passes, PERIOD_S)
}

/// Tiles `sessions` in time: pass `k` replays session `k mod S` with
/// ids shifted by `k·N` and time by `k·period_s`.
pub fn tile(sessions: &[Session], passes: usize, period_s: f64) -> Tiled {
    let streams: Vec<Vec<(BeaconId, f64, f64)>> =
        sessions.iter().map(Session::interleaved_rss).collect();
    for stream in &streams {
        let last = stream.last().map_or(0.0, |a| a.1);
        assert!(
            last < period_s,
            "a {last} s session does not fit a {period_s} s pass"
        );
    }
    let mut adverts = Vec::with_capacity(streams.iter().map(Vec::len).max().unwrap_or(0) * passes);
    for k in 0..passes {
        let id_offset = (k * BEACONS) as u32;
        let t_offset = k as f64 * period_s;
        adverts.extend(
            streams[k % streams.len()]
                .iter()
                .map(|&(beacon, t, rssi_dbm)| Advert {
                    beacon: BeaconId(beacon.0 + id_offset),
                    t: t + t_offset,
                    rssi_dbm,
                }),
        );
    }
    let truth = sessions
        .iter()
        .map(|s| {
            s.beacons
                .iter()
                .filter_map(|b| Some((b.id.0, s.truth_local(b.id)?)))
                .collect()
        })
        .collect();
    let tracks: Vec<MotionTrack> = sessions.iter().map(track_observer).collect();
    Tiled {
        adverts,
        motion: tile_motion(&tracks, passes, period_s),
        truth,
        passes,
    }
}

/// Tiles motion tracks like [`tile`] tiles adverts: pass `k` is track
/// `k mod S` at `t + k·period_s`. The engine reads only
/// `displacement_at`, measured from the first point, so each track is
/// shifted to start where the first one does; every pass then sees its
/// own walk's displacement.
pub fn tile_motion(tracks: &[MotionTrack], passes: usize, period_s: f64) -> MotionTrack {
    let origin = tracks[0].trajectory.points()[0].pos;
    let mut tiled = Vec::new();
    for k in 0..passes {
        let points = tracks[k % tracks.len()].trajectory.points();
        let shift = origin - points[0].pos;
        let t_offset = k as f64 * period_s;
        tiled.extend(points.iter().map(|p| TimedPoint {
            t: p.t + t_offset,
            pos: p.pos + shift,
        }));
    }
    MotionTrack {
        trajectory: Trajectory::from_points(tiled),
        steps: tracks[0].steps.clone(),
        turns: tracks[0].turns.clone(),
    }
}

/// The most sessions ever live at once when every beacon's session
/// lives from its first advert until `horizon_s` after its last one (the
/// engine's idle eviction plus any slack for connections running ahead).
pub fn peak_live_sessions(adverts: &[Advert], horizon_s: f64) -> usize {
    let mut span: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for a in adverts {
        span.entry(a.beacon.0)
            .and_modify(|s| s.1 = a.t)
            .or_insert((a.t, a.t));
    }
    // Sweep: +1 at a first advert, -1 once the horizon has passed;
    // arrivals sort before departures at equal times.
    let mut events: Vec<(f64, i32)> = span
        .values()
        .flat_map(|&(first, last)| [(first, 1), (last + horizon_s, -1)])
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        live += i64::from(delta);
        peak = peak.max(live);
    }
    peak as usize
}

/// One pre-encoded request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Byte range of the encoded frame in its lane's buffer.
    pub start: usize,
    /// End of the byte range.
    pub end: usize,
    /// Adverts carried (0 for a query).
    pub adverts: u32,
    /// Stream time of the batch's first advert (of the batch before a
    /// query).
    pub t: f64,
}

impl Request {
    /// Whether this is a `QueryBeacon`.
    pub fn is_query(&self) -> bool {
        self.adverts == 0
    }
}

/// One connection's encoded request stream.
pub struct Lane {
    /// Every frame, back to back.
    pub bytes: Vec<u8>,
    /// Frame boundaries and metadata, in send order.
    pub requests: Vec<Request>,
}

impl Lane {
    /// Adverts carried by the lane's batches.
    pub fn adverts(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.adverts)).sum()
    }

    /// Batches (non-query requests).
    pub fn batches(&self) -> usize {
        self.requests.iter().filter(|r| !r.is_query()).count()
    }

    /// Queries.
    pub fn queries(&self) -> usize {
        self.requests.iter().filter(|r| r.is_query()).count()
    }

    fn push(&mut self, frame: &Frame, adverts: u32, t: f64) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&encode_frame(frame));
        self.requests.push(Request {
            start,
            end: self.bytes.len(),
            adverts,
            t,
        });
    }
}

/// The lane a beacon's adverts travel on: partitioned by id, so each
/// beacon's order is preserved on one connection.
pub fn lane_of(beacon: BeaconId, lanes: usize) -> usize {
    beacon.0 as usize % lanes
}

/// Splits the stream across `lanes` connections by beacon id, cuts each
/// lane into `frame_len`-advert batches, inserts a `QueryBeacon` after
/// every `query_every` batches (asking for that batch's first beacon),
/// and encodes every frame.
pub fn lanes(adverts: &[Advert], lanes: usize, frame_len: usize, query_every: usize) -> Vec<Lane> {
    let mut shares: Vec<Vec<Advert>> = vec![Vec::new(); lanes];
    for a in adverts {
        shares[lane_of(a.beacon, lanes)].push(*a);
    }
    shares
        .iter()
        .map(|share| {
            let mut lane = Lane {
                bytes: Vec::with_capacity(share.len() * 24),
                requests: Vec::with_capacity(share.len() / frame_len * 2 + 2),
            };
            for (i, chunk) in share.chunks(frame_len).enumerate() {
                let batch: Vec<WireAdvert> = chunk.iter().map(|a| WireAdvert::from(*a)).collect();
                lane.push(&Frame::AdvertBatch(batch), chunk.len() as u32, chunk[0].t);
                if (i + 1) % query_every == 0 {
                    lane.push(&Frame::QueryBeacon(chunk[0].beacon.0), 0, chunk[0].t);
                }
            }
            lane
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::MAX_SKEW_S;
    use locble_core::{Estimator, EstimatorConfig};
    use locble_engine::{Engine, EngineConfig};
    use locble_net::wire::decode_frame;
    use locble_obs::Obs;

    fn sessions(seeds: &[u64]) -> Vec<Session> {
        seeds.iter().map(|&s| fleet_session(40, s)).collect()
    }

    fn small() -> Tiled {
        tile(&sessions(&[7, 8]), 6, PERIOD_S)
    }

    #[test]
    fn tiled_stream_is_time_ordered_and_per_beacon_ordered() {
        let tiled = small();
        assert!(tiled.adverts.windows(2).all(|w| w[0].t <= w[1].t));
        let mut last: BTreeMap<u32, f64> = BTreeMap::new();
        for a in &tiled.adverts {
            if let Some(prev) = last.insert(a.beacon.0, a.t) {
                assert!(a.t >= prev, "beacon {} went back in time", a.beacon.0);
            }
        }
        // Passes follow one another, each replaying its whole session
        // under fresh ids.
        assert!(tiled
            .adverts
            .windows(2)
            .all(|w| Tiled::pass_of(w[0].beacon) <= Tiled::pass_of(w[1].beacon)));
        let sources = sessions(&[7, 8]);
        for k in 0..tiled.passes {
            let pass = tiled
                .adverts
                .iter()
                .filter(|a| Tiled::pass_of(a.beacon) == k)
                .count();
            assert_eq!(pass, sources[k % 2].interleaved_rss().len());
        }
    }

    #[test]
    fn live_sessions_stay_below_max_sessions() {
        let config = EngineConfig::default();
        let tiled = build(1, PASSES);
        let peak = peak_live_sessions(&tiled.adverts, config.idle_evict_s + MAX_SKEW_S);
        assert!(
            peak < config.max_sessions,
            "{peak} live sessions would hit the {}-session limit",
            config.max_sessions
        );
    }

    #[test]
    fn engine_never_needs_more_sessions_than_the_sweep_predicts() {
        // With the session limit set to the predicted peak, the engine
        // admits the whole stream: no capacity rejects.
        let tiled = tile(&[fleet_session(20, 3), fleet_session(20, 4)], 8, PERIOD_S);
        let config = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let peak = peak_live_sessions(&tiled.adverts, config.idle_evict_s);
        let mut engine = Engine::new(
            EngineConfig {
                max_sessions: peak,
                ..config
            },
            Estimator::new(EstimatorConfig::default()),
            Obs::noop(),
        );
        engine.set_motion(tiled.motion.clone());
        let mut live_peak = 0;
        for chunk in tiled.adverts.chunks(128) {
            let report = engine.ingest_all(chunk);
            assert_eq!(report.rejected(), 0, "adverts rejected");
            engine.process();
            live_peak = live_peak.max(engine.stats().sessions_live);
        }
        assert!(live_peak <= peak);
        assert!(
            engine.stats().sessions_evicted > 0,
            "the stream is long enough to evict"
        );
    }

    #[test]
    fn each_lane_keeps_per_beacon_order() {
        let tiled = small();
        for lane in lanes(&tiled.adverts, LANES, 16, 4) {
            let mut last: BTreeMap<u32, f64> = BTreeMap::new();
            for r in lane.requests.iter().filter(|r| !r.is_query()) {
                let (frame, used) = decode_frame(&lane.bytes[r.start..r.end]).expect("decodes");
                assert_eq!(used, r.end - r.start);
                let Frame::AdvertBatch(batch) = frame else {
                    panic!("batch request decoded to another frame");
                };
                for a in batch {
                    if let Some(prev) = last.insert(a.beacon, a.t) {
                        assert!(a.t >= prev);
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_motion_repeats_each_walk_displacement_in_every_pass() {
        let tracks: Vec<MotionTrack> = sessions(&[7, 8]).iter().map(track_observer).collect();
        let tiled = tile_motion(&tracks, 5, PERIOD_S);
        for (k, track) in (0..5).map(|k| (k, &tracks[k % 2])) {
            let offset = k as f64 * PERIOD_S;
            let (t0, t1) = (
                track.trajectory.start_time().expect("non-empty track"),
                track.trajectory.end_time().expect("non-empty track"),
            );
            for i in 0..=64 {
                let t = t0 + (t1 - t0) * i as f64 / 64.0;
                let want = track.displacement_at(t).expect("covered");
                let got = tiled.displacement_at(t + offset).expect("covered");
                assert!(
                    (got - want).norm() < 1e-9,
                    "pass {k} at t={t}: {got:?} vs {want:?}"
                );
            }
            // At the track's own points the displacement is exact.
            for p in track.trajectory.points() {
                assert_eq!(
                    tiled.displacement_at(p.t + offset),
                    track.displacement_at(p.t)
                );
            }
        }
    }
}
