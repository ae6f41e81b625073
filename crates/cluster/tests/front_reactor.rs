//! The front on the reactor: a pipelined multi-megabyte client stream
//! answered in order and bit-identical to one engine, a dead owner that
//! fails only the requests reaching it, and a shutdown that a client
//! which never reads its replies cannot wedge.

mod common;

use common::{assert_bit_identical, fleet_adverts, reference, Cluster};
use locble_cluster::{ClusterRouter, Front, FrontConfig};
use locble_engine::Advert;
use locble_net::wire::{encode_frame, ErrorCode, Frame, WireAdvert};
use locble_net::{Assembled, Client, ClientError, FrameAssembler, ServerConfig};
use locble_obs::Obs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CHUNK: usize = 97;

/// Batch size once the stream is split by partition (as in
/// `cluster_crash.rs`).
const SPLIT_CHUNK: usize = 37;

fn batch(adverts: &[Advert]) -> Frame {
    Frame::AdvertBatch(adverts.iter().map(|a| WireAdvert::from(*a)).collect())
}

/// Reads reply frames off a raw socket.
struct Replies {
    stream: TcpStream,
    assembler: FrameAssembler,
}

impl Replies {
    fn next(&mut self) -> Frame {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match self.assembler.next_frame().expect("reply framing intact") {
                Some(Assembled::Frame(frame)) => return frame,
                Some(Assembled::Skipped(e)) => panic!("undecodable reply: {e}"),
                None => {}
            }
            let n = self.stream.read(&mut scratch).expect("read replies");
            assert!(n > 0, "the front closed the connection mid-stream");
            self.assembler.feed(&scratch[..n]);
        }
    }
}

/// What the reply to each pipelined request must be.
enum Want {
    Ack(u64),
    Beacon,
    Snapshot,
}

#[test]
fn a_pipelined_stream_is_answered_in_order_and_matches_one_engine() {
    let cluster = Cluster::start("pipeline", 3);
    let fleet = fleet_adverts();

    // The fleet once, then replayed until the batches pass 4 MB: each
    // replayed advert is older than its beacon's newest, so the owners
    // reject nearly all of them — cheaply, and with exact accounting
    // the single engine must reproduce.
    let mut stream: Vec<Advert> = Vec::new();
    let mut bytes = Vec::new();
    let mut wants = Vec::new();
    let mut batch_bytes = 0;
    while batch_bytes < 4 << 20 {
        for chunk in fleet.chunks(CHUNK) {
            let frame = encode_frame(&batch(chunk));
            batch_bytes += frame.len();
            bytes.extend_from_slice(&frame);
            stream.extend_from_slice(chunk);
            wants.push(Want::Ack(chunk.len() as u64));
            if wants.len() % 16 == 0 {
                bytes.extend_from_slice(&encode_frame(&Frame::QueryBeacon(chunk[0].beacon.0)));
                wants.push(Want::Beacon);
            }
            if wants.len() % 61 == 0 {
                bytes.extend_from_slice(&encode_frame(&Frame::QuerySnapshot));
                wants.push(Want::Snapshot);
            }
        }
    }
    let engine = reference(&stream);
    let want = engine.snapshot();
    assert!(want.len() >= 6, "reference localized too few beacons");
    // Finish, then a snapshot and every point query, in the same
    // write: each owner receives them after the finish on the same
    // connection, so they must already show the finished state.
    bytes.extend_from_slice(&encode_frame(&Frame::Finish));
    bytes.extend_from_slice(&encode_frame(&Frame::QuerySnapshot));
    for (beacon, _) in &want {
        bytes.extend_from_slice(&encode_frame(&Frame::QueryBeacon(beacon.0)));
    }

    let socket = TcpStream::connect(cluster.front.addr()).expect("connect front");
    socket
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = socket.try_clone().expect("clone socket");
    let writing = std::thread::spawn(move || writer.write_all(&bytes));
    let mut replies = Replies {
        stream: socket,
        assembler: FrameAssembler::new(locble_net::DEFAULT_MAX_FRAME_LEN),
    };

    let (mut routed, mut rejected) = (0, 0);
    for (i, want) in wants.iter().enumerate() {
        match (want, replies.next()) {
            (Want::Ack(n), Frame::IngestAck(ack)) => {
                assert_eq!(ack.consumed, *n, "request {i}: consumed");
                assert_eq!(ack.routed + ack.rejected(), *n, "request {i}: accounting");
                routed += ack.routed;
                rejected += ack.rejected();
            }
            (Want::Beacon, Frame::BeaconReply(_)) | (Want::Snapshot, Frame::Snapshot(_)) => {}
            (_, other) => panic!("request {i}: reply out of order: {other:?}"),
        }
    }
    assert!(matches!(replies.next(), Frame::FinishAck(_)));
    let Frame::Snapshot(pipelined) = replies.next() else {
        panic!("expected the post-finish snapshot");
    };
    let pipelined: Vec<_> = pipelined.iter().map(|e| e.to_estimate()).collect();
    assert_bit_identical("pipelined snapshot", &pipelined, &want);
    for (beacon, estimate) in &want {
        let Frame::BeaconReply(Some(got)) = replies.next() else {
            panic!("expected beacon {beacon}'s estimate");
        };
        assert_bit_identical(
            "pipelined point query",
            &[got.to_estimate()],
            &[(*beacon, *estimate)],
        );
    }
    writing
        .join()
        .expect("writer thread")
        .expect("the whole stream was written");

    let stats = engine.stats();
    assert_eq!(routed + rejected, stream.len() as u64);
    assert_eq!(routed, stats.samples_routed);
    assert_eq!(rejected, stats.samples_rejected);
    cluster.shutdown();
}

#[test]
fn a_dead_owner_fails_only_the_requests_that_reach_it() {
    let mut cluster = Cluster::start("isolation", 2);
    let router = ClusterRouter::new(&cluster.map);
    let parts = router
        .partition(fleet_adverts(), |a| a.beacon)
        .expect("non-empty membership");
    assert!(parts.iter().all(|p| p.len() >= 3 * SPLIT_CHUNK));
    let (dead, live) = (0, 1);

    let mut first = Client::connect(cluster.front.addr()).expect("connect first client");
    let mut second = Client::connect(cluster.front.addr()).expect("connect second client");
    // Both owner connections are open and cached before the owner dies.
    first
        .ingest(&parts[dead][..SPLIT_CHUNK])
        .expect("pre-kill ingest");
    second
        .ingest(&parts[live][..SPLIT_CHUNK])
        .expect("pre-kill ingest");
    let (owner, dir) = cluster.owners.remove(dead);
    owner.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // The first client's batch for the dead partition and the second
    // client's stream for the live one may share a front tick: only
    // the former fails.
    first
        .send_frame(&batch(&parts[dead][SPLIT_CHUNK..2 * SPLIT_CHUNK]))
        .expect("send dead-partition batch");
    for chunk in parts[live][SPLIT_CHUNK..].chunks(SPLIT_CHUNK) {
        let ack = second
            .ingest(chunk)
            .expect("live partition keeps ingesting");
        assert_eq!(ack.consumed, chunk.len() as u64);
    }
    for advert in &parts[live][..4] {
        second
            .query(advert.beacon)
            .expect("live partition keeps answering");
    }
    match first
        .read_frame()
        .expect("reply to the dead-partition batch")
    {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::Internal, "{}", e.message),
        other => panic!("a batch for a dead owner must fail, got {other:?}"),
    }
    // The redial is refused: the dead partition keeps failing fast,
    // typed, while the live one keeps serving.
    match first.ingest(&parts[dead][2 * SPLIT_CHUNK..3 * SPLIT_CHUNK]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal),
        other => panic!("a batch for a dead owner must fail, got {other:?}"),
    }
    second
        .query(parts[live][0].beacon)
        .expect("live partition still answers");

    drop(first);
    drop(second);
    cluster.shutdown();
}

#[test]
fn shutdown_returns_while_a_client_never_reads_its_replies() {
    let obs = Obs::ring(64);
    let front = Front::bind(FrontConfig::default(), obs.clone()).expect("bind front");
    let socket = TcpStream::connect(front.addr()).expect("connect front");
    let mut writer = socket.try_clone().expect("clone socket");
    // About 17 MB of Stats replies: far more than the socket buffers
    // hold, so the front is stuck on this client until it gives up.
    let burst: Vec<u8> = (0..200_000)
        .flat_map(|_| encode_frame(&Frame::QueryStats))
        .collect();
    let writing = std::thread::spawn(move || {
        let _ = writer.write_all(&burst);
    });
    // Wait (boundedly) until the front has stopped reading this client
    // because its replies back up.
    let patience = Instant::now() + Duration::from_secs(5);
    while obs.metrics().counter("net.backpressure_pauses") == 0 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        front.shutdown();
        let _ = done.send(());
    });
    // The reactor's write-timeout grace, plus one tick and scheduling
    // slack.
    let bound = ServerConfig::default().write_timeout + Duration::from_millis(500);
    assert!(
        finished.recv_timeout(bound).is_ok(),
        "front shutdown still blocked after {bound:?} by a client that never reads"
    );
    drop(socket);
    writing.join().expect("writer thread");
}
