//! Codec properties: `decode(encode(frame)) == frame` for every frame
//! type, and decoder totality — arbitrary bytes (random, truncated,
//! length-corrupted, version-corrupted) must yield a typed
//! [`DecodeError`], never a panic.

use locble_core::FitMethod;
use locble_geom::EnvClass;
use locble_net::wire::{
    decode_frame, decode_frame_with_limit, encode_frame, ClusterSummary, DecodeError, ErrorCode,
    FinishSummary, Frame, IngestSummary, NodeEntry, NodeRole, TracedAck, WireAdvert, WireError,
    WireEstimate, WireMetrics, WirePartitionMap, WireStats, DEFAULT_MAX_FRAME_LEN, WIRE_VERSION,
};
use locble_net::{Assembled, FrameAssembler};
use locble_obs::{HistogramSnapshot, Stage, StageLap, TraceCtx, TraceRecord};
use proptest::prelude::*;

/// All of f64, non-finite bit patterns included: estimates and adverts
/// must survive the wire bit-exactly whatever the pipeline produced.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
    ]
}

fn any_advert() -> impl Strategy<Value = WireAdvert> {
    (any::<u32>(), any_f64(), any_f64()).prop_map(|(beacon, t, rssi_dbm)| WireAdvert {
        beacon,
        t,
        rssi_dbm,
    })
}

fn any_estimate() -> impl Strategy<Value = WireEstimate> {
    let head = (
        any::<u32>(),
        any_f64(),
        any_f64(),
        prop_oneof![Just(None), (any::<f64>(), any::<f64>()).prop_map(Some),],
    );
    let tail = (
        any_f64(),
        any_f64(),
        any_f64(),
        prop_oneof![
            Just(None),
            Just(Some(EnvClass::Los)),
            Just(Some(EnvClass::PartialLos)),
            Just(Some(EnvClass::NonLos)),
        ],
        any::<u64>(),
        prop_oneof![
            Just(FitMethod::FreeJoint),
            Just(FitMethod::Anchored),
            Just(FitMethod::Leg),
            Just(FitMethod::Gradient),
            Just(FitMethod::Particle),
            Just(FitMethod::Fingerprint),
        ],
        any_f64(),
    );
    (head, tail).prop_map(
        |(
            (beacon, x, y, mirror),
            (confidence, exponent, gamma_dbm, env, points_used, method, residual_db),
        )| WireEstimate {
            beacon,
            x,
            y,
            mirror,
            confidence,
            exponent,
            gamma_dbm,
            env,
            points_used,
            method,
            residual_db,
        },
    )
}

fn any_summary() -> impl Strategy<Value = IngestSummary> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                consumed,
                routed,
                sessions_created,
                rejected_non_finite,
                rejected_out_of_order,
                rejected_capacity,
            )| IngestSummary {
                consumed,
                routed,
                sessions_created,
                rejected_non_finite,
                rejected_out_of_order,
                rejected_capacity,
            },
        )
}

fn any_stats() -> impl Strategy<Value = WireStats> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(|((a, b, c, d, e), (f, g, h, i, j))| WireStats {
            samples_routed: a,
            samples_rejected: b,
            samples_processed: c,
            sessions_created: d,
            sessions_evicted: e,
            sessions_live: f,
            batches_pushed: g,
            batches_rejected: h,
            processes: i,
            queued: j,
        })
}

fn any_error() -> impl Strategy<Value = WireError> {
    (
        prop_oneof![
            Just(ErrorCode::BadFrame),
            Just(ErrorCode::UnsupportedVersion),
            Just(ErrorCode::Backpressure),
            Just(ErrorCode::Capacity),
            Just(ErrorCode::ShuttingDown),
            Just(ErrorCode::Internal),
        ],
        "\\PC{0,60}",
    )
        .prop_map(|(code, message)| WireError { code, message })
}

fn any_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::Client),
        Just(Stage::Forward),
        Just(Stage::Decode),
        Just(Stage::Coalesce),
        Just(Stage::Wal),
        Just(Stage::Replicate),
        Just(Stage::Route),
        Just(Stage::ShardQueue),
        Just(Stage::Refit),
        Just(Stage::Ack),
    ]
}

fn any_lap() -> impl Strategy<Value = StageLap> {
    (any_stage(), any::<u64>(), any::<u64>()).prop_map(|(stage, start_us, duration_us)| StageLap {
        stage,
        start_us,
        duration_us,
    })
}

fn any_ctx() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u16>()).prop_map(|(trace_id, path)| TraceCtx { trace_id, path })
}

fn any_trace_record() -> impl Strategy<Value = TraceRecord> {
    (any_ctx(), prop::collection::vec(any_lap(), 0..8))
        .prop_map(|(ctx, laps)| TraceRecord { ctx, laps })
}

/// A histogram that obeys the wire invariant `counts == bounds + 1`
/// (the decoder rejects anything else as malformed).
fn any_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::vec(any_f64(), 0..6),
        prop::collection::vec(any::<u64>(), 0..8),
        any_f64(),
        any::<u64>(),
        any_f64(),
        any_f64(),
    )
        .prop_map(|(bounds, mut counts, sum, count, min, max)| {
            // Enforce the invariant rather than generating it: one
            // count per bucket plus the overflow bucket.
            counts.resize(bounds.len() + 1, 0);
            HistogramSnapshot {
                bounds,
                counts,
                sum,
                count,
                min,
                max,
            }
        })
}

fn any_metrics() -> impl Strategy<Value = WireMetrics> {
    (
        prop::collection::vec(("\\PC{0,24}", any::<u64>()), 0..6),
        prop::collection::vec(("\\PC{0,24}", any_f64()), 0..6),
        prop::collection::vec(("\\PC{0,24}", any_histogram()), 0..4),
    )
        .prop_map(|(counters, gauges, histograms)| WireMetrics {
            counters,
            gauges,
            histograms,
        })
}

fn any_node_entry() -> impl Strategy<Value = NodeEntry> {
    (any::<u64>(), "\\PC{0,24}").prop_map(|(node_id, addr)| NodeEntry { node_id, addr })
}

fn any_partition_map() -> impl Strategy<Value = WirePartitionMap> {
    (any::<u64>(), prop::collection::vec(any_node_entry(), 0..5))
        .prop_map(|(epoch, nodes)| WirePartitionMap { epoch, nodes })
}

fn any_node_role() -> impl Strategy<Value = NodeRole> {
    prop_oneof![
        Just(NodeRole::Front),
        Just(NodeRole::Owner),
        Just(NodeRole::Follower),
    ]
}

fn any_cluster_summary() -> impl Strategy<Value = ClusterSummary> {
    (
        (any::<u64>(), any_node_role(), any_partition_map()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (node_id, role, map),
                (owned_sessions, forwarded_batches, forwarded_adverts, replicated_records),
            )| ClusterSummary {
                node_id,
                role,
                map,
                owned_sessions,
                forwarded_batches,
                forwarded_adverts,
                replicated_records,
            },
        )
}

/// The cluster frames wire version 2 added. Forward/Replicate carry
/// adverts through `any_advert()`, so non-finite f64s travel here too.
fn any_cluster_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any_node_entry().prop_map(Frame::Join),
        any_partition_map().prop_map(Frame::JoinAck),
        any_partition_map().prop_map(Frame::PartitionMap),
        (
            any::<u64>(),
            any_ctx(),
            prop::collection::vec(any_advert(), 0..40)
        )
            .prop_map(|(seq, ctx, adverts)| Frame::Forward { seq, ctx, adverts }),
        (any::<u64>(), any_summary(), any::<u64>()).prop_map(|(seq, summary, replica_durable)| {
            Frame::ForwardAck {
                seq,
                summary,
                replica_durable,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any_advert(), 0..40)
        )
            .prop_map(|(seq, base, adverts)| Frame::Replicate { seq, base, adverts }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, durable)| Frame::ReplicateAck { seq, durable }),
        Just(Frame::ClusterQuery),
        any_cluster_summary().prop_map(Frame::ClusterReport),
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(epoch, state)| Frame::Handoff { epoch, state }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(epoch, sessions)| Frame::HandoffAck { epoch, sessions }),
        Just(Frame::ExportState),
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(sessions, state)| Frame::StateExport { sessions, state }),
    ]
}

/// Every frame variant, weighted uniformly.
fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any_cluster_frame(),
        prop::collection::vec(any_advert(), 0..40).prop_map(Frame::AdvertBatch),
        any_summary().prop_map(Frame::IngestAck),
        Just(Frame::QuerySnapshot),
        prop::collection::vec(any_estimate(), 0..12).prop_map(Frame::Snapshot),
        any::<u32>().prop_map(Frame::QueryBeacon),
        prop_oneof![Just(None), any_estimate().prop_map(Some)].prop_map(Frame::BeaconReply),
        Just(Frame::QueryStats),
        any_stats().prop_map(Frame::Stats),
        Just(Frame::Finish),
        (any::<u64>(), any::<u64>()).prop_map(|(s, b)| {
            Frame::FinishAck(FinishSummary {
                samples_processed: s,
                batches_pushed: b,
            })
        }),
        any_error().prop_map(Frame::Error),
        (any_ctx(), prop::collection::vec(any_advert(), 0..40))
            .prop_map(|(ctx, batch)| Frame::TracedAdvertBatch(ctx, batch)),
        (
            any_summary(),
            any_ctx(),
            prop::collection::vec(any_lap(), 0..8)
        )
            .prop_map(|(summary, ctx, laps)| Frame::TracedIngestAck(TracedAck {
                summary,
                ctx,
                laps
            })),
        Just(Frame::MetricsQuery),
        any_metrics().prop_map(Frame::MetricsReport),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)].prop_map(Frame::TraceQuery),
        prop::collection::vec(any_trace_record(), 0..6).prop_map(Frame::TraceReport),
    ]
}

/// Pulls everything currently decodable out of an assembler:
/// `(frames, skipped)`. Valid-input properties assert `skipped == 0`.
fn drain_assembler(asm: &mut FrameAssembler) -> Result<(Vec<Frame>, usize), DecodeError> {
    let mut frames = Vec::new();
    let mut skipped = 0;
    while let Some(step) = asm.next_frame()? {
        match step {
            Assembled::Frame(f) => frames.push(f),
            Assembled::Skipped(_) => skipped += 1,
        }
    }
    Ok((frames, skipped))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: every frame type survives encode → decode exactly
    /// (floats bit-for-bit, non-finite values included), consuming
    /// exactly its own bytes.
    #[test]
    fn encode_decode_round_trips(frame in any_frame()) {
        let bytes = encode_frame(&frame);
        let (back, used) = match decode_frame(&bytes) {
            Ok(ok) => ok,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("own encoding failed to decode: {e}"),
            )),
        };
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(used, bytes.len());
    }

    /// Totality over garbage: arbitrary byte strings decode to a typed
    /// error or a frame — never a panic, and a successful decode never
    /// claims more bytes than it was given.
    #[test]
    fn decoder_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        match decode_frame(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(DecodeError::Incomplete { needed }) => prop_assert!(needed > 0),
            Err(_) => {}
        }
    }

    /// Totality over truncation: every strict prefix of a valid
    /// encoding is `Incomplete` with an achievable byte requirement.
    #[test]
    fn every_truncation_is_typed_incomplete(frame in any_frame(), cut in 0.0f64..1.0) {
        let bytes = encode_frame(&frame);
        let end = ((bytes.len() as f64) * cut) as usize; // < len: cut < 1
        match decode_frame(&bytes[..end]) {
            Err(DecodeError::Incomplete { needed }) => {
                prop_assert!(needed > 0);
                prop_assert!(needed <= bytes.len() - end);
            }
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("{end}-byte prefix of a {}-byte frame gave {other:?}", bytes.len()),
            )),
        }
    }

    /// Totality over corruption: flipping any single byte of a valid
    /// encoding yields a frame or a typed error, never a panic; and a
    /// corrupted version byte is always a recoverable `BadVersion`.
    #[test]
    fn single_byte_corruption_never_panics(
        frame in any_frame(),
        pos in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        let idx = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[idx] ^= flip;
        match decode_frame(&bytes) {
            Ok(_) | Err(_) => {}
        }
        // Target the version byte specifically: every byte other than
        // WIRE_VERSION is a recoverable BadVersion.
        let mut bytes = encode_frame(&frame);
        let corrupted = WIRE_VERSION ^ flip;
        bytes[4] = corrupted;
        let err = decode_frame(&bytes).expect_err("version byte corrupted");
        prop_assert_eq!(err, DecodeError::BadVersion { got: corrupted });
        prop_assert!(err.is_recoverable());
    }

    /// The reactor's partial-frame state machine: any byte-boundary
    /// split of a valid frame sequence — down to one byte at a time —
    /// must reassemble into the identical frame list as one contiguous
    /// feed, with no skips, no leftovers, and no frame crossing between
    /// chunks corrupted.
    #[test]
    fn split_feed_reassembles_identically_to_contiguous(
        frames in prop::collection::vec(any_frame(), 1..6),
        chunk_sizes in prop::collection::vec(1usize..17, 1..64),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }

        // Reference: the whole stream in one feed.
        let mut contiguous = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        contiguous.feed(&bytes);
        let (reference, skipped) = drain_assembler(&mut contiguous)
            .expect("valid stream never loses framing");
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(&reference, &frames);
        prop_assert_eq!(contiguous.buffered(), 0);

        // Split: feed arbitrary chunks (cycling the generated sizes),
        // draining after every feed — the readiness-event shape.
        let mut split = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        let mut out = Vec::new();
        let mut offset = 0;
        let mut turn = 0;
        while offset < bytes.len() {
            let take = chunk_sizes[turn % chunk_sizes.len()].min(bytes.len() - offset);
            turn += 1;
            split.feed(&bytes[offset..offset + take]);
            offset += take;
            let (mut frames_now, skipped_now) = drain_assembler(&mut split)
                .expect("valid stream never loses framing");
            prop_assert_eq!(skipped_now, 0);
            out.append(&mut frames_now);
        }
        prop_assert_eq!(&out, &frames);
        prop_assert_eq!(split.buffered(), 0);
    }

    /// Oversized length prefixes are rejected before any allocation,
    /// under both the default cap and a tiny explicit cap.
    #[test]
    fn oversized_length_is_typed(frame in any_frame(), extra in 1u32..1_000_000) {
        let mut bytes = encode_frame(&frame);
        let huge = DEFAULT_MAX_FRAME_LEN as u32 + extra;
        bytes[..4].copy_from_slice(&huge.to_be_bytes());
        prop_assert_eq!(
            decode_frame(&bytes).expect_err("oversized must not decode"),
            DecodeError::Oversized { len: huge as usize, max: DEFAULT_MAX_FRAME_LEN }
        );
        let payload = bytes.len() - 4;
        if payload > 64 {
            bytes[..4].copy_from_slice(&(payload as u32).to_be_bytes());
            prop_assert_eq!(
                decode_frame_with_limit(&bytes, 64).expect_err("cap of 64"),
                DecodeError::Oversized { len: payload, max: 64 }
            );
        }
    }
}
