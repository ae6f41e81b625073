//! Blocking client for the wire protocol.
//!
//! One [`Client`] is one TCP connection. Every public method is a
//! request/reply exchange: a typed server-side failure comes back as
//! [`ClientError::Server`] with the wire's [`WireError`], transport
//! problems as [`ClientError::Io`]. The raw [`Client::send_raw`] /
//! [`Client::read_frame`] pair exists for protocol tests that need to
//! put arbitrary bytes on the wire.

use crate::conn::{Assembled, FrameAssembler};
use crate::wire::{
    encode_frame, ClusterSummary, DecodeError, FinishSummary, Frame, IngestSummary, WireAdvert,
    WireError, WireMetrics, WirePartitionMap, WireStats, DEFAULT_MAX_FRAME_LEN,
};
use locble_ble::BeaconId;
use locble_core::LocationEstimate;
use locble_engine::Advert;
use locble_obs::{TraceCtx, TraceRecord};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's bytes did not decode to a frame.
    Decode(DecodeError),
    /// The server answered with a typed error frame.
    Server(WireError),
    /// The server answered with a frame of the wrong kind.
    UnexpectedFrame(&'static str),
    /// The server closed the connection mid-reply.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Decode(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedFrame(want) => {
                write!(f, "unexpected reply frame ({want} expected)")
            }
            ClientError::ConnectionClosed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    frames: FrameAssembler,
}

impl Client {
    /// Connects with 5-second read/write timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, Duration::from_secs(5), Duration::from_secs(5))
    }

    /// Connects with explicit timeouts; the connect itself is bounded
    /// by `write_timeout` (per resolved address).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<Client, ClientError> {
        let mut stream = Err(std::io::ErrorKind::InvalidInput.into());
        for addr in addr.to_socket_addrs()? {
            stream = TcpStream::connect_timeout(&addr, write_timeout);
            if stream.is_ok() {
                break;
            }
        }
        let stream = stream?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            frames: FrameAssembler::new(DEFAULT_MAX_FRAME_LEN),
        })
    }

    /// Sends one frame.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.send_raw(&encode_frame(frame))
    }

    /// Puts raw bytes on the wire (protocol-test escape hatch).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads the next frame, blocking up to the read timeout per read.
    /// A framed but undecodable reply is consumed and returned as
    /// [`ClientError::Decode`], so the next read starts on the next
    /// frame; an unusable length prefix is returned as `Decode` too,
    /// and every later read repeats it.
    pub fn read_frame(&mut self) -> Result<Frame, ClientError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.frames.next_frame() {
                Ok(Some(Assembled::Frame(frame))) => return Ok(frame),
                Ok(Some(Assembled::Skipped(e))) | Err(e) => return Err(ClientError::Decode(e)),
                Ok(None) => {}
            }
            match self.stream.read(&mut scratch)? {
                0 => return Err(ClientError::ConnectionClosed),
                n => self.frames.feed(&scratch[..n]),
            }
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        self.send_frame(frame)?;
        match self.read_frame()? {
            Frame::Error(e) => Err(ClientError::Server(e)),
            reply => Ok(reply),
        }
    }

    /// Ships a batch of adverts; returns the server's exact accounting.
    pub fn ingest(&mut self, adverts: &[Advert]) -> Result<IngestSummary, ClientError> {
        let batch: Vec<WireAdvert> = adverts.iter().map(|a| WireAdvert::from(*a)).collect();
        match self.request(&Frame::AdvertBatch(batch))? {
            Frame::IngestAck(s) => Ok(s),
            _ => Err(ClientError::UnexpectedFrame("IngestAck")),
        }
    }

    /// The server's live metrics snapshot (counters, gauges, latency
    /// histograms), bit-exact over the wire.
    pub fn metrics(&mut self) -> Result<WireMetrics, ClientError> {
        match self.request(&Frame::MetricsQuery)? {
            Frame::MetricsReport(m) => Ok(m),
            _ => Err(ClientError::UnexpectedFrame("MetricsReport")),
        }
    }

    /// Recent trace records from the server's trace table: all of them
    /// (`None`) or one trace id's record (`Some`).
    pub fn traces(&mut self, id: Option<u64>) -> Result<Vec<TraceRecord>, ClientError> {
        match self.request(&Frame::TraceQuery(id))? {
            Frame::TraceReport(records) => Ok(records),
            _ => Err(ClientError::UnexpectedFrame("TraceReport")),
        }
    }

    /// Every live estimate, in ascending beacon-id order.
    pub fn snapshot(&mut self) -> Result<Vec<(BeaconId, LocationEstimate)>, ClientError> {
        match self.request(&Frame::QuerySnapshot)? {
            Frame::Snapshot(estimates) => Ok(estimates.iter().map(|e| e.to_estimate()).collect()),
            _ => Err(ClientError::UnexpectedFrame("Snapshot")),
        }
    }

    /// One beacon's estimate, if its session has one.
    pub fn query(&mut self, beacon: BeaconId) -> Result<Option<LocationEstimate>, ClientError> {
        match self.request(&Frame::QueryBeacon(beacon.0))? {
            Frame::BeaconReply(est) => Ok(est.map(|e| e.to_estimate().1)),
            _ => Err(ClientError::UnexpectedFrame("BeaconReply")),
        }
    }

    /// Engine statistics plus the live queue depth.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.request(&Frame::QueryStats)? {
            Frame::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedFrame("Stats")),
        }
    }

    /// Ends the stream: drains queues, flushes partial batches, refits
    /// stale sessions (the engine's `finish`).
    pub fn finish(&mut self) -> Result<FinishSummary, ClientError> {
        match self.request(&Frame::Finish)? {
            Frame::FinishAck(s) => Ok(s),
            _ => Err(ClientError::UnexpectedFrame("FinishAck")),
        }
    }

    /// Installs a membership view on the peer (stale epochs are
    /// refused); returns the view the peer actually holds afterwards.
    /// This is the call that promotes a follower or demotes an owner.
    pub fn install_map(&mut self, map: WirePartitionMap) -> Result<WirePartitionMap, ClientError> {
        match self.request(&Frame::PartitionMap(map))? {
            Frame::JoinAck(map) => Ok(map),
            _ => Err(ClientError::UnexpectedFrame("JoinAck")),
        }
    }

    /// Ships a batch with a sequence number and a trace context: a node
    /// ingests it like [`Client::ingest`], a front partitions it across
    /// its owners. A `ctx.trace_id` of 0 means untraced; mint a traced
    /// context with [`TraceCtx::mint`]. A traced batch runs the untraced
    /// path, so its estimates are bit-identical to an untraced ingest;
    /// its stage laps stay in the receiver's trace table, read them with
    /// [`Client::traces`]. Returns the ingest summary plus how many
    /// records the owner's follower had acked durable when the ack left
    /// (0 with no follower, and from a front).
    pub fn forward(
        &mut self,
        seq: u64,
        ctx: TraceCtx,
        adverts: Vec<WireAdvert>,
    ) -> Result<(IngestSummary, u64), ClientError> {
        match self.request(&Frame::Forward { seq, ctx, adverts })? {
            Frame::ForwardAck {
                seq: echoed,
                summary,
                replica_durable,
            } => {
                if echoed != seq {
                    return Err(ClientError::UnexpectedFrame("ForwardAck seq echo"));
                }
                Ok((summary, replica_durable))
            }
            _ => Err(ClientError::UnexpectedFrame("ForwardAck")),
        }
    }

    /// Streams WAL records to a follower. `base` is the sender's
    /// durable record count before these records (the follower refuses
    /// a mismatch); returns the follower's durable count after the
    /// append.
    pub fn replicate(
        &mut self,
        seq: u64,
        base: u64,
        records: &[Advert],
    ) -> Result<u64, ClientError> {
        let adverts: Vec<WireAdvert> = records.iter().map(|a| WireAdvert::from(*a)).collect();
        match self.request(&Frame::Replicate { seq, base, adverts })? {
            Frame::ReplicateAck {
                seq: echoed,
                durable,
            } => {
                if echoed != seq {
                    return Err(ClientError::UnexpectedFrame("ReplicateAck seq echo"));
                }
                Ok(durable)
            }
            _ => Err(ClientError::UnexpectedFrame("ReplicateAck")),
        }
    }

    /// The node's cluster identity, membership view, and cluster-path
    /// counters (standalone servers answer with node id 0 and an empty
    /// map).
    pub fn cluster(&mut self) -> Result<ClusterSummary, ClientError> {
        match self.request(&Frame::ClusterQuery)? {
            Frame::ClusterReport(s) => Ok(s),
            _ => Err(ClientError::UnexpectedFrame("ClusterReport")),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn an_undecodable_reply_is_skipped_and_the_next_one_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut bad = encode_frame(&Frame::Finish);
            bad[5] = 250; // an unknown tag inside a valid length prefix
            bad.extend_from_slice(&encode_frame(&Frame::QueryBeacon(7)));
            conn.write_all(&bad).expect("write");
        });
        let mut client = Client::connect(addr).expect("connect");
        assert!(matches!(
            client.read_frame(),
            Err(ClientError::Decode(DecodeError::BadTag { got: 250 }))
        ));
        assert_eq!(
            client.read_frame().expect("next frame"),
            Frame::QueryBeacon(7)
        );
        peer.join().expect("peer");
    }
}
