//! Consistent-hash beacon partitioning, WAL replication, and warm
//! failover for the locble serving stack.
//!
//! Three pieces, layered on the existing wire protocol (no new
//! transport, no new engine):
//!
//! - [`ClusterRouter`] — rendezvous hashing of beacon ids over node
//!   ids. Ownership is a pure function of `(beacon, node-id set)`:
//!   address-free, order-free, minimally disrupted by membership
//!   change.
//! - [`Front`] — a proxy on the `locble-net` reactor that clients use
//!   like a standalone server. Each tick it partitions every batch with
//!   the router, pipelines buckets and fanned-out queries to the owners,
//!   and folds the replies (snapshots merge in beacon order, stats sum).
//! - [`NodeSpec`] / [`serve_node`] — owner/follower bring-up: a
//!   durable reactor server with a cluster attachment. Owners stream
//!   their WAL to a follower ([`locble_store::WalTailer`] is the
//!   source of truth); a follower promoted by a new partition map
//!   already holds the partition's records and serves warm.
//!
//! The failover story, end to end: every owner's WAL is mirrored on
//! its follower (byte-prefix invariant, enforced by the `Replicate`
//! base check). When an owner dies, the driver installs a new map
//! pointing the owner's node id at the follower's address; the front
//! re-broadcasts it; the follower sees itself listed and promotes —
//! drain, role flip, start serving. Under synchronous replication
//! every advert the client saw acked is on the follower, so the
//! cluster's final estimates are bit-identical to an uninterrupted
//! single-node run (the crashtest in `tests/cluster_crash.rs` proves
//! exactly that, through real SIGKILL).

mod front;
mod node;
mod router;

pub use front::{Front, FrontConfig, FrontHandle};
pub use node::{
    format_map, parse_map, serve_node, serve_node_from_env, spec_from_env, spec_to_env, NodeSpec,
};
pub use router::ClusterRouter;
