//! Rendezvous (highest-random-weight) partitioning of beacon ids over
//! cluster nodes.
//!
//! The in-engine shard router (`crates/engine/src/router.rs`) maps a
//! beacon to `splitmix64(id) % shards` — perfect inside one process,
//! where shard count is fixed for the engine's lifetime. Across a
//! cluster the modulus is wrong: changing N remaps almost every beacon,
//! and a rebalance would have to move nearly all sessions. Rendezvous
//! hashing keeps the same dependency-free SplitMix64 core but scores
//! every (node, beacon) pair independently and picks the maximum, so
//! removing a node moves only the beacons that node owned, and adding
//! one steals an even ~1/N slice from everyone — the minimal-disruption
//! property failover leans on.
//!
//! Determinism contract, same as the shard router's: the owner is a
//! pure function of `(beacon id, node-id set)` — stable across runs,
//! platforms, processes, and node *addresses*. Addresses are routing
//! metadata; only the stable `node_id` feeds the hash, which is why a
//! promoted follower that keeps its dead owner's node id inherits
//! exactly its partition.

use locble_ble::BeaconId;
use locble_engine::router::splitmix64;
use locble_net::wire::{NodeEntry, WirePartitionMap};

/// The rendezvous weight of one (node, beacon) pair. Mixing the
/// already-diffused beacon hash with the node id before the second
/// finalizer pass keeps node scores independent: flipping the node id
/// decorrelates every beacon's score, not just a residue class.
fn score(node_id: u64, beacon: BeaconId) -> u64 {
    splitmix64(splitmix64(u64::from(beacon.0)) ^ node_id)
}

/// An immutable routing view over one epoch's membership: who owns each
/// beacon id. Build a new router when a new [`WirePartitionMap`] is
/// installed; clones of the underlying map stay cheap to share.
#[derive(Debug, Clone)]
pub struct ClusterRouter {
    epoch: u64,
    nodes: Vec<NodeEntry>,
}

impl ClusterRouter {
    /// A router over `map`'s nodes. Duplicate node ids are collapsed to
    /// the last entry (a map should never contain them; collapsing
    /// keeps the router total instead of ambiguous).
    pub fn new(map: &WirePartitionMap) -> ClusterRouter {
        let mut nodes: Vec<NodeEntry> = Vec::with_capacity(map.nodes.len());
        for entry in &map.nodes {
            match nodes.iter_mut().find(|n| n.node_id == entry.node_id) {
                Some(existing) => existing.addr = entry.addr.clone(),
                None => nodes.push(entry.clone()),
            }
        }
        ClusterRouter {
            epoch: map.epoch,
            nodes,
        }
    }

    /// The membership epoch this router was built from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The owner nodes, deduplicated, in map order.
    pub fn nodes(&self) -> &[NodeEntry] {
        &self.nodes
    }

    /// The map this router routes by.
    pub fn to_map(&self) -> WirePartitionMap {
        WirePartitionMap {
            epoch: self.epoch,
            nodes: self.nodes.clone(),
        }
    }

    /// Index (into [`ClusterRouter::nodes`]) of the node owning
    /// `beacon`, or `None` on an empty membership. Ties — possible only
    /// if two node ids collide in the hash — break toward the smaller
    /// node id, so the choice is still order-free.
    pub fn owner_index(&self, beacon: BeaconId) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (idx, node) in self.nodes.iter().enumerate() {
            let weight = score(node.node_id, beacon);
            let better = match best {
                None => true,
                Some((_, best_weight, best_id)) => {
                    weight > best_weight || (weight == best_weight && node.node_id < best_id)
                }
            };
            if better {
                best = Some((idx, weight, node.node_id));
            }
        }
        best.map(|(idx, _, _)| idx)
    }

    /// The node owning `beacon`, or `None` on an empty membership.
    pub fn owner_of(&self, beacon: BeaconId) -> Option<&NodeEntry> {
        self.owner_index(beacon).map(|idx| &self.nodes[idx])
    }

    /// Splits `items` into per-node buckets by each item's beacon,
    /// preserving arrival order inside every bucket — the invariant
    /// that keeps a forwarded stream's per-beacon order identical to
    /// the unpartitioned stream's. Returns one bucket per node, indexed
    /// like [`ClusterRouter::nodes`] (empty membership: no buckets, all
    /// items dropped into the returned remainder flag via `None`).
    pub fn partition<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        beacon_of: impl Fn(&T) -> BeaconId,
    ) -> Option<Vec<Vec<T>>> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut buckets: Vec<Vec<T>> = (0..self.nodes.len()).map(|_| Vec::new()).collect();
        for item in items {
            let idx = self
                .owner_index(beacon_of(&item))
                .expect("membership checked non-empty");
            buckets[idx].push(item);
        }
        Some(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(ids: &[u64]) -> WirePartitionMap {
        WirePartitionMap {
            epoch: 1,
            nodes: ids
                .iter()
                .map(|&node_id| NodeEntry {
                    node_id,
                    addr: format!("127.0.0.1:{}", 9000 + node_id),
                })
                .collect(),
        }
    }

    #[test]
    fn owner_is_pure_and_address_free() {
        let router = ClusterRouter::new(&map_of(&[1, 2, 3]));
        // Same ids, different addresses and order: identical ownership.
        let mut shuffled = map_of(&[3, 1, 2]);
        for n in &mut shuffled.nodes {
            n.addr = format!("10.0.0.{}:1", n.node_id);
        }
        let reshuffled = ClusterRouter::new(&shuffled);
        for id in 0..5_000u32 {
            let a = router.owner_of(BeaconId(id)).expect("non-empty").node_id;
            let b = reshuffled
                .owner_of(BeaconId(id))
                .expect("non-empty")
                .node_id;
            assert_eq!(a, b, "beacon {id}: ownership must ignore order/addr");
            assert_eq!(
                a,
                router.owner_of(BeaconId(id)).expect("non-empty").node_id,
                "beacon {id}: hash must be pure"
            );
        }
    }

    #[test]
    fn ownership_spreads_evenly() {
        let router = ClusterRouter::new(&map_of(&[10, 20, 30]));
        let mut counts = [0usize; 3];
        for id in 0..3_000u32 {
            counts[router.owner_index(BeaconId(id)).expect("non-empty")] += 1;
        }
        for (node, &n) in counts.iter().enumerate() {
            assert!(
                (800..=1200).contains(&n),
                "node {node} owns {n}/3000 beacons"
            );
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_beacons() {
        let three = ClusterRouter::new(&map_of(&[1, 2, 3]));
        let two = ClusterRouter::new(&map_of(&[1, 3]));
        for id in 0..5_000u32 {
            let before = three.owner_of(BeaconId(id)).expect("non-empty").node_id;
            let after = two.owner_of(BeaconId(id)).expect("non-empty").node_id;
            if before != 2 {
                // The rendezvous property: survivors keep everything
                // they owned.
                assert_eq!(before, after, "beacon {id} moved off a surviving node");
            } else {
                assert!(after == 1 || after == 3);
            }
        }
    }

    #[test]
    fn partition_preserves_order_within_buckets() {
        let router = ClusterRouter::new(&map_of(&[1, 2, 3]));
        let items: Vec<(u32, usize)> = (0..200).map(|i| ((i % 23) as u32, i as usize)).collect();
        let buckets = router
            .partition(items.clone(), |&(beacon, _)| BeaconId(beacon))
            .expect("non-empty membership");
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), items.len());
        for (idx, bucket) in buckets.iter().enumerate() {
            for pair in bucket.windows(2) {
                assert!(
                    pair[0].1 < pair[1].1,
                    "bucket {idx} reordered the arrival sequence"
                );
            }
            for &(beacon, _) in bucket {
                assert_eq!(router.owner_index(BeaconId(beacon)), Some(idx));
            }
        }
        let empty = ClusterRouter::new(&WirePartitionMap {
            epoch: 0,
            nodes: Vec::new(),
        });
        assert!(empty.partition(items, |&(b, _)| BeaconId(b)).is_none());
        assert!(empty.owner_of(BeaconId(7)).is_none());
    }

    #[test]
    fn duplicate_node_ids_collapse_to_the_last_address() {
        let mut map = map_of(&[5, 6]);
        map.nodes.push(NodeEntry {
            node_id: 5,
            addr: "127.0.0.1:7777".to_string(),
        });
        let router = ClusterRouter::new(&map);
        assert_eq!(router.nodes().len(), 2);
        assert_eq!(
            router
                .nodes()
                .iter()
                .find(|n| n.node_id == 5)
                .expect("kept")
                .addr,
            "127.0.0.1:7777"
        );
    }
}
