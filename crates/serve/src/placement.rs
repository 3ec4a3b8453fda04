//! Placement: the one key→owner mapping every process in a deployment
//! shares.
//!
//! A deployment is N nodes × M shards each, flattened into `N·M` *slots*.
//! A stream key hashes to a slot with the workspace FNV-1a
//! ([`bfly_common::hash::fnv1a`]), and the slot decomposes into an owner:
//!
//! ```text
//! slot  = fnv1a(key) % (N · M)
//! node  = slot / M
//! shard = slot % M        (the shard index *on that node*)
//! ```
//!
//! The pre-federation single-process service is the degenerate `N = 1` map:
//! `slot = fnv1a(key) % M`, `node = 0`, `shard = slot` — byte-identical to
//! the historical `fnv1a(key) % shards` routing, which the serve_net suite
//! pins. The in-process path and the router both route through this module,
//! so there is exactly one placement function in the codebase.
//!
//! A node behind a router still routes *locally* with its own degenerate
//! map over its local shard count. That is deliberate: which local shard a
//! key lands on affects only which worker thread owns it — a stream's
//! release bytes depend on (config, seed, key, record order), none of which
//! mention the shard — so nodes need no knowledge of the cluster to produce
//! byte-identical releases, and a key's releases survive resharding.
//!
//! The map is versioned. This PR ships static maps (the version changes
//! only when the node list changes between process restarts); the version
//! field is the seam a future rebalance protocol needs — a forwarded frame
//! tagged with a stale version is the signal to refresh, not misroute.

use bfly_common::hash::fnv1a;
use std::net::SocketAddr;

/// Where one key lives: which node, and which shard on that node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owner {
    /// Index into the map's node list.
    pub node: usize,
    /// Shard index local to that node.
    pub shard: usize,
}

/// A versioned, immutable view of the deployment: N nodes × M shards each.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterMap {
    /// Monotone map version; bumps when the node list changes.
    version: u64,
    /// Node addresses in slot order. Empty for the degenerate in-process
    /// map (node 0 is "this process").
    nodes: Vec<SocketAddr>,
    /// Shards per node (M). Every node runs the same count — placement
    /// must be computable from the map alone, without asking each node.
    shards_per_node: usize,
}

impl ClusterMap {
    /// The degenerate one-node map: `M` shards in this process. Its
    /// [`ClusterMap::owner_of`] is exactly the historical
    /// `fnv1a(key) % shards` routing.
    pub fn single(shards: usize) -> ClusterMap {
        assert!(shards > 0, "a cluster map needs at least one shard");
        ClusterMap {
            version: 1,
            nodes: Vec::new(),
            shards_per_node: shards,
        }
    }

    /// A federated map over `nodes` (in slot order), `shards_per_node`
    /// shards each.
    pub fn federated(version: u64, nodes: Vec<SocketAddr>, shards_per_node: usize) -> ClusterMap {
        assert!(!nodes.is_empty(), "a federated map needs at least one node");
        assert!(
            shards_per_node > 0,
            "a cluster map needs at least one shard"
        );
        ClusterMap {
            version,
            nodes,
            shards_per_node,
        }
    }

    /// The map version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of nodes (1 for the degenerate map).
    pub fn node_count(&self) -> usize {
        self.nodes.len().max(1)
    }

    /// Shards per node (M).
    pub fn shards_per_node(&self) -> usize {
        self.shards_per_node
    }

    /// Total slots (N·M).
    pub fn slots(&self) -> usize {
        self.node_count() * self.shards_per_node
    }

    /// The node addresses in slot order.
    pub fn node_addrs(&self) -> &[SocketAddr] {
        &self.nodes
    }

    /// Hash a key to its slot.
    pub fn slot_of(&self, key: &str) -> usize {
        (fnv1a(key) % self.slots() as u64) as usize
    }

    /// Hash a key to its owner. On the degenerate map `node` is always 0
    /// and `shard` is `fnv1a(key) % shards` — the pinned historical path.
    pub fn owner_of(&self, key: &str) -> Owner {
        let slot = self.slot_of(key);
        Owner {
            node: slot / self.shards_per_node,
            shard: slot % self.shards_per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7000 + i).parse().unwrap())
            .collect()
    }

    /// The degenerate map must be byte-identical to the historical routing:
    /// this is what lets the single-process server route through placement
    /// without moving a single key.
    #[test]
    fn single_node_map_is_the_legacy_mod_shards_routing() {
        for shards in [1, 3, 4, 7] {
            let map = ClusterMap::single(shards);
            for i in 0..256 {
                let key = format!("t{i}");
                let owner = map.owner_of(&key);
                assert_eq!(owner.node, 0);
                assert_eq!(owner.shard, (fnv1a(&key) % shards as u64) as usize, "{key}");
            }
        }
    }

    #[test]
    fn federated_owner_decomposes_the_slot() {
        let map = ClusterMap::federated(3, addrs(3), 4);
        assert_eq!(map.slots(), 12);
        assert_eq!(map.version(), 3);
        for i in 0..256 {
            let key = format!("stream-{i}");
            let slot = (fnv1a(&key) % 12) as usize;
            let owner = map.owner_of(&key);
            assert_eq!(owner.node, slot / 4);
            assert_eq!(owner.shard, slot % 4);
            assert!(owner.node < map.node_addrs().len());
        }
    }

    #[test]
    fn every_node_owns_keys_under_uniform_hashing() {
        let map = ClusterMap::federated(1, addrs(4), 2);
        let mut per_node = vec![0usize; 4];
        for i in 0..256 {
            per_node[map.owner_of(&format!("t{i}")).node] += 1;
        }
        assert!(
            per_node.iter().all(|&n| n > 0),
            "a node got no keys: {per_node:?}"
        );
    }

    #[test]
    fn placement_is_stable_across_maps_with_the_same_shape() {
        let a = ClusterMap::federated(1, addrs(2), 4);
        let b = ClusterMap::federated(2, addrs(2), 4);
        for i in 0..64 {
            let key = format!("t{i}");
            assert_eq!(a.owner_of(&key), b.owner_of(&key));
        }
    }
}
