//! The shard map: every [`BlockKey`] → exactly one owner node.
//!
//! Ownership is a consistent-hash ring — each node contributes `vnodes`
//! pseudo-random points, a key belongs to the first point at or past its
//! hash (wrapping). [`ShardMap::owners`] walks on from there: the key's
//! owner, then each further node in ring-successor order.
//!
//! Each key is hashed independently ([`ShardStrategy::Ring`]): uniform,
//! though spatially adjacent blocks scatter across nodes.
//!
//! The map is static: built once over the cluster's nodes and never
//! changed, a pure function every router and node evaluates alike. A
//! dead node needs no new map. Removing a node from a ring moves only
//! the keys it owned, each to the next node on its successor list, so
//! the first *live* node of `owners(key, nodes.len())` is exactly the
//! owner a map built over the survivors would name — failover along the
//! whole ring is the reassignment.

use std::fmt;
use viz_volume::BlockKey;

/// Identifies one serve node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a key hashes as when placed on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Hash each key independently: uniform, spatially scattered.
    Ring,
}

/// Local copy of the splitmix64 finalizer (viz-fetch keeps its own
/// crate-private); used for ring points, key hashes, and the chaos
/// harness's seeded schedules.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The static key→owner assignment (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    strategy: ShardStrategy,
    nodes: Vec<NodeId>,
    /// `(point, node)` sorted by point, built from `nodes` and `vnodes`.
    ring: Vec<(u64, NodeId)>,
}

impl ShardMap {
    /// Build the map over `nodes` with `vnodes` ring points each.
    pub fn new(nodes: &[NodeId], vnodes: u32, strategy: ShardStrategy) -> ShardMap {
        assert!(vnodes > 0, "vnodes must be positive");
        let mut nodes: Vec<NodeId> = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        let ring = Self::build_ring(&nodes, vnodes);
        ShardMap { strategy, nodes, ring }
    }

    fn build_ring(nodes: &[NodeId], vnodes: u32) -> Vec<(u64, NodeId)> {
        let mut ring = Vec::with_capacity(nodes.len() * vnodes as usize);
        for &n in nodes {
            for v in 0..vnodes {
                let point = splitmix64((u64::from(n.0) << 32) | u64::from(v));
                ring.push((point, n));
            }
        }
        ring.sort();
        ring
    }

    /// Member nodes, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The hashable placement unit for `key` under the strategy.
    fn shard_hash(&self, key: BlockKey) -> u64 {
        let vt = (u64::from(key.var) << 16) | u64::from(key.time);
        match self.strategy {
            ShardStrategy::Ring => {
                splitmix64((vt << 32) ^ u64::from(key.block.0).wrapping_mul(0x9E37_79B9))
            }
        }
    }

    /// The key's single owner; `None` only for an empty map.
    pub fn owner(&self, key: BlockKey) -> Option<NodeId> {
        self.owners(key, 1).first().copied()
    }

    /// The key's owner followed by up to `n - 1` distinct fallback nodes
    /// in ring-successor order. With `n = nodes().len()` this is the whole
    /// ring, and its first live entry is the key's owner under a map built
    /// over the live nodes (see module docs).
    pub fn owners(&self, key: BlockKey, n: usize) -> Vec<NodeId> {
        if self.ring.is_empty() || n == 0 {
            return Vec::new();
        }
        let h = self.shard_hash(key);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        let mut out: Vec<NodeId> = Vec::with_capacity(n.min(self.nodes.len()));
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::BlockId;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn key(i: u32) -> BlockKey {
        BlockKey::scalar(BlockId(i))
    }

    /// Seeded key sweep: every key in a dense id range plus a salted
    /// scatter of var/time combinations.
    fn key_corpus() -> Vec<BlockKey> {
        let mut v: Vec<BlockKey> = (0..4096).map(key).collect();
        for i in 0..512u64 {
            let h = splitmix64(i ^ 0xC0FFEE);
            v.push(BlockKey::new((h >> 48) as u16 % 8, (h >> 32) as u16 % 8, BlockId(h as u32)));
        }
        v
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        for k in key_corpus() {
            let owner = map.owner(k).expect("non-empty map always owns");
            assert!(map.nodes().contains(&owner));
            // Deterministic: ask twice, same answer.
            assert_eq!(map.owner(k), Some(owner));
            // owners(1) agrees with owner().
            assert_eq!(map.owners(k, 1), vec![owner]);
        }
    }

    #[test]
    fn owners_are_distinct_and_lead_with_the_owner() {
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        for k in key_corpus().into_iter().take(512) {
            let cands = map.owners(k, 3);
            assert_eq!(cands.len(), 3);
            assert_eq!(cands[0], map.owner(k).unwrap());
            let mut uniq = cands.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "owners must be distinct: {cands:?}");
        }
        // Asking for more candidates than nodes saturates at the node set.
        assert_eq!(map.owners(key(0), 9).len(), 4);
    }

    #[test]
    fn removal_moves_only_the_dead_nodes_keys() {
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        let dead = NodeId(2);
        let survivors: Vec<NodeId> = nodes(4).into_iter().filter(|&n| n != dead).collect();
        let next = ShardMap::new(&survivors, 64, ShardStrategy::Ring);
        let mut moved = 0usize;
        let corpus = key_corpus();
        for &k in &corpus {
            let before = map.owner(k).unwrap();
            let after = next.owner(k).unwrap();
            if before == dead {
                moved += 1;
                assert_ne!(after, dead);
                // The dead node's keys land on its ring successor — the
                // first fallback owners() lists.
                assert_eq!(after, map.owners(k, 2)[1]);
            } else {
                assert_eq!(before, after, "surviving keys must not move");
            }
        }
        assert!(moved > 0, "node 2 owned nothing in a {}-key corpus?", corpus.len());
    }

    #[test]
    fn removal_is_roughly_minimal() {
        // Consistent hashing's promise: removing 1 of N nodes moves about
        // 1/N of keys, not all of them. Allow generous slack — the bound
        // being asserted is "nowhere near a full reshuffle".
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        let survivors: Vec<NodeId> = nodes(4).into_iter().filter(|&n| n != NodeId(1)).collect();
        let next = ShardMap::new(&survivors, 64, ShardStrategy::Ring);
        let corpus = key_corpus();
        let moved =
            corpus.iter().filter(|&&k| map.owner(k).unwrap() != next.owner(k).unwrap()).count();
        let frac = moved as f64 / corpus.len() as f64;
        assert!(frac < 0.45, "removal moved {:.0}% of keys", frac * 100.0);
        assert!(frac > 0.05, "removal moved implausibly few keys ({moved})");
    }

    #[test]
    fn ring_balance_is_reasonable() {
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        let mut counts = [0usize; 4];
        let corpus = key_corpus();
        for &k in &corpus {
            counts[map.owner(k).unwrap().0 as usize] += 1;
        }
        let expect = corpus.len() / 4;
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 3 && c < expect * 3,
                "node {n} owns {c} of {} keys (expected ~{expect})",
                corpus.len()
            );
        }
    }

    #[test]
    fn empty_map_owns_nothing() {
        let map = ShardMap::new(&[], 16, ShardStrategy::Ring);
        assert_eq!(map.owner(key(1)), None);
        assert!(map.owners(key(1), 2).is_empty());
    }

    /// Failover is reassignment: with any proper, non-empty set of nodes
    /// down, the first live node on a key's whole-ring successor list is
    /// the key's owner under a map built over the survivors alone. So a
    /// router that walks the ring reaches the node a reassigned map would
    /// name, and no map has to change.
    #[test]
    fn first_live_successor_is_the_survivor_maps_owner() {
        let corpus: Vec<BlockKey> = (0..4096).map(key).collect();
        for n in [3u32, 5] {
            let all = nodes(n);
            let map = ShardMap::new(&all, 64, ShardStrategy::Ring);
            for down in 1..(1u32 << n) - 1 {
                let survivors: Vec<NodeId> =
                    all.iter().copied().filter(|m| down & (1 << m.0) == 0).collect();
                let reassigned = ShardMap::new(&survivors, 64, ShardStrategy::Ring);
                for &k in &corpus {
                    let walk = map.owners(k, all.len());
                    let first_live = walk.into_iter().find(|m| survivors.contains(m));
                    assert_eq!(first_live, reassigned.owner(k), "{n} nodes, down {down:#b}, {k:?}");
                }
            }
        }
    }
}
