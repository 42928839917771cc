//! The shard map: every [`BlockKey`] → exactly one owner node.
//!
//! Ownership is a consistent-hash ring — each node contributes `vnodes`
//! pseudo-random points, a key belongs to the first point at or past its
//! hash (wrapping). Adding or removing one node therefore moves only the
//! arcs that node's points covered; everything else keeps its owner, which
//! is what makes failover cheap (only the dead node's shard reassigns, and
//! it lands on the ring successors — exactly the nodes
//! [`ShardMap::owners`] already named as fallback candidates).
//!
//! Each key is hashed independently ([`ShardStrategy::Ring`]): uniform,
//! though spatially adjacent blocks scatter across nodes.
//!
//! Maps are versioned (every membership change bumps the version) and
//! travel between nodes/clients as a CRC-framed `VMAP` blob inside the
//! VSRV `MapReply` message, so both sides detect skew by comparing
//! versions before decoding anything.

use std::fmt;
use viz_volume::{crc32, BlockKey};

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

/// Why a `VMAP` blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Fewer bytes than the frame promises.
    Truncated,
    /// Stored CRC does not match the body.
    BadCrc,
    /// Body does not open with `VMAP`.
    BadMagic,
    /// Codec version this build does not speak.
    BadVersion(u16),
    /// Structurally invalid payload.
    Malformed(&'static str),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Truncated => write!(f, "truncated shard map frame"),
            MapError::BadCrc => write!(f, "shard map checksum mismatch"),
            MapError::BadMagic => write!(f, "bad shard map magic"),
            MapError::BadVersion(v) => write!(f, "unsupported shard map codec v{v}"),
            MapError::Malformed(what) => write!(f, "malformed shard map: {what}"),
        }
    }
}

impl std::error::Error for MapError {}

const MAP_MAGIC: [u8; 4] = *b"VMAP";
const MAP_CODEC_VERSION: u16 = 1;

/// Local copy of the splitmix64 finalizer (viz-fetch keeps its own
/// crate-private); used for ring points, key hashes, and the chaos
/// harness's seeded schedules.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The versioned key→owner assignment (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    version: u64,
    vnodes: u32,
    strategy: ShardStrategy,
    nodes: Vec<NodeId>,
    /// `(point, node)` sorted by point; rebuilt deterministically from
    /// `nodes` and `vnodes` on every membership change and after decode.
    ring: Vec<(u64, NodeId)>,
}

impl ShardMap {
    /// Build version-1 map over `nodes` with `vnodes` ring points each.
    pub fn new(nodes: &[NodeId], vnodes: u32, strategy: ShardStrategy) -> ShardMap {
        assert!(vnodes > 0, "vnodes must be positive");
        let mut nodes: Vec<NodeId> = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        let ring = Self::build_ring(&nodes, vnodes);
        ShardMap { version: 1, vnodes, strategy, nodes, ring }
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

    /// Monotonic map version; every membership change bumps it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sharding strategy in force.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Member nodes, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `true` when `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
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
    /// in ring-successor order — the same nodes the key would reassign to
    /// if its owner left, so routing retries and failover agree by
    /// construction.
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

    /// A successor map without `node` (version bumped). A no-op member
    /// set still bumps the version so callers can always distinguish "I
    /// reassigned" from "same map".
    pub fn without(&self, node: NodeId) -> ShardMap {
        let nodes: Vec<NodeId> = self.nodes.iter().copied().filter(|&n| n != node).collect();
        let ring = Self::build_ring(&nodes, self.vnodes);
        ShardMap {
            version: self.version + 1,
            vnodes: self.vnodes,
            strategy: self.strategy,
            nodes,
            ring,
        }
    }

    /// A successor map with `node` added (version bumped).
    pub fn with(&self, node: NodeId) -> ShardMap {
        let mut nodes = self.nodes.clone();
        if let Err(at) = nodes.binary_search(&node) {
            nodes.insert(at, node);
        }
        let ring = Self::build_ring(&nodes, self.vnodes);
        ShardMap {
            version: self.version + 1,
            vnodes: self.vnodes,
            strategy: self.strategy,
            nodes,
            ring,
        }
    }

    /// Serialize as a CRC-framed `VMAP` blob (`[len][crc][body]`, same
    /// outer convention as the VSRV wire frames).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32 + self.nodes.len() * 4);
        b.extend_from_slice(&MAP_MAGIC);
        b.extend_from_slice(&MAP_CODEC_VERSION.to_le_bytes());
        b.extend_from_slice(&self.version.to_le_bytes());
        b.extend_from_slice(&self.vnodes.to_le_bytes());
        match self.strategy {
            ShardStrategy::Ring => b.push(0),
        }
        b.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for n in &self.nodes {
            b.extend_from_slice(&n.0.to_le_bytes());
        }
        let mut out = Vec::with_capacity(8 + b.len());
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&b).to_le_bytes());
        out.extend_from_slice(&b);
        out
    }

    /// Decode a `VMAP` blob; every corruption mode is a typed
    /// [`MapError`], never a panic.
    pub fn decode(buf: &[u8]) -> Result<ShardMap, MapError> {
        if buf.len() < 8 {
            return Err(MapError::Truncated);
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if buf.len() < 8 + len {
            return Err(MapError::Truncated);
        }
        let body = &buf[8..8 + len];
        if crc32(body) != stored {
            return Err(MapError::BadCrc);
        }
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], MapError> {
            if body.len() - *at < n {
                return Err(MapError::Truncated);
            }
            let s = &body[*at..*at + n];
            *at += n;
            Ok(s)
        };
        let magic: [u8; 4] = take(&mut at, 4)?.try_into().unwrap();
        if magic != MAP_MAGIC {
            return Err(MapError::BadMagic);
        }
        let codec = u16::from_le_bytes(take(&mut at, 2)?.try_into().unwrap());
        if codec != MAP_CODEC_VERSION {
            return Err(MapError::BadVersion(codec));
        }
        let version = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
        let vnodes = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
        if vnodes == 0 {
            return Err(MapError::Malformed("vnodes must be positive"));
        }
        let strategy = match take(&mut at, 1)?[0] {
            0 => ShardStrategy::Ring,
            _ => return Err(MapError::Malformed("unknown strategy tag")),
        };
        let count = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        if count.saturating_mul(4) > body.len() - at {
            return Err(MapError::Malformed("node count exceeds payload"));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            nodes.push(NodeId(u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap())));
        }
        if at != body.len() {
            return Err(MapError::Malformed("trailing bytes after payload"));
        }
        nodes.sort();
        nodes.dedup();
        let ring = Self::build_ring(&nodes, vnodes);
        Ok(ShardMap { version, vnodes, strategy, nodes, ring })
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
            assert!(map.contains(owner));
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
        let next = map.without(dead);
        assert_eq!(next.version(), map.version() + 1);
        let mut moved = 0usize;
        let corpus = key_corpus();
        for &k in &corpus {
            let before = map.owner(k).unwrap();
            let after = next.owner(k).unwrap();
            if before == dead {
                moved += 1;
                assert_ne!(after, dead);
                // The dead node's keys land on its ring successors — the
                // same nodes owners() listed as fallbacks.
                assert!(
                    map.owners(k, 2).contains(&after) || map.owners(k, 4)[1..].contains(&after)
                );
            } else {
                assert_eq!(before, after, "surviving keys must not move");
            }
        }
        assert!(moved > 0, "node 2 owned nothing in a {}-key corpus?", corpus.len());
    }

    #[test]
    fn addition_moves_only_keys_onto_the_new_node() {
        let map = ShardMap::new(&nodes(3), 64, ShardStrategy::Ring);
        let grown = map.with(NodeId(3));
        let mut moved = 0usize;
        for k in key_corpus() {
            let before = map.owner(k).unwrap();
            let after = grown.owner(k).unwrap();
            if before != after {
                moved += 1;
                assert_eq!(after, NodeId(3), "moves may only target the new node");
            }
        }
        assert!(moved > 0);
    }

    #[test]
    fn removal_is_roughly_minimal() {
        // Consistent hashing's promise: removing 1 of N nodes moves about
        // 1/N of keys, not all of them. Allow generous slack — the bound
        // being asserted is "nowhere near a full reshuffle".
        let map = ShardMap::new(&nodes(4), 64, ShardStrategy::Ring);
        let next = map.without(NodeId(1));
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
    fn encode_decode_roundtrip() {
        let map = ShardMap::new(&nodes(4), 32, ShardStrategy::Ring).without(NodeId(1));
        let decoded = ShardMap::decode(&map.encode()).unwrap();
        assert_eq!(decoded, map);
        assert_eq!(decoded.version(), 2);
        for k in key_corpus().into_iter().take(256) {
            assert_eq!(decoded.owner(k), map.owner(k));
        }
    }

    #[test]
    fn decode_corruption_is_typed() {
        let blob = ShardMap::new(&nodes(3), 16, ShardStrategy::Ring).encode();
        assert_eq!(ShardMap::decode(&blob[..4]), Err(MapError::Truncated));
        assert_eq!(ShardMap::decode(&blob[..blob.len() - 2]), Err(MapError::Truncated));
        let mut crc_flip = blob.clone();
        crc_flip[5] ^= 0x40;
        assert_eq!(ShardMap::decode(&crc_flip), Err(MapError::BadCrc));
        let mut magic_flip = blob.clone();
        magic_flip[8] = b'X';
        // CRC is over the body, so a magic flip also fails the CRC first;
        // manufacture frames with a valid CRC over a corrupt body.
        let reframed = |at: usize, byte: u8| {
            let mut body = blob[8..].to_vec();
            body[at] = byte;
            let mut frame = Vec::new();
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&body).to_le_bytes());
            frame.extend_from_slice(&body);
            frame
        };
        assert_eq!(ShardMap::decode(&reframed(0, b'X')), Err(MapError::BadMagic));
        assert_eq!(ShardMap::decode(&magic_flip), Err(MapError::BadCrc));
        // The strategy tag follows magic, codec, version and vnodes; 0 is
        // `Ring`, and no other tag names a strategy.
        assert_eq!(
            ShardMap::decode(&reframed(18, 1)),
            Err(MapError::Malformed("unknown strategy tag"))
        );
    }

    #[test]
    fn empty_map_owns_nothing() {
        let map = ShardMap::new(&[], 16, ShardStrategy::Ring);
        assert_eq!(map.owner(key(1)), None);
        assert!(map.owners(key(1), 2).is_empty());
    }
}
