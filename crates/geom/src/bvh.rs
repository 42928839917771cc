//! Flat, arena-allocated bounding-volume hierarchy over AABBs.
//!
//! The paper's pre-processing (§IV-B) and per-step ground truth evaluate the
//! Eq. 1 cone test against *every* block of the layout; this module replaces
//! those linear scans with a BVH traversal. Each node caches its bounding
//! sphere, and traversal classifies it with the trig-free
//! [`ConeFrustum::classify_sphere`]: `Outside` subtrees are pruned, `Inside`
//! subtrees are emitted wholesale (every contained corner test is trivially
//! true inside a convex cone), and only the *boundary* (`Crossing`) leaves
//! in between run the exact Eq. 1 corner test — so query results are
//! **identical** to a brute-force scan, with no approximation drift.
//!
//! The tree is stored as a flat arena (`Vec` of nodes, left child adjacent
//! to its parent) built by deterministic median splits over primitive
//! centroids, so builds are reproducible across runs and platforms.

use crate::aabb::Aabb;
use crate::frustum::{ConeFrustum, SphereClass};
use crate::vec3::Vec3;

/// Primitives per leaf. Tuned on the paper-scale 32 768-block grid: 8 beats
/// both 4 (deeper arena, more sphere tests) and 16 (boundary leaves run too
/// many exact corner tests).
const LEAF_SIZE: usize = 8;

/// One arena node. Every node records the contiguous primitive range its
/// subtree covers (the build reorders primitives so subtrees are always
/// contiguous), which lets fully-contained subtrees be emitted wholesale.
/// The left child is always at `self + 1`; `right == 0` marks a leaf (the
/// root is index 0 and can never be anyone's right child).
#[derive(Debug, Clone, Copy)]
struct BvhNode {
    /// Center of the sphere bounding everything below this node.
    center: Vec3,
    /// Radius of that sphere.
    radius: f64,
    /// Arena index of the right child; 0 for leaves.
    right: u32,
    /// First primitive slot of this subtree.
    first: u32,
    /// Number of primitives in this subtree.
    count: u32,
}

/// A flat BVH over a fixed set of AABBs (e.g. the blocks of a
/// `BrickLayout`). Primitive indices returned by queries refer to the
/// *original* slice order passed to [`Bvh::build`].
#[derive(Debug, Clone)]
pub struct Bvh {
    /// Arena of nodes; `nodes[0]` is the root (when non-empty).
    nodes: Vec<BvhNode>,
    /// Primitive bounds reordered into traversal order (leaf locality).
    prim_bounds: Vec<Aabb>,
    /// Original index of each reordered primitive slot.
    prim_ids: Vec<u32>,
}

impl Bvh {
    /// Build a BVH over `bounds`. Deterministic: the same input always
    /// produces the same arena.
    pub fn build(bounds: &[Aabb]) -> Self {
        let n = bounds.len();
        let mut prims: Vec<(u32, Aabb)> =
            bounds.iter().enumerate().map(|(i, b)| (i as u32, *b)).collect();
        let mut nodes = Vec::with_capacity((2 * n).max(1));
        if n > 0 {
            build_node(&mut prims, 0, n, &mut nodes);
        }
        let (prim_ids, prim_bounds) = prims.into_iter().unzip();
        Bvh { nodes, prim_bounds, prim_ids }
    }

    /// Number of primitives indexed.
    pub fn len(&self) -> usize {
        self.prim_ids.len()
    }

    /// `true` when the tree indexes no primitives.
    pub fn is_empty(&self) -> bool {
        self.prim_ids.is_empty()
    }

    /// Number of arena nodes.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<BvhNode>()
            + self.prim_bounds.len() * std::mem::size_of::<Aabb>()
            + self.prim_ids.len() * 4
    }

    /// Append the original indices of every primitive whose AABB passes the
    /// exact Eq. 1 corner test against `cone`. Each node's cached bounding
    /// sphere is classified once: `Outside` subtrees are pruned, `Inside`
    /// subtrees emitted wholesale (every corner of every contained primitive
    /// is inside the convex cone, so each corner test is trivially true),
    /// and `Crossing` leaves run the exact test — the result set equals a
    /// linear scan with [`ConeFrustum::intersects_block_corners`]; the
    /// *order* of appended indices follows the traversal, not the original
    /// order.
    pub fn cone_query_into(&self, cone: &ConeFrustum, out: &mut Vec<u32>) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        stack.push(0);
        while let Some(ni) = stack.pop() {
            let node = self.nodes[ni as usize];
            match cone.classify_sphere(node.center, node.radius) {
                SphereClass::Outside => {}
                SphereClass::Inside => {
                    let range = node.first as usize..(node.first + node.count) as usize;
                    out.extend_from_slice(&self.prim_ids[range]);
                }
                SphereClass::Crossing => {
                    if node.right == 0 {
                        let range = node.first as usize..(node.first + node.count) as usize;
                        for slot in range {
                            if cone.intersects_block_corners(&self.prim_bounds[slot]) {
                                out.push(self.prim_ids[slot]);
                            }
                        }
                    } else {
                        stack.push(node.right);
                        stack.push(ni + 1); // left child is adjacent
                    }
                }
            }
        }
    }

    /// Original indices of every cone-visible primitive, sorted ascending —
    /// bit-identical to the brute-force scan's output order.
    pub fn cone_query(&self, cone: &ConeFrustum) -> Vec<u32> {
        let mut out = Vec::new();
        self.cone_query_into(cone, &mut out);
        out.sort_unstable();
        out
    }
}

/// Recursively build the subtree for `prims[start..end]`, appending to the
/// arena in pre-order (left child adjacent to its parent). Returns the arena
/// index of the created node.
fn build_node(
    prims: &mut [(u32, Aabb)],
    start: usize,
    end: usize,
    nodes: &mut Vec<BvhNode>,
) -> u32 {
    let idx = nodes.len() as u32;
    let mut bb = prims[start].1;
    for p in &prims[start + 1..end] {
        bb = bb.union(&p.1);
    }
    let count = end - start;
    nodes.push(BvhNode {
        center: bb.center(),
        radius: bb.bounding_radius(),
        right: 0,
        first: start as u32,
        count: count as u32,
    });
    if count <= LEAF_SIZE {
        return idx;
    }

    // Split on the longest axis of the centroid bounds at the median.
    let mut c_min = prims[start].1.center();
    let mut c_max = c_min;
    for p in &prims[start + 1..end] {
        let c = p.1.center();
        c_min = c_min.min(c);
        c_max = c_max.max(c);
    }
    let e = c_max - c_min;
    let axis = if e.x >= e.y && e.x >= e.z {
        0
    } else if e.y >= e.z {
        1
    } else {
        2
    };
    // Degenerate centroid spread (all centers coincide): keep as a fat leaf
    // rather than recursing forever.
    if e.x.max(e.y).max(e.z) <= 0.0 {
        return idx;
    }

    let key = |p: &(u32, Aabb)| -> (f64, u32) {
        let c = p.1.center();
        let v = match axis {
            0 => c.x,
            1 => c.y,
            _ => c.z,
        };
        (v, p.0)
    };
    let mid = count / 2;
    prims[start..end].select_nth_unstable_by(mid, |a, b| {
        let (ka, ia) = key(a);
        let (kb, ib) = key(b);
        // Total order: centroid coordinate, ties broken by original index
        // for determinism (coordinates are finite by construction).
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(ia.cmp(&ib))
    });

    // Now an internal node: left subtree lands at idx + 1.
    build_node(prims, start, start + mid, nodes);
    let right = build_node(prims, start + mid, end, nodes);
    nodes[idx as usize].right = right;
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::deg_to_rad;
    use crate::camera::CameraPose;
    use crate::vec3::Vec3;

    /// A regular grid of boxes tiling `[-1, 1]^3`, like a brick layout.
    fn grid_boxes(per_axis: usize) -> Vec<Aabb> {
        let step = 2.0 / per_axis as f64;
        let mut out = Vec::new();
        for z in 0..per_axis {
            for y in 0..per_axis {
                for x in 0..per_axis {
                    let min = Vec3::new(
                        -1.0 + x as f64 * step,
                        -1.0 + y as f64 * step,
                        -1.0 + z as f64 * step,
                    );
                    out.push(Aabb::new(min, min + Vec3::splat(step)));
                }
            }
        }
        out
    }

    fn brute(cone: &ConeFrustum, bounds: &[Aabb]) -> Vec<u32> {
        bounds
            .iter()
            .enumerate()
            .filter_map(|(i, b)| cone.intersects_block_corners(b).then_some(i as u32))
            .collect()
    }

    #[test]
    fn empty_bvh_queries_nothing() {
        let bvh = Bvh::build(&[]);
        assert!(bvh.is_empty());
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, deg_to_rad(30.0));
        assert!(bvh.cone_query(&ConeFrustum::from_pose(&pose)).is_empty());
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let boxes = grid_boxes(8);
        let bvh = Bvh::build(&boxes);
        assert_eq!(bvh.len(), boxes.len());
        for (theta, phi, d, ang) in [
            (0.0, 0.0, 2.5, 15.0),
            (45.0, 30.0, 2.0, 30.0),
            (90.0, 200.0, 3.2, 60.0),
            (150.0, 77.0, 2.8, 5.0),
        ] {
            let pose = CameraPose::orbit(theta, phi, d, ang);
            let cone = ConeFrustum::from_pose(&pose);
            assert_eq!(bvh.cone_query(&cone), brute(&cone, &boxes), "pose {theta},{phi},{d},{ang}");
        }
    }

    #[test]
    fn apex_inside_a_block_is_found() {
        let boxes = grid_boxes(4);
        let bvh = Bvh::build(&boxes);
        // Camera inside the volume with a very narrow cone: the containing
        // block must still be reported (Eq. 1's apex-containment clause).
        let pose =
            CameraPose::new(Vec3::new(0.3, 0.3, 0.3), Vec3::new(0.9, 0.9, 0.9), deg_to_rad(2.0));
        let cone = ConeFrustum::from_pose(&pose);
        let got = bvh.cone_query(&cone);
        assert_eq!(got, brute(&cone, &boxes));
        let hit = boxes.iter().position(|b| b.contains(pose.position)).unwrap() as u32;
        assert!(got.contains(&hit));
    }

    #[test]
    fn duplicate_boxes_are_all_reported() {
        // Degenerate input: many identical boxes (zero centroid spread).
        let boxes = vec![Aabb::new(Vec3::ZERO, Vec3::splat(0.5)); 37];
        let bvh = Bvh::build(&boxes);
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, deg_to_rad(30.0));
        let cone = ConeFrustum::from_pose(&pose);
        let got = bvh.cone_query(&cone);
        assert_eq!(got.len(), 37);
        assert_eq!(got, (0..37u32).collect::<Vec<_>>());
    }

    #[test]
    fn build_is_deterministic() {
        let boxes = grid_boxes(6);
        let a = Bvh::build(&boxes);
        let b = Bvh::build(&boxes);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.prim_ids, b.prim_ids);
    }

    #[test]
    fn approx_bytes_scales_with_input() {
        let small = Bvh::build(&grid_boxes(2));
        let big = Bvh::build(&grid_boxes(8));
        assert!(big.approx_bytes() > small.approx_bytes());
        assert!(small.approx_bytes() > 0);
    }
}
