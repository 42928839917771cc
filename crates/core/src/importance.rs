//! `T_important` — the block-importance table of the paper's §IV-C.
//!
//! Each block's importance is the Shannon entropy (Eq. 2) of its value
//! histogram; blocks are kept sorted by descending entropy so the policy
//! can (a) pre-load the most important blocks into fast memory and (b)
//! filter over-predicted visible sets down to the blocks most likely to
//! matter.

use viz_geom::par;
use viz_volume::{BlockId, BlockStats, BrickLayout, ScalarFunction, VolumeField};

/// One entry of the importance table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceEntry {
    /// The block this entry describes.
    pub block: BlockId,
    /// Shannon entropy in bits (Eq. 2) over the global value range.
    pub entropy: f64,
}

/// The importance table: entropy per block, sorted descending.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceTable {
    /// Entries sorted by descending entropy (ties broken by block id for
    /// determinism).
    entries: Vec<ImportanceEntry>,
    /// `entropy[block.index()]` for O(1) lookups.
    by_block: Vec<f64>,
    /// Histogram bins used.
    pub bins: usize,
}

impl ImportanceTable {
    /// Build from per-block entropies (`by_block[i]` = entropy of block i).
    pub fn from_entropies(by_block: Vec<f64>, bins: usize) -> Self {
        let mut entries: Vec<ImportanceEntry> = by_block
            .iter()
            .enumerate()
            .map(|(i, &e)| ImportanceEntry { block: BlockId(i as u32), entropy: e })
            .collect();
        entries.sort_by(|a, b| {
            b.entropy
                .partial_cmp(&a.entropy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.block.cmp(&b.block))
        });
        ImportanceTable { entries, by_block, bins }
    }

    /// Build from a materialized field, histogramming each block over the
    /// field's global min/max so entropies are comparable across blocks.
    /// Runs block computations in parallel.
    pub fn from_field(layout: &BrickLayout, field: &VolumeField, bins: usize) -> Self {
        assert_eq!(layout.volume, field.dims, "layout does not match field");
        let (lo, hi) = field.min_max();
        let ids: Vec<BlockId> = layout.block_ids().collect();
        let by_block = par::map(ids.len(), |i| {
            let data = field.extract_block(layout, ids[i]);
            BlockStats::compute(&data, lo, hi, bins).entropy
        });
        Self::from_entropies(by_block, bins)
    }

    /// Build directly from a procedural generator without materializing the
    /// whole volume (one block at a time): the path used for paper-scale
    /// datasets that exceed memory. `range` is the variable's global value
    /// range (from metadata or a coarse pre-pass).
    pub fn from_function<F: ScalarFunction + ?Sized>(
        layout: &BrickLayout,
        f: &F,
        t: f64,
        range: (f32, f32),
        bins: usize,
    ) -> Self {
        let ids: Vec<BlockId> = layout.block_ids().collect();
        let (vnx, vny, vnz) =
            (layout.volume.nx as f64, layout.volume.ny as f64, layout.volume.nz as f64);
        let by_block = par::map(ids.len(), |i| {
            let (s, e) = layout.voxel_range(ids[i]);
            let mut hist = viz_volume::Histogram::new(range.0, range.1, bins);
            for z in s.nz..e.nz {
                for y in s.ny..e.ny {
                    for x in s.nx..e.nx {
                        let v = f.eval(
                            (x as f64 + 0.5) / vnx,
                            (y as f64 + 0.5) / vny,
                            (z as f64 + 0.5) / vnz,
                            t,
                        );
                        hist.add(v);
                    }
                }
            }
            hist.entropy()
        });
        Self::from_entropies(by_block, bins)
    }

    /// Number of blocks covered.
    pub fn len(&self) -> usize {
        self.by_block.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_block.is_empty()
    }

    /// Entropy of one block.
    pub fn entropy(&self, block: BlockId) -> f64 {
        self.by_block[block.index()]
    }

    /// Entries sorted by descending entropy.
    pub fn ranked(&self) -> &[ImportanceEntry] {
        &self.entries
    }

    /// Blocks with entropy strictly greater than `sigma` (the paper's
    /// pre-load set, Algorithm 1 line 7).
    pub fn above_threshold(&self, sigma: f64) -> impl Iterator<Item = BlockId> + '_ {
        self.entries.iter().take_while(move |e| e.entropy > sigma).map(|e| e.block)
    }

    /// A block's own entropy, picked so that at most `fraction` of blocks
    /// lie strictly above it (the rank `⌊fraction·n⌋` entry of
    /// [`ranked`](Self::ranked)) — a convenient way to pick the paper's
    /// threshold σ. Ties make `> σ` and `≥ σ` differ: when many blocks
    /// share the returned entropy (zero-entropy ambient blocks, say), far
    /// fewer than `fraction` lie above it and far more lie at or above it.
    pub fn sigma_for_fraction(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of [0, 1]");
        if self.entries.is_empty() || fraction >= 1.0 {
            return f64::NEG_INFINITY;
        }
        let k = ((self.entries.len() as f64) * fraction).floor() as usize;
        if k == 0 {
            return self.entries[0].entropy; // nothing strictly above max
        }
        self.entries[k.min(self.entries.len() - 1)].entropy
    }

    /// Keep only the most important `max` blocks of `set`, in descending
    /// entropy order (the paper's over-prediction fallback at the end of
    /// §IV-B). Uses partial selection — O(n + max·log max) instead of a full
    /// O(n·log n) sort; the comparator is a total order (entropy desc, id asc
    /// tiebreak), so the result is identical to sort-then-truncate.
    pub fn filter_top(&self, set: &[BlockId], max: usize) -> Vec<BlockId> {
        if max == 0 {
            return Vec::new();
        }
        let cmp = |a: &BlockId, b: &BlockId| {
            self.entropy(*b)
                .partial_cmp(&self.entropy(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        };
        let mut v: Vec<BlockId> = set.to_vec();
        if v.len() > max {
            v.select_nth_unstable_by(max - 1, cmp);
            v.truncate(max);
        }
        v.sort_unstable_by(cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::{DatasetKind, DatasetSpec, Dims3};

    fn table() -> ImportanceTable {
        ImportanceTable::from_entropies(vec![0.5, 3.0, 0.0, 2.0], 64)
    }

    #[test]
    fn ranked_is_descending() {
        let t = table();
        let es: Vec<f64> = t.ranked().iter().map(|e| e.entropy).collect();
        assert_eq!(es, vec![3.0, 2.0, 0.5, 0.0]);
        assert_eq!(t.ranked()[0].block, BlockId(1));
    }

    #[test]
    fn entropy_lookup_matches_input() {
        let t = table();
        assert_eq!(t.entropy(BlockId(0)), 0.5);
        assert_eq!(t.entropy(BlockId(2)), 0.0);
    }

    #[test]
    fn top_n_and_threshold() {
        let t = table();
        let top: Vec<BlockId> = t.ranked()[..2].iter().map(|e| e.block).collect();
        assert_eq!(top, vec![BlockId(1), BlockId(3)]);
        let above: Vec<BlockId> = t.above_threshold(0.4).collect();
        assert_eq!(above, vec![BlockId(1), BlockId(3), BlockId(0)]);
        assert_eq!(t.above_threshold(5.0).count(), 0);
    }

    #[test]
    fn sigma_for_fraction_selects_expected_count() {
        let t = table();
        let sigma = t.sigma_for_fraction(0.5);
        assert_eq!(t.above_threshold(sigma).count(), 2);
        // Fraction 1.0: everything passes.
        assert_eq!(t.above_threshold(t.sigma_for_fraction(1.0)).count(), 4);
    }

    #[test]
    fn filter_top_orders_and_truncates() {
        let t = table();
        let set = vec![BlockId(0), BlockId(2), BlockId(3)];
        let kept = t.filter_top(&set, 2);
        assert_eq!(kept, vec![BlockId(3), BlockId(0)]);
    }

    #[test]
    fn ties_break_deterministically() {
        let t = ImportanceTable::from_entropies(vec![1.0, 1.0, 1.0], 8);
        let ids: Vec<BlockId> = t.ranked().iter().map(|e| e.block).collect();
        assert_eq!(ids, vec![BlockId(0), BlockId(1), BlockId(2)]);
    }

    #[test]
    fn filter_top_handles_edge_sizes() {
        let t = table();
        let set = vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)];
        assert!(t.filter_top(&set, 0).is_empty());
        // max >= len keeps everything, sorted by descending entropy.
        let all = t.filter_top(&set, 10);
        assert_eq!(all, vec![BlockId(1), BlockId(3), BlockId(0), BlockId(2)]);
    }

    #[test]
    fn filter_top_matches_full_sort() {
        // Partial selection must agree with the reference full-sort-then-
        // truncate result, ties included.
        let entropies: Vec<f64> = (0..97).map(|i| ((i * 31) % 7) as f64).collect();
        let t = ImportanceTable::from_entropies(entropies, 16);
        let set: Vec<BlockId> = (0..97).map(BlockId).collect();
        for max in [1usize, 3, 7, 48, 96, 97] {
            let mut want = set.clone();
            want.sort_by(|a, b| t.entropy(*b).partial_cmp(&t.entropy(*a)).unwrap().then(a.cmp(b)));
            want.truncate(max);
            assert_eq!(t.filter_top(&set, max), want, "max {max}");
        }
    }

    #[test]
    fn from_field_ranks_feature_blocks_first() {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 3); // 64³
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(16));
        let t = ImportanceTable::from_field(&layout, &field, 64);
        assert_eq!(t.len(), layout.num_blocks());
        // The top block must out-rank the corner (ambient) block.
        let corner = layout.block_at(0, 0, 0);
        assert!(t.ranked()[0].entropy > t.entropy(corner));
    }

    #[test]
    fn from_function_matches_from_field() {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 32, 3); // 32³
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(8));
        let from_field = ImportanceTable::from_field(&layout, &field, 32);
        let range = field.min_max();
        let gen = spec.generator(0);
        let from_fn = ImportanceTable::from_function(&layout, &*gen, 0.0, range, 32);
        for id in layout.block_ids() {
            assert!(
                (from_field.entropy(id) - from_fn.entropy(id)).abs() < 1e-9,
                "block {id} differs"
            );
        }
    }

    #[test]
    fn binary_roundtrip() {
        let t = table();
        let buf = crate::persist::encode_importance_table(&t);
        let back = crate::persist::decode_importance_table(&buf).unwrap();
        assert_eq!(t, back);
    }
}
